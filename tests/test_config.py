"""Run configuration: defaults, validation, hashing."""
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoskit.config import DEFAULT_TOLERANCES, SUITES, RunConfig
from chaoskit.indices import GuardLimitError


def test_defaults_are_complete():
    cfg = RunConfig()
    assert cfg.suite == "all"
    assert cfg.d == 2
    assert cfg.truncation == 5
    assert cfg.n_paths == 100_000
    assert cfg.seed == 42
    assert cfg.tolerances == DEFAULT_TOLERANCES
    assert set(SUITES) == {"fock", "sim", "chaos", "malliavin", "all"}


@pytest.mark.parametrize(
    "field,bad",
    [
        ("suite", "spectral"),
        ("d", 0),
        ("truncation", -1),
        ("max_degree", 0),
        ("n_time", 0),
        ("chaos_n_time", 0),
        ("chaos_truncation", -1),
        ("chaos_truncation", 1),
        ("n_paths", 1),
        ("seed", -1),
        ("horizon", 0.0),
        ("sigma", -0.5),
    ],
)
def test_field_validation(field, bad):
    with pytest.raises(ValueError, match=field):
        RunConfig(**{field: bad})


@pytest.mark.parametrize(
    "field,bad",
    [
        ("d", "2"),
        ("d", 2.0),
        ("n_paths", True),
        ("seed", None),
        ("n_time", 2.5),
        ("n_time", 10**30),
        ("horizon", "1"),
        ("sigma", float("nan")),
        ("b", float("inf")),
        ("b", 10**400),
        ("atoms", 5),
        ("atoms", [[1.0]]),
        ("atoms", [[1.0, "2"]]),
        ("atoms", [[1.0, float("nan")]]),
        ("out_dir", 5),
        ("tolerances", [1e-12]),
    ],
)
def test_field_types_are_checked(field, bad):
    with pytest.raises(ValueError, match=field):
        RunConfig(**{field: bad})


def test_model_and_grids_are_built_during_validation():
    with pytest.raises(ValueError, match="distinct"):
        RunConfig(atoms=[[1, 1], [1, 2]])
    with pytest.raises(ValueError, match="intensity"):
        RunConfig(atoms=[[1.0, 0.0]])
    with pytest.raises(ValueError, match="overflow"):
        RunConfig(sigma=1e200)


def test_tolerance_values_must_be_finite_numbers():
    with pytest.raises(ValueError, match="algebraic"):
        RunConfig(tolerances={"algebraic": "1e-9"})
    with pytest.raises(ValueError, match="mc_sigmas"):
        RunConfig(tolerances={"mc_sigmas": float("inf")})
    with pytest.raises(ValueError, match="mc_sigmas"):
        RunConfig(tolerances={"mc_sigmas": -1})
    assert RunConfig(tolerances={"mc_sigmas": 0}).tolerances["mc_sigmas"] == 0.0


def test_validation_keeps_config_hashes():
    # hashes pinned before the type checks were added: manifests stay the same
    assert RunConfig().config_hash() == (
        "b2c4595ed31f0c0fd13f66b786fe82ffb6af9bbde2de8d04457431a893733a82"
    )
    as_ints = RunConfig(horizon=1, sigma=1, atoms=[[1, 1]])
    assert as_ints.to_dict()["horizon"] == 1
    assert as_ints.to_dict()["atoms"] == [[1.0, 1.0]]
    assert as_ints.config_hash() == (
        "b75a0f4c8e5858a99560aefcefbac82a7c886cb703e9ae1a7b1ef84c16d6b070"
    )


_FIELDS = sorted(RunConfig.__dataclass_fields__) + ["velocity"]
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=40)
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
    | st.sampled_from(SUITES)
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(sorted(DEFAULT_TOLERANCES)) | st.text(max_size=4),
        inner,
        max_size=3,
    ),
    max_leaves=8,
)


def _bounded(data: dict) -> dict:
    # keep grids small: the time counts build one cell per time step and bin
    for name in ("n_time", "chaos_n_time"):
        value = data.get(name)
        if isinstance(value, int) and not isinstance(value, bool) and value > 64:
            data[name] = value % 64
    return data


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(_FIELDS), _VALUES, max_size=6).map(_bounded))
def test_from_dict_returns_or_raises_value_error(data):
    try:
        cfg = RunConfig.from_dict(data)
    except ValueError:
        return
    assert cfg.config_hash() == RunConfig.from_dict(cfg.to_dict()).config_hash()


def test_some_noise_source_is_required():
    with pytest.raises(ValueError):
        RunConfig(sigma=0.0, atoms=[])


def test_tolerance_overrides_merge_over_defaults():
    cfg = RunConfig(tolerances={"algebraic": 1e-9})
    assert cfg.tolerances["algebraic"] == 1e-9
    assert cfg.tolerances["mc_sigmas"] == DEFAULT_TOLERANCES["mc_sigmas"]
    with pytest.raises(ValueError, match="tolerance"):
        RunConfig(tolerances={"wobble": 1.0})


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown"):
        RunConfig.from_dict({"d": 2, "velocity": 3})


def test_file_round_trip(tmp_path):
    cfg = RunConfig(suite="fock", d=3, seed=7)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    back = RunConfig.from_file(os.fspath(path))
    assert back.to_dict() == cfg.to_dict()
    assert back.config_hash() == cfg.config_hash()


def test_config_hash_tracks_content():
    assert RunConfig(seed=1).config_hash() == RunConfig(seed=1).config_hash()
    assert RunConfig(seed=1).config_hash() != RunConfig(seed=2).config_hash()


def test_mixed_model_mirrors_the_config():
    cfg = RunConfig(b=0.2, sigma=0.5, atoms=[[1.0, 1.5]], horizon=2.0)
    model = cfg.mixed_model()
    assert model.b == 0.2
    assert model.sigma == 0.5
    assert model.atoms == ((1.0, 1.5),)
    assert model.horizon == 2.0


def test_guard_validation_raises_before_any_allocation():
    cfg = RunConfig(d=40, truncation=30)
    with pytest.raises(GuardLimitError):
        cfg.validate_guards()


def test_out_dir_resolution_is_absolute():
    cfg = RunConfig(out_dir="runs")
    assert os.path.isabs(cfg.resolve_out_dir())
