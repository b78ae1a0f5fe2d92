"""End-to-end command line runs (in process, small configurations)."""
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chaoskit
from chaoskit.cli import main
from chaoskit.config import DEFAULT_TOLERANCES, SUITES

SMALL = {
    "d": 2,
    "truncation": 4,
    "max_degree": 4,
    "n_time": 8,
    "chaos_n_time": 4,
    "chaos_truncation": 2,
    "n_paths": 400,
    "seed": 11,
}


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL))
    return os.fspath(path)


def run_dir_of(captured: str) -> str:
    last = captured.strip().splitlines()[-1]
    return last[last.index("[") + 1 : last.rindex("]")]


def test_fock_suite_writes_a_full_bundle(tmp_path, cfg_path, capsys):
    out = os.fspath(tmp_path / "runs")
    code = main(["fock", "--config", cfg_path, "--out", out])
    captured = capsys.readouterr().out
    assert code == 0
    assert "11/11 pass" in captured
    run_dir = run_dir_of(captured)
    assert os.path.dirname(run_dir) == out
    for name in ("report.jsonl", "report.csv", "manifest.json", "timing.jsonl"):
        assert os.path.isfile(os.path.join(run_dir, name))
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["suite"] == "fock"
    assert manifest["seed"] == 11
    assert manifest["passed"] == 11


def test_identical_runs_emit_identical_report_bytes(tmp_path, cfg_path, capsys):
    out = os.fspath(tmp_path / "runs")
    assert main(["fock", "--config", cfg_path, "--out", out]) == 0
    first = run_dir_of(capsys.readouterr().out)
    assert main(["fock", "--config", cfg_path, "--out", out]) == 0
    second = run_dir_of(capsys.readouterr().out)
    assert first != second
    for name in ("report.jsonl", "report.csv"):
        with open(os.path.join(first, name), "rb") as fa:
            with open(os.path.join(second, name), "rb") as fb:
                assert fa.read() == fb.read(), name


def test_seed_and_paths_overrides_reach_the_manifest(tmp_path, cfg_path, capsys):
    out = os.fspath(tmp_path / "runs")
    assert main(["fock", "--config", cfg_path, "--out", out, "--seed", "12", "--paths", "777"]) == 0
    run_dir = run_dir_of(capsys.readouterr().out)
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["seed"] == 12
    assert manifest["config"]["n_paths"] == 777
    base = json.loads((tmp_path / "cfg.json").read_text())
    assert base["seed"] == 11  # the file itself is untouched


def test_unreachable_tolerance_exits_one(tmp_path, capsys):
    data = dict(SMALL, tolerances={"algebraic": 0.0})
    path = tmp_path / "strict.json"
    path.write_text(json.dumps(data))
    out = os.fspath(tmp_path / "runs")
    code = main(["fock", "--config", os.fspath(path), "--out", out])
    captured = capsys.readouterr().out
    assert code == 1
    assert "fail" in captured


def test_invalid_config_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(dict(SMALL, n_paths=-5)))
    code = main(["fock", "--config", os.fspath(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "invalid config" in err
    assert main(["fock", "--config", os.fspath(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize(
    "probe",
    [
        {"atoms": 5},
        {"horizon": "1"},
        {"d": "2"},
        {"atoms": [[1, 1], [1, 2]]},
        {"sigma": float("nan")},
        {"n_time": 2.5},
        {"chaos_truncation": 0},
        {"chaos_truncation": 1},
        {"tolerances": {"mc_sigmas": -1}},
    ],
)
def test_bad_config_values_exit_two_without_a_traceback(tmp_path, capsys, probe):
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(dict(SMALL, **probe)))
    out = tmp_path / "runs"
    code = main(["fock", "--config", os.fspath(path), "--out", os.fspath(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "invalid config" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("sub", ["", "sub"])
def test_unusable_output_root_exits_two_before_any_check(
    tmp_path, cfg_path, capsys, monkeypatch, sub
):
    def no_run(config):
        raise AssertionError("a check ran")

    monkeypatch.setattr("chaoskit.cli.run_suite", no_run)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = os.path.join(os.fspath(blocker), sub)
    code = main(["fock", "--config", cfg_path, "--out", out])
    err = capsys.readouterr().err
    assert code == 2
    assert "chaoskit: invalid config: output root" in err
    assert "Traceback" not in err


def _refuse_constant(token):
    raise ValueError(f"{token} is not strict JSON")


def _strict_json(line: str) -> dict:
    return json.loads(line, parse_constant=_refuse_constant)


def test_overflowing_samples_fail_a_record_without_a_traceback(tmp_path, capsys):
    # valid config whose mixed exponential martingale overflows to +-inf, so
    # the exact sum of its samples is undefined
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps({"atoms": [[1.0, 3000.0]], "n_time": 16}))
    out = os.fspath(tmp_path / "runs")
    code = main(["sim", "--config", os.fspath(path), "--paths", "50", "--out", out])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    with open(os.path.join(run_dir_of(captured.out), "report.jsonl")) as fh:
        records = {r["check_id"]: r for r in map(_strict_json, fh)}
    mixed = records["sim.exp_martingale.mixed"]
    assert (mixed["status"], mixed["value"], mixed["se"]) == ("fail", "nan", "nan")
    # only the record whose worst statistic overflowed says so; the mixed
    # Doleans record fails on finite samples
    assert mixed["note"].endswith("; 50 of 50 samples non-finite")
    assert records["sim.doleans_martingale.mixed"]["status"] == "fail"
    flagged = [cid for cid, r in records.items() if "non-finite" in r["note"]]
    assert flagged == ["sim.exp_martingale.mixed"]


def test_overflowing_samples_print_no_numpy_warning(tmp_path):
    # pool workers write to the inherited stderr descriptor, which capsys does
    # not see, so the run goes through a separate interpreter
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps({"atoms": [[1.0, 3000.0]], "n_time": 16}))
    src = os.path.dirname(os.path.dirname(os.path.abspath(chaoskit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["sim", "--config", os.fspath(path), "--paths", "50", "--out", os.fspath(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-m", "chaoskit.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 1
    assert "sim.exp_martingale.mixed" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unknown_suite_is_refused_by_the_parser(capsys):
    with pytest.raises(SystemExit):
        main(["warp"])


# every size field is set and small, so an accepted config runs its suite in
# a few seconds; at most one field is then spoilt by a value of the wrong type
# or out of range
_SIZES = st.fixed_dictionaries(
    {
        "d": st.integers(1, 3),
        "truncation": st.integers(0, 4),
        "max_degree": st.integers(1, 4),
        "n_time": st.integers(1, 8),
        "chaos_n_time": st.integers(1, 4),
        "chaos_truncation": st.integers(0, 4),
        "n_paths": st.integers(2, 60),
        "seed": st.integers(0, 2**32),
    },
    optional={
        "sigma": st.sampled_from([0.0, 0.5, 1.0]),
        "atoms": st.sampled_from([[], [[1.0, 1.0]], [[1.0, 2.0], [-0.5, 1.0]]]),
        "tolerances": st.dictionaries(
            st.sampled_from(sorted(DEFAULT_TOLERANCES)),
            st.sampled_from([0.0, 1e-12, 4.0]),
            max_size=2,
        ),
    },
)
_JUNK = st.tuples(
    st.sampled_from(["d", "truncation", "n_time", "n_paths", "sigma", "atoms"]),
    st.sampled_from([None, True, "2", 2.5, -1, [], {}]),
)


def _spoil(pair):
    data, junk = pair
    if junk is not None:
        data[junk[0]] = junk[1]
    return data


_CONFIGS = st.tuples(_SIZES, st.none() | _JUNK).map(_spoil)


@settings(max_examples=20, deadline=None)
@given(suite=st.sampled_from(SUITES), data=_CONFIGS)
@example(suite="chaos", data={"chaos_truncation": 0, "n_paths": 50})
@example(suite="all", data={"chaos_truncation": 1, "n_paths": 50})
def test_main_exits_with_a_status_and_never_raises(tmp_path_factory, suite, data):
    tmp = tmp_path_factory.mktemp("probe")
    path = tmp / "cfg.json"
    path.write_text(json.dumps(data))
    out = os.fspath(tmp / "runs")
    assert main([suite, "--config", os.fspath(path), "--out", out]) in (0, 1, 2)

