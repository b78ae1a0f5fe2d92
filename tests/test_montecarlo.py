"""Order-independent Monte Carlo reduction."""
import numpy as np
import pytest

from chaoskit.montecarlo import summarize


def test_mean_is_bitwise_order_independent():
    rng = np.random.default_rng(6)
    v = rng.standard_normal(1001) * np.exp(rng.standard_normal(1001))
    a = summarize(v)
    b = summarize(v[::-1].copy())
    c = summarize(rng.permutation(v))
    assert a.mean == b.mean == c.mean
    assert a.se == b.se == c.se


def test_complex_errors_combine_in_quadrature():
    rng = np.random.default_rng(9)
    v = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    s = summarize(v)
    assert s.se == pytest.approx(np.hypot(s.se_re, s.se_im))
    assert s.se_re > 0 and s.se_im > 0


def test_constant_sample_has_zero_error():
    s = summarize(np.full(64, 2.5))
    assert s.mean == 2.5
    assert s.se == 0.0


def test_summarize_input_validation():
    with pytest.raises(ValueError):
        summarize(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        summarize(np.array([]))



@pytest.mark.parametrize(
    "values",
    [
        np.array([np.inf, -np.inf]),  # fsum raises ValueError on inf - inf
        np.array([1e308, 1e308]),  # fsum raises OverflowError
    ],
)
def test_unsummable_sample_gives_nan_instead_of_raising(values):
    s = summarize(values)
    assert np.isnan(s.mean.real)
    assert np.isnan(s.se)
