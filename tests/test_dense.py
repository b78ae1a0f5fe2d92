"""Dense level matrices and their spectral facts."""
import numpy as np
import pytest

from chaoskit.dense import (
    isometry_residual,
    lower_matrix,
    operator_norm,
    raise_matrix,
)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_ladder_norms_are_square_roots(d, n):
    low = lower_matrix(d, n)
    up = raise_matrix(d, n)
    assert operator_norm(low) == pytest.approx(np.sqrt(n), abs=1e-10)
    assert operator_norm(up) == pytest.approx(np.sqrt(n + 1), abs=1e-10)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_normalized_lowering_is_an_isometry(n):
    assert isometry_residual(lower_matrix(3, n) / np.sqrt(n)) <= 1e-12


def test_raise_is_adjoint_of_lower():
    low = lower_matrix(2, 3)
    up = raise_matrix(2, 2)
    assert np.allclose(low.conj().T, up, atol=1e-13)


def test_operator_matrix_validation():
    with pytest.raises(ValueError, match="degree >= 1"):
        lower_matrix(2, 0)
