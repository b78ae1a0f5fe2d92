"""Dense level matrices and their spectral facts."""
import numpy as np
import pytest

from chaoskit.dense import (
    isometry_residual,
    operator_matrix,
    operator_norm,
)
from chaoskit.indices import level_dim, occ_array


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_ladder_norms_are_square_roots(d, n):
    low = operator_matrix("lower", n, d)
    up = operator_matrix("raise", n, d)
    assert operator_norm(low) == pytest.approx(np.sqrt(n), abs=1e-10)
    assert operator_norm(up) == pytest.approx(np.sqrt(n + 1), abs=1e-10)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_normalized_lowering_is_an_isometry(n):
    op = operator_matrix("isometry", n, 3)
    assert isometry_residual(op) <= 1e-12


def test_raise_is_adjoint_of_lower():
    low = operator_matrix("lower", 3, 2)
    up = operator_matrix("raise", 2, 2)
    assert np.allclose(low.matrix.conj().T, up.matrix, atol=1e-13)


def test_number_matrix_is_scalar():
    op = operator_matrix("number", 4, 3)
    assert np.array_equal(op.matrix, 4 * np.eye(level_dim(3, 4)))


def test_conservation_identity_counts_particles():
    op = operator_matrix("conservation", 3, 2, A=np.eye(2))
    assert np.allclose(op.matrix, 3 * np.eye(level_dim(2, 3)), atol=1e-12)


def test_conservation_diagonal_matches_occupations():
    lam = np.array([1.0, 2.5])
    op = operator_matrix("conservation", 2, 2, A=np.diag(lam))
    want = np.diag(occ_array(2, 2) @ lam)
    assert np.allclose(op.matrix, want, atol=1e-12)


def test_operator_matrix_validation():
    with pytest.raises(ValueError, match="unknown operator"):
        operator_matrix("shear", 2, 2)
    with pytest.raises(ValueError, match="one-particle operator"):
        operator_matrix("conservation", 2, 2)
    with pytest.raises(ValueError):
        operator_matrix("conservation", 2, 2, A=np.eye(3))
    with pytest.raises(ValueError):
        operator_matrix("lower", 0, 2)
