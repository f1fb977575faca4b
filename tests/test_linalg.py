"""Eigen, orthonormalization, and subspace-angle utilities."""

import math

import numpy as np
import pytest

from klproj.errors import DimensionMismatch, NonFiniteInput, NotPositiveDefinite, RankDeficient
from klproj.linalg import (
    SPD_RTOL,
    assert_spd,
    generalized_eig,
    numerical_rank,
    orthonormalize_rows,
    principal_angles,
    spd_eigenvalues,
    spd_inv_sqrt,
    sym_eig,
)


def rand_spd(rng, d, lo=0.5, hi=3.0):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q @ np.diag(rng.uniform(lo, hi, d)) @ q.T


class TestSymEig:
    def test_diagonal_matrix_descending(self):
        eig = sym_eig(np.diag([1.0, 5.0, 3.0]))
        np.testing.assert_allclose(eig.eigenvalues, [5.0, 3.0, 1.0])
        # eigenvector columns line up with the sorted eigenvalues
        np.testing.assert_allclose(np.abs(eig.eigenvectors), np.eye(3)[:, [1, 2, 0]], atol=1e-14)

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rand_spd(rng, 6)
            eig = sym_eig(m)
            rebuilt = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
            np.testing.assert_allclose(rebuilt, m, atol=1e-12)

    def test_rejects_nonfinite(self):
        bad = np.eye(3)
        bad[0, 1] = np.nan
        with pytest.raises(NonFiniteInput):
            sym_eig(bad)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            sym_eig(np.ones((2, 3)))


class TestSpdGuards:
    def test_accepts_spd(self):
        assert_spd(np.diag([2.0, 0.5]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            assert_spd(np.diag([1.0, -0.5]))

    def test_rejects_singular(self):
        with pytest.raises(NotPositiveDefinite):
            assert_spd(np.diag([1.0, 0.0]))

    def test_message_names_offender(self):
        with pytest.raises(NotPositiveDefinite, match="covariance"):
            spd_eigenvalues(np.diag([1.0, -2.0]), name="covariance")

    @pytest.mark.parametrize("largest", [0.5, 4.0])
    def test_boundary_of_the_relative_floor(self, largest):
        # floor is SPD_RTOL * max(1, largest eigenvalue); at it is rejected
        floor = SPD_RTOL * max(1.0, largest)
        assert_spd(np.diag([largest, np.nextafter(floor, 1.0)]))
        with pytest.raises(NotPositiveDefinite, match="smallest eigenvalue"):
            assert_spd(np.diag([largest, floor]), name="covariance")

    def test_inv_sqrt_identity(self):
        rng = np.random.default_rng(11)
        m = rand_spd(rng, 5)
        s = spd_inv_sqrt(m)
        np.testing.assert_allclose(s @ m @ s, np.eye(5), atol=1e-12)
        # the inverse square root is itself symmetric
        np.testing.assert_allclose(s, s.T, atol=1e-12)


class TestGeneralizedEig:
    def test_diagonal_pencil(self):
        b = np.diag([8.0, 1.0])
        c = np.diag([2.0, 1.0])
        pencil = generalized_eig(b, c)
        np.testing.assert_allclose(pencil.eigenvalues, [4.0, 1.0])

    def test_pencil_equation_and_c_orthogonality(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            b = rand_spd(rng, 5)
            c = rand_spd(rng, 5)
            pencil = generalized_eig(b, c)
            v = pencil.eigenvectors
            for i, lam in enumerate(pencil.eigenvalues):
                np.testing.assert_allclose(b @ v[:, i], lam * (c @ v[:, i]), atol=1e-10)
            gram = v.T @ c @ v
            np.testing.assert_allclose(gram, np.diag(np.diag(gram)), atol=1e-10)

    def test_unit_columns(self):
        rng = np.random.default_rng(5)
        pencil = generalized_eig(rand_spd(rng, 4), rand_spd(rng, 4))
        np.testing.assert_allclose(np.linalg.norm(pencil.eigenvectors, axis=0), 1.0, atol=1e-13)

    def test_reciprocal_spectra(self):
        """Swapping the pencil inverts the spectrum and keeps the directions."""
        rng = np.random.default_rng(9)
        b, c = rand_spd(rng, 6), rand_spd(rng, 6)
        fwd = generalized_eig(b, c)
        rev = generalized_eig(c, b)
        np.testing.assert_allclose(np.sort(fwd.eigenvalues), np.sort(1.0 / rev.eigenvalues), atol=1e-10)


class TestOrthonormalizeRows:
    def test_sign_convention(self):
        np.testing.assert_allclose(orthonormalize_rows([[3.0, 4.0]]), [[0.6, 0.8]], atol=1e-15)

    def test_preserves_row_space(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((3, 7))
        q = orthonormalize_rows(a)
        assert q.shape == (3, 7)
        np.testing.assert_allclose(q @ q.T, np.eye(3), atol=1e-12)
        assert principal_angles(a, q).max() < 1e-10

    def test_rank_deficient_raises_with_rank(self):
        with pytest.raises(RankDeficient) as info:
            orthonormalize_rows([[3.0, 4.0], [6.0, 8.0]])
        assert info.value.rank == 1

    def test_numerical_rank(self):
        assert numerical_rank(np.zeros((2, 2))) == 0
        assert numerical_rank(np.eye(3)) == 3
        assert numerical_rank([[1.0, 0.0], [1.0, 1e-14]]) == 1


class TestPrincipalAngles:
    def test_orthogonal_lines(self):
        ang = principal_angles([[1.0, 0.0]], [[0.0, 1.0]])
        np.testing.assert_allclose(ang, [math.pi / 2])

    def test_quarter_turn(self):
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        ang = principal_angles([[1.0, 0.0]], [[inv_sqrt2, inv_sqrt2]])
        np.testing.assert_allclose(ang, [math.pi / 4], atol=1e-12)

    def test_identical_subspace_is_zero_to_high_accuracy(self):
        # tiny-angle accuracy is load bearing: subspace comparisons are
        # asserted down at 1e-10, far below the arccos noise floor
        rng = np.random.default_rng(17)
        a = rng.standard_normal((3, 9))
        mix = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        assert principal_angles(a, mix @ a).max() < 1e-10

    def test_sorted_ascending_and_counts(self):
        rng = np.random.default_rng(19)
        a1 = rng.standard_normal((2, 6))
        a2 = rng.standard_normal((4, 6))
        ang = principal_angles(a1, a2)
        assert ang.shape == (2,)
        assert np.all(np.diff(ang) >= 0)
        assert np.all((ang >= 0) & (ang <= math.pi / 2 + 1e-12))

    def test_shared_direction_gives_zero_angle(self):
        shared = np.array([[1.0, 1.0, 0.0, 0.0]]) / math.sqrt(2.0)
        a1 = np.vstack([shared, [[0.0, 0.0, 1.0, 0.0]]])
        a2 = np.vstack([shared, [[0.0, 0.0, 0.0, 1.0]]])
        ang = principal_angles(a1, a2)
        assert ang[0] < 1e-12
        np.testing.assert_allclose(ang[1], math.pi / 2, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            principal_angles([[1.0, 0.0]], [[1.0, 0.0, 0.0]])
