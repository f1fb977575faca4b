"""Eigen, orthonormalization, and subspace-angle utilities."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from klproj.errors import DimensionMismatch, NonFiniteInput, NotPositiveDefinite, RankDeficient
from klproj.linalg import (
    SPD_RTOL,
    WhitenedPencil,
    _symmetrized,
    assert_spd,
    cholesky,
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

    def test_symmetrizes_near_the_float_limit(self):
        # M + M^T overflows; M/2 + M^T/2 does not
        eig = sym_eig(np.diag([1.0, 1.5e308, 1e308]))
        np.testing.assert_array_equal(eig.eigenvalues, [1.5e308, 1e308, 1.0])

    def test_symmetrized_has_the_bits_of_the_halved_sum(self):
        rng = np.random.default_rng(31)
        for scale in (1e-300, 1.0, 1e300):
            m = rng.standard_normal((7, 7)) * scale
            assert _symmetrized(m).tobytes() == ((m + m.T) / 2.0).tobytes()


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
        # floor is SPD_RTOL * largest eigenvalue; at it is rejected
        floor = SPD_RTOL * largest
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


class TestCholesky:
    @pytest.mark.parametrize("d", [1, 2, 20, 300])
    def test_matches_numpy(self, d):
        m = rand_spd(np.random.default_rng(70 + d), d)
        m = (m + m.T) / 2.0
        before = m.copy()
        l, reference = cholesky(m), np.linalg.cholesky(m)
        assert np.linalg.norm(l - reference) <= 1e-13 * np.linalg.norm(reference)
        assert np.all(np.triu(l, 1) == 0.0)
        assert l.flags.f_contiguous
        np.testing.assert_array_equal(m, before)

    def test_overwrite_factors_a_c_ordered_matrix_in_place(self):
        m = rand_spd(np.random.default_rng(79), 6)
        m = (m + m.T) / 2.0
        buf = m.copy()
        l = cholesky(buf, overwrite=True)
        assert np.shares_memory(l, buf)
        np.testing.assert_allclose(l @ l.T, m, rtol=1e-13, atol=1e-13)

    def test_rejects_indefinite(self):
        with pytest.raises(np.linalg.LinAlgError):
            cholesky(np.diag([1.0, -0.5]))


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


def whitened(b, c):
    """L^-1 B L^-T for C = L L^T, formed directly."""
    l = np.linalg.cholesky(c)
    half = scipy.linalg.solve_triangular(l, b, lower=True)
    w = scipy.linalg.solve_triangular(l, half.T, lower=True)
    return (w + w.T) / 2.0


class TestImplicitEigenbasis:
    """WhitenedPencil's reflector-kept eigenbasis against eigh of the whitened matrix."""

    @pytest.mark.parametrize("d", [1, 2, 3, 50])
    def test_matches_eigh_up_to_column_sign(self, d):
        rng = np.random.default_rng(40 + d)
        b, c = rand_spd(rng, d, 0.5, 20.0), rand_spd(rng, d)
        pencil = WhitenedPencil(b, c)
        w, u = np.linalg.eigh(whitened(b, c))
        lam, u = w[::-1], u[:, ::-1]
        np.testing.assert_allclose(pencil.eigenvalues, lam, rtol=1e-13)
        cols = pencil.columns(slice(None))
        signs = np.sign(np.sum(cols * u, axis=0))
        np.testing.assert_allclose(cols, u * signs, atol=1e-10)
        sel = rng.permutation(d)[: max(1, d // 2)]
        np.testing.assert_allclose(pencil.columns(sel), (u * signs)[:, sel], atol=1e-10)
        v, coeffs = rng.standard_normal(d), rng.standard_normal(d)
        np.testing.assert_allclose(pencil.coords(v), signs * (u.T @ v), atol=1e-10)
        np.testing.assert_allclose(pencil.combine(coeffs), u @ (signs * coeffs), atol=1e-10)
        vecs = np.linalg.solve(np.linalg.cholesky(c).T, u)
        np.testing.assert_allclose(pencil.pencil_vectors(slice(None)),
                                   vecs / np.linalg.norm(vecs, axis=0) * signs, atol=1e-10)

    @pytest.mark.parametrize("factor", [2.0, 1e100])
    def test_proportional_pencil_is_an_orthonormal_eigenbasis(self, factor):
        # every eigenvalue is `factor`: any orthonormal basis is an eigenbasis
        rng = np.random.default_rng(17)
        c = rand_spd(rng, 30)
        pencil = WhitenedPencil(factor * c, c)
        w = whitened(factor * c, c)
        u = pencil.columns(slice(None))
        np.testing.assert_allclose(u.T @ u, np.eye(30), atol=1e-13)
        residual = np.linalg.norm(w @ u - u * pencil.eigenvalues, axis=0)
        assert np.max(residual) <= 1e-12 * np.linalg.norm(w, 2)

    def test_working_set_is_three_square_arrays(self):
        # the kept reflectors, Z and stevd's n^2 + 4n + 1 workspace; the sytrd buffer is gone
        d = 300
        rng = np.random.default_rng(5)
        b, c = rand_spd(rng, d, 0.5, 20.0), rand_spd(rng, d)
        factor = cholesky(c)
        tracemalloc.start()
        try:
            WhitenedPencil(b, c, factor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8.0 * d * d) <= 3.5


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
