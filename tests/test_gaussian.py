"""Divergence formulas, parameter containers, and estimation."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_triangular

import klproj
from klproj import (
    GaussianParams,
    LabeledDataset,
    chernoff_information,
    component_kld,
    estimate_params,
    g_score,
    kld,
    kld_projected,
    kld_split,
    log_density,
    pooled_covariance,
    project_params,
)
from klproj.linalg import SPD_RTOL, assert_spd
from klproj.errors import (
    DimensionMismatch,
    InsufficientSamples,
    NonFiniteInput,
    NonPositiveInput,
    NotPositiveDefinite,
    RankDeficient,
)


def rand_pair(rng, d, spread=2.0):
    def one():
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        cov = q @ np.diag(rng.uniform(0.5, spread, d)) @ q.T
        return GaussianParams(rng.standard_normal(d), cov)

    return one(), one()


class TestGaussianParams:
    def test_rejects_asymmetric_covariance(self):
        cov = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            GaussianParams(np.zeros(2), cov)

    def test_asymmetry_is_judged_at_any_scale(self):
        cov = np.array([[3.0, 1.0], [0.0, 3.0]])
        messages = []
        for scale in (1.0, 1e200):
            with pytest.raises(NotPositiveDefinite, match="not symmetric") as exc:
                GaussianParams(np.zeros(2), scale * cov)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    def test_symmetric_huge_covariance_is_left_to_the_spd_rule(self):
        for cov in (np.array([[3.0, 1.0], [1.0, 3.0]]), np.array([[1.0, 2.0], [2.0, 1.0]])):
            huge = 1e200 * cov
            assert spd_outcome(lambda: GaussianParams(np.zeros(2), huge)) == spd_outcome(
                lambda: assert_spd(huge, "covariance"))

    def test_entries_near_the_float_limit_are_stored_finite(self):
        cov = np.array([[1e308, 4e307 * (1 + 1e-15)], [4e307, 6e307]])
        with np.errstate(all="raise", under="ignore"):  # numpy's defaults, as errors
            p = GaussianParams(np.zeros(2), cov)
            np.testing.assert_array_equal(p.covariance, cov / 2.0 + cov.T / 2.0)
            assert p.covariance[0, 1] == p.covariance[1, 0]
            # condition 1e308: far below the relative floor of the SPD rule
            with pytest.raises(NotPositiveDefinite, match="smallest eigenvalue 1.0+e-308"):
                GaussianParams(np.zeros(2), np.diag([1e308, 1.0]))

    @pytest.mark.parametrize("scale", [1.0, 1e-200, 1e-300])
    def test_asymmetry_is_relative_at_any_scale(self, scale):
        with pytest.raises(NotPositiveDefinite, match="not symmetric"):
            GaussianParams(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]) * scale)

    def test_symmetrizes_roundoff_asymmetry(self):
        cov = np.array([[2.0, 0.3], [0.3 + 1e-13, 1.0]])
        p = GaussianParams(np.zeros(2), cov)
        np.testing.assert_allclose(p.covariance, p.covariance.T)

    def test_rejects_nan_mean(self):
        with pytest.raises(NonFiniteInput):
            GaussianParams(np.array([np.nan, 0.0]), np.eye(2))

    def test_rejects_mean_covariance_mismatch(self):
        with pytest.raises(DimensionMismatch):
            GaussianParams(np.zeros(3), np.eye(2))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            GaussianParams(np.zeros(2), np.diag([1.0, -1.0]))


def spd_outcome(build):
    """None when ``build()`` accepts, else the NotPositiveDefinite message."""
    try:
        build()
    except NotPositiveDefinite as exc:
        return str(exc)
    return None


def rotated(rng, eigenvalues):
    q, _ = np.linalg.qr(rng.standard_normal((eigenvalues.size, eigenvalues.size)))
    return q @ np.diag(eigenvalues) @ q.T


class TestValidationDecision:
    """GaussianParams accepts and rejects exactly as assert_spd's eigenvalue rule."""

    def assert_same_decision(self, cov):
        ours = spd_outcome(lambda: GaussianParams(np.zeros(cov.shape[0]), cov))
        reference = spd_outcome(lambda: assert_spd(cov, "covariance"))
        assert ours == reference
        return ours

    @pytest.mark.parametrize("d", [2, 50, 300])
    @pytest.mark.parametrize("largest", [0.5, 20.0])
    def test_rotated_spectra_around_the_floor(self, d, largest):
        rng = np.random.default_rng(1000 + d)
        floor = SPD_RTOL * largest
        decisions = []
        for factor in (0.5, 1.0, 1.001, 2.0, 3.0, 50.0, 1e3):
            lam = np.concatenate([[largest], rng.uniform(0.1, 1.0, d - 2) * largest,
                                  [factor * floor]])
            decisions.append(self.assert_same_decision(rotated(rng, lam)))
        # the sweep straddles the floor: far below it rejects, far above accepts
        assert "smallest eigenvalue" in decisions[0]
        assert decisions[-1] is None

    # at 1e200 the Frobenius norm bounding the largest eigenvalue overflows
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-300, 1e150, 1e200])
    def test_scale_extremes(self, scale):
        rng = np.random.default_rng(7)
        for d in (2, 50):
            self.assert_same_decision(rotated(rng, rng.uniform(1.0, 10.0, d)) * scale)

    def test_indefinite_and_singular(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal(6)
        for cov in (rotated(rng, np.array([3.0, 1.0, -0.5, 2.0])), np.outer(v, v)):
            assert "smallest eigenvalue" in self.assert_same_decision(cov)

    @pytest.mark.parametrize("scale", [1e-300, 1e-200])
    def test_floor_stays_relative_where_squares_underflow(self, scale):
        rng = np.random.default_rng(9)
        for cond, accepted in ((1e3, True), (1e12, False)):
            lam = np.geomspace(1.0, 1.0 / cond, 5)
            assert (self.assert_same_decision(rotated(rng, lam) * scale) is None) is accepted

    @pytest.mark.parametrize("largest", [0.5, 4.0])
    def test_boundary_of_the_relative_floor(self, largest):
        floor = SPD_RTOL * largest
        GaussianParams(np.zeros(2), np.diag([largest, np.nextafter(floor, 1.0)]))
        with pytest.raises(NotPositiveDefinite, match="smallest eigenvalue"):
            GaussianParams(np.zeros(2), np.diag([largest, floor]))


class TestKld:
    def test_unit_shift(self):
        """Shifting an isotropic Gaussian by a unit vector costs 1/2."""
        p1 = GaussianParams(np.zeros(2), np.eye(2))
        p2 = GaussianParams(np.array([1.0, 0.0]), np.eye(2))
        assert kld(p1, p2) == pytest.approx(0.5, abs=1e-15)
        assert kld(p1, p1) == pytest.approx(0.0, abs=1e-15)

    def test_pure_variance_ratio(self):
        """For N(0,1) vs N(0,e) the divergence is exactly 1/(2e)."""
        p1 = GaussianParams(np.zeros(1), np.eye(1))
        p2 = GaussianParams(np.zeros(1), np.array([[math.e]]))
        assert kld(p1, p2) == pytest.approx(1.0 / (2.0 * math.e), rel=1e-14)

    def test_hand_worked_two_dim(self):
        # ln(|S2|/|S1|) = ln 2, tr(S2^-1 S1) = 3/2, quad term = 1/2, d = 2
        p1 = GaussianParams(np.zeros(2), np.diag([1.0, 2.0]))
        p2 = GaussianParams(np.array([1.0, 0.0]), np.diag([2.0, 2.0]))
        expect = 0.5 * (math.log(2.0) - 2.0 + 1.5 + 0.5)
        assert kld(p1, p2) == pytest.approx(expect, rel=1e-14)
        split = kld_split(p1, p2)
        assert split.d_mu == pytest.approx(0.25, rel=1e-14)
        assert split.d_sigma == pytest.approx(expect - 0.25, rel=1e-14)
        assert split.total == pytest.approx(split.d_mu + split.d_sigma, rel=1e-14)

    def test_asymmetry(self):
        rng = np.random.default_rng(23)
        p1, p2 = rand_pair(rng, 4)
        assert kld(p1, p2) != pytest.approx(kld(p2, p1), rel=1e-3)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            p1, p2 = rand_pair(rng, 5)
            assert kld(p1, p2) >= 0.0

    @pytest.mark.parametrize("d", [1, 127, 128, 129, 300])
    def test_blocked_trace_matches_the_full_solve(self, d):
        # the trace term solves only the nonzero trailing rows of each column block
        p1, p2 = rand_pair(np.random.default_rng(90 + d), d)
        trace = np.sum(solve_triangular(p2.factor, p1.factor, lower=True) ** 2)
        logdets = [2.0 * np.sum(np.log(np.diag(p.factor))) for p in (p1, p2)]
        d_sigma = 0.5 * (logdets[1] - logdets[0] - d + trace)
        assert kld_split(p1, p2).d_sigma == pytest.approx(d_sigma, rel=1e-13)

    def test_dimension_mismatch(self):
        p1 = GaussianParams(np.zeros(2), np.eye(2))
        p2 = GaussianParams(np.zeros(3), np.eye(3))
        with pytest.raises(DimensionMismatch):
            kld(p1, p2)


class TestProjection:
    def test_project_params_moments(self):
        rng = np.random.default_rng(31)
        p, _ = rand_pair(rng, 5)
        a = rng.standard_normal((2, 5))
        q = project_params(a, p)
        np.testing.assert_allclose(q.mean, a @ p.mean)
        np.testing.assert_allclose(q.covariance, a @ p.covariance @ a.T, atol=1e-12)

    def test_projected_never_exceeds_full(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            p1, p2 = rand_pair(rng, 6)
            a = rng.standard_normal((rng.integers(1, 6), 6))
            assert kld_projected(a, p1, p2) <= kld(p1, p2) + 1e-10

    def test_row_space_invariance(self):
        """Any invertible recombination of the rows retains the same divergence."""
        rng = np.random.default_rng(41)
        p1, p2 = rand_pair(rng, 6)
        a = rng.standard_normal((3, 6))
        mix = rng.standard_normal((3, 3)) + 4.0 * np.eye(3)
        assert kld_projected(mix @ a, p1, p2) == pytest.approx(
            kld_projected(a, p1, p2), rel=1e-10
        )

    def test_full_rank_square_projection_is_lossless(self):
        rng = np.random.default_rng(43)
        p1, p2 = rand_pair(rng, 5)
        a = rng.standard_normal((5, 5)) + 3.0 * np.eye(5)
        assert kld_projected(a, p1, p2) == pytest.approx(kld(p1, p2), rel=1e-10)

    def test_rank_deficient_projection_rejected(self):
        p1 = GaussianParams(np.zeros(3), np.eye(3))
        p2 = GaussianParams(np.ones(3), np.eye(3))
        a = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(RankDeficient):
            kld_projected(a, p1, p2)

    def test_more_rows_than_dims_rejected(self):
        p1 = GaussianParams(np.zeros(2), np.eye(2))
        p2 = GaussianParams(np.ones(2), np.eye(2))
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises((DimensionMismatch, RankDeficient)):
            kld_projected(a, p1, p2)

    def test_three_dimensional_projection_rejected(self):
        p1 = GaussianParams(np.zeros(3), np.eye(3))
        p2 = GaussianParams(np.ones(3), np.eye(3))
        with pytest.raises(DimensionMismatch):
            kld_projected(np.ones((1, 1, 3)), p1, p2)


class TestScores:
    def test_g_score_values(self):
        assert g_score(1.0) == pytest.approx(0.0, abs=1e-15)
        assert g_score(math.e) == pytest.approx(1.0 / (2.0 * math.e), rel=1e-14)
        assert g_score(2.0) == pytest.approx(0.5 * (math.log(2.0) - 0.5), rel=1e-14)
        assert g_score(0.5) == pytest.approx(0.5 * (-math.log(2.0) + 1.0), rel=1e-14)

    def test_g_score_vectorized_and_positive(self):
        lam = np.array([0.3, 0.9, 1.0, 1.1, 4.0])
        vals = g_score(lam)
        assert vals.shape == lam.shape
        assert np.all(vals >= 0.0)

    def test_g_score_rejects_nonpositive(self):
        with pytest.raises(NonPositiveInput):
            g_score(0.0)

    def test_component_kld_reduces_to_g(self):
        lam = np.array([0.4, 1.0, 2.5])
        np.testing.assert_allclose(component_kld(np.zeros(3), lam), g_score(lam), atol=1e-15)

    def test_component_kld_unit_case(self):
        # D(N(0,1) || N(1,1)) = 1/2
        assert component_kld(1.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_component_kld_matches_one_dim_kld(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            m = rng.normal()
            lam = rng.uniform(0.2, 5.0)
            p1 = GaussianParams(np.zeros(1), np.eye(1))
            p2 = GaussianParams(np.array([m]), np.array([[lam]]))
            assert component_kld(m, lam) == pytest.approx(kld(p1, p2), rel=1e-12)


class TestChernoff:
    def test_equal_covariance_quarter(self):
        p1 = GaussianParams(np.zeros(1), np.eye(1))
        p2 = GaussianParams(np.array([1.0]), np.eye(1))
        assert chernoff_information(p1, p2) == pytest.approx(0.125, rel=1e-9)

    def test_matches_dense_grid_oracle(self):
        """The bounded search's max agrees with a brute-force 1e-6 grid scan."""
        var1, var2, gap = 1.0, 3.0, 1.5
        s = np.arange(1e-6, 1.0, 1e-6)
        mixed = s * var1 + (1.0 - s) * var2
        exponent = (
            s * (1.0 - s) / 2.0 * gap**2 / mixed
            + 0.5 * (np.log(mixed) - s * math.log(var1) - (1.0 - s) * math.log(var2))
        )
        p1 = GaussianParams(np.zeros(1), np.array([[var1]]))
        p2 = GaussianParams(np.array([gap]), np.array([[var2]]))
        assert chernoff_information(p1, p2) == pytest.approx(float(exponent.max()), abs=1e-9)

    @pytest.mark.parametrize("d", [2, 5, 10])
    def test_matches_the_mixture_cholesky_search(self, d):
        """Reference: the same bounded search over the exponent from Ss's own Cholesky."""
        from scipy.linalg import cho_factor, cho_solve
        from scipy.optimize import minimize_scalar

        def logdet(cov):
            return 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(cov)))))

        rng = np.random.default_rng(59 + d)
        for _ in range(3):
            p1, p2 = rand_pair(rng, d, spread=5.0)
            delta = p2.mean - p1.mean

            def exponent(s):
                mix = s * p1.covariance + (1.0 - s) * p2.covariance
                quad = float(delta @ cho_solve(cho_factor(mix, lower=True), delta))
                return 0.5 * (s * (1.0 - s) * quad + logdet(mix) - s * logdet(p1.covariance)
                              - (1.0 - s) * logdet(p2.covariance))

            best = minimize_scalar(lambda s: -exponent(s), bounds=(0.0, 1.0), method="bounded",
                                   options={"xatol": 1e-10})
            assert chernoff_information(p1, p2) == pytest.approx(-best.fun, rel=1e-10)

    def test_symmetric(self):
        rng = np.random.default_rng(53)
        p1, p2 = rand_pair(rng, 4)
        assert chernoff_information(p1, p2) == pytest.approx(
            chernoff_information(p2, p1), rel=1e-9
        )

    def test_identical_classes_give_zero(self):
        p = GaussianParams(np.zeros(3), np.eye(3))
        assert chernoff_information(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_import_leaves_scipy_optimize_unloaded(self):
        """The bounded search's module loads on the first call, not with the package."""
        src = Path(klproj.__file__).resolve().parents[1]
        probe = "import sys, klproj; print('scipy.optimize' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.strip() == "False"


class TestLogDensity:
    def test_standard_normal_peak(self):
        p = GaussianParams(np.zeros(2), np.eye(2))
        assert log_density(p, np.zeros(2)) == pytest.approx(-math.log(2.0 * math.pi), rel=1e-14)

    def test_batch_shape_and_decay(self):
        p = GaussianParams(np.zeros(2), np.eye(2))
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 4.0]])
        vals = log_density(p, pts)
        assert vals.shape == (3,)
        base = -math.log(2.0 * math.pi)
        np.testing.assert_allclose(vals, [base, base - 0.5, base - 12.5], rtol=1e-13)

    def test_rejects_nonfinite_points(self):
        # the kept factor is trusted; the points are checked
        p = GaussianParams(np.zeros(2), np.eye(2))
        with pytest.raises(NonFiniteInput, match="points"):
            log_density(p, np.array([[0.0, 0.0], [np.nan, 1.0]]))


class TestEstimation:
    def test_recovers_moments_exactly_in_sample(self):
        rng = np.random.default_rng(59)
        x = rng.standard_normal((40, 3))
        data = LabeledDataset(x, np.ones(40, dtype=int))
        est = estimate_params(data, 1)
        np.testing.assert_allclose(est.mean, x.mean(axis=0), atol=1e-12)
        centered = x - x.mean(axis=0)
        np.testing.assert_allclose(est.covariance, centered.T @ centered / 39.0, atol=1e-12)

    def test_single_sample_insufficient(self):
        data = LabeledDataset(np.zeros((1, 2)), np.array([1]))
        with pytest.raises(InsufficientSamples):
            estimate_params(data, 1)

    def test_degenerate_scatter_needs_ridge(self):
        # both samples share the second coordinate, so the scatter is singular
        x = np.array([[0.0, 0.0], [2.0, 0.0]])
        data = LabeledDataset(x, np.array([1, 1]))
        with pytest.raises(NotPositiveDefinite):
            estimate_params(data, 1)
        est = estimate_params(data, 1, ridge=1e-6)
        assert est.covariance[1, 1] > 0.0

    def test_ridge_adds_scaled_identity(self):
        rng = np.random.default_rng(61)
        x = rng.standard_normal((30, 4))
        data = LabeledDataset(x, np.full(30, 2, dtype=int))
        plain = estimate_params(data, 2)
        loaded = estimate_params(data, 2, ridge=0.1)
        scale = 0.1 * np.trace(plain.covariance) / 4.0
        np.testing.assert_allclose(
            loaded.covariance, plain.covariance + scale * np.eye(4), atol=1e-12
        )

    def test_negative_ridge_rejected(self):
        data = LabeledDataset(np.zeros((3, 2)), np.array([1, 1, 1]))
        with pytest.raises(NonPositiveInput):
            estimate_params(data, 1, ridge=-0.5)

    @pytest.mark.parametrize("ridge", [float("nan"), float("inf")])
    def test_non_finite_ridge_rejected(self, ridge):
        data = LabeledDataset(np.zeros((3, 2)), np.array([1, 1, 1]))
        with pytest.raises(NonPositiveInput, match="ridge"):
            estimate_params(data, 1, ridge=ridge)

    def test_unknown_label_rejected(self):
        # an absent label is a zero-sample class
        data = LabeledDataset(np.zeros((3, 2)), np.array([1, 1, 1]))
        with pytest.raises(InsufficientSamples):
            estimate_params(data, 9)

    def test_pooled_covariance_two_balanced_classes(self):
        rng = np.random.default_rng(67)
        x1 = rng.standard_normal((50, 3))
        x2 = rng.standard_normal((50, 3)) * 2.0
        data = LabeledDataset(np.vstack([x1, x2]), np.repeat([1, 2], 50))
        pooled = pooled_covariance(data)
        s1 = np.cov(x1, rowvar=False)
        s2 = np.cov(x2, rowvar=False)
        np.testing.assert_allclose(pooled, (49 * s1 + 49 * s2) / 98.0, atol=1e-12)


class TestLabeledDataset:
    def test_float_labels_cast_when_integral(self):
        data = LabeledDataset(np.zeros((2, 2)), np.array([1.0, 2.0]))
        assert data.labels.dtype == np.int64
        np.testing.assert_array_equal(data.class_labels, [1, 2])

    def test_fractional_labels_rejected(self):
        with pytest.raises(DimensionMismatch):
            LabeledDataset(np.zeros((2, 2)), np.array([1.0, 2.5]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            LabeledDataset(np.zeros((3, 2)), np.array([1, 2]))

    @pytest.mark.parametrize("label", [2.0**53, -2.0**53, 1e300, -np.inf],
                             ids=["2**53", "-2**53", "1e300", "-inf"])
    def test_labels_at_or_beyond_2_53_rejected_before_the_cast(self, label):
        # float64 cannot tell such labels apart; the int64 cast of 1e300 warned and wrapped
        x = np.random.default_rng(951).standard_normal((4, 2))
        with pytest.raises(DimensionMismatch, match=r"below 2\*\*53 in magnitude"):
            LabeledDataset(x, np.array([1.0, 2.0, 1.0, label]))

    def test_labels_below_2_53_kept_exactly(self):
        x = np.random.default_rng(952).standard_normal((3, 2))
        data = LabeledDataset(x, np.array([2.0**53 - 1, -(2.0**53 - 1), 0.0]))
        assert data.labels.tolist() == [2**53 - 1, -(2**53 - 1), 0]
