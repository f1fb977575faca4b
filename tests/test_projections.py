"""Closed-form projection constructions: oracles, guards, and invariants."""

import math

import numpy as np
import pytest
import scipy.linalg

from klproj import (
    GaussianParams,
    SpdSpec,
    component_kld,
    equal_mean_order_check,
    fit_auto,
    g_score,
    kld,
    kld_projected,
    kld_split,
    lda_direction,
    lol_projection,
    mean_first_projection,
    multiclass_lda,
    principal_angles,
    random_class_params,
    random_spd,
    regime_recommendation,
    select_regime,
    sweep_r,
    whitened_component_projection,
)
from klproj import gaussian, linalg, projections
from klproj.projections import _ClassPair
from klproj.synth import ChannelSpec, embed_channel, rng_from_seed, sub_seeds
from klproj.errors import (
    DimensionMismatch,
    EqualMeans,
    IdenticalDistributions,
    NotPositiveDefinite,
    RankDeficientMeans,
    UnequalMeans,
)


def iso(mean, var=1.0):
    mean = np.asarray(mean, dtype=float)
    return GaussianParams(mean, var * np.eye(mean.size))


def diag(mean, variances):
    return GaussianParams(np.asarray(mean, dtype=float), np.diag(variances))


class TestLdaDirection:
    def test_oracle_identity_covariance(self):
        # pooled = I, delta = 3 e1: direction e1, retains |delta|^2 / 2
        res = lda_direction(iso([0.0, 0.0, 0.0]), iso([3.0, 0.0, 0.0]))
        np.testing.assert_allclose(np.abs(res.matrix), [[1.0, 0.0, 0.0]], atol=1e-14)
        assert res.achieved_kld == pytest.approx(4.5, rel=1e-12)
        assert res.method == "lda"
        assert res.frame == "original"
        assert res.r == 1

    def test_equal_means_rejected(self):
        p = iso([1.0, 2.0])
        with pytest.raises(EqualMeans):
            lda_direction(p, GaussianParams(p.mean.copy(), 2.0 * np.eye(2)))

    def test_recovers_full_divergence_under_shared_covariance(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            p1 = random_class_params(5, 0.5, 4.0, 1.0, 1000 + trial)
            p2 = GaussianParams(p1.mean + rng.standard_normal(5), p1.covariance)
            res = lda_direction(p1, p2)
            assert res.achieved_kld == pytest.approx(kld(p1, p2), rel=1e-10)

    @pytest.mark.parametrize("d", [3, 20, 100])
    def test_matches_the_pooled_covariance_solve(self, d):
        # reference: the pooled covariance's own Cholesky solve of m2 - m1
        for seed in range(3):
            p1, p2 = (random_class_params(d, 0.3, 5.0, 1.0, 7000 + 10 * d + 2 * seed + k)
                      for k in (0, 1))
            pooled = scipy.linalg.cho_factor((p1.covariance + p2.covariance) / 2.0)
            w = scipy.linalg.cho_solve(pooled, p2.mean - p1.mean)
            w = w / np.linalg.norm(w)
            res = lda_direction(p1, p2)
            np.testing.assert_allclose(res.matrix[0], w, rtol=0, atol=1e-12)
            assert res.achieved_kld == pytest.approx(kld_projected(w[None, :], p1, p2), rel=1e-12)

    def test_indefinite_pooled_covariance_is_not_positive_definite(self):
        # classes built around validation: each keeps the factor of I it cached
        # first, so the pair factors, but its whitened class-2 covariance is indefinite
        p1, p2 = iso([0.0, 0.0]), iso([1.0, 0.0])
        for p in (p1, p2):
            p.factor
            object.__setattr__(p, "covariance", np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefinite, match="whitened class-2 covariance"):
            lda_direction(p1, p2)


class TestMeanFirstProjection:
    def test_equal_covariance_single_row_is_full(self):
        rng = np.random.default_rng(23)
        for trial in range(20):
            p1 = random_class_params(6, 0.3, 5.0, 1.0, 2000 + trial)
            p2 = GaussianParams(p1.mean + rng.standard_normal(6), p1.covariance)
            res = mean_first_projection(p1, p2, 1)
            assert res.achieved_kld == pytest.approx(kld(p1, p2), rel=1e-10)
            assert res.method == "alg1"

    def test_equal_means_degrades_with_warning(self):
        # pencil spectrum {4, 1}: only the lambda = 4 direction scores
        p1 = iso([0.0, 0.0])
        p2 = diag([0.0, 0.0], [4.0, 1.0])
        res = mean_first_projection(p1, p2, 1)
        assert res.warnings
        expect = 0.5 * (math.log(4.0) - 1.0 + 0.25)
        assert res.achieved_kld == pytest.approx(expect, rel=1e-12)
        np.testing.assert_allclose(np.abs(res.matrix), [[1.0, 0.0]], atol=1e-14)
        assert res.component_scores[0] == pytest.approx(expect, rel=1e-12)

    def test_rows_are_orthonormal(self):
        p1 = random_class_params(7, 0.2, 6.0, 1.0, 31)
        p2 = random_class_params(7, 0.2, 6.0, 1.0, 32)
        for r in (1, 3, 7):
            res = mean_first_projection(p1, p2, r)
            np.testing.assert_allclose(
                res.matrix @ res.matrix.T, np.eye(r), atol=1e-12
            )

    def test_r_bounds_enforced(self):
        p1 = random_class_params(3, 0.5, 2.0, 1.0, 41)
        p2 = random_class_params(3, 0.5, 2.0, 1.0, 42)
        for bad in (0, -1, 4):
            with pytest.raises(DimensionMismatch):
                mean_first_projection(p1, p2, bad)


class TestWhitenedComponentProjection:
    def test_equal_covariance_reduces_to_whitened_mean_direction(self):
        p1 = random_class_params(5, 0.4, 3.0, 1.0, 51)
        p2 = GaussianParams(p1.mean + np.array([1.0, -2.0, 0.5, 0.0, 1.5]), p1.covariance)
        res = whitened_component_projection(p1, p2, 1)
        assert res.frame == "whitened-by-class1"
        assert res.achieved_kld == pytest.approx(kld(p1, p2), rel=1e-10)
        # original-frame row must align with Sigma1^-1 delta
        w = np.linalg.solve(p1.covariance, p2.mean - p1.mean)
        ang = principal_angles(res.in_original_frame(), w[None, :] / np.linalg.norm(w))
        assert ang[0] < 1e-10

    def test_equal_covariance_extra_rows_add_nothing(self):
        p1 = random_class_params(4, 0.4, 3.0, 1.0, 61)
        p2 = GaussianParams(p1.mean + np.ones(4), p1.covariance)
        res = whitened_component_projection(p1, p2, 3)
        assert res.achieved_kld == pytest.approx(kld(p1, p2), rel=1e-10)
        assert res.component_scores[1] == 0.0
        assert res.component_scores[2] == 0.0

    def test_identical_classes_rejected(self):
        p = random_class_params(3, 0.5, 2.0, 1.0, 71)
        with pytest.raises(IdenticalDistributions):
            whitened_component_projection(p, p, 1)

    def test_score_sum_matches_projected_divergence(self):
        rng = np.random.default_rng(81)
        for trial in range(20):
            d = int(rng.integers(2, 9))
            p1 = random_class_params(d, 0.2, 8.0, 1.0, 3000 + trial)
            p2 = random_class_params(d, 0.2, 8.0, 1.0, 4000 + trial)
            r = int(rng.integers(1, d + 1))
            res = whitened_component_projection(p1, p2, r)
            direct = kld_projected(res.in_original_frame(), p1, p2)
            assert res.achieved_kld == pytest.approx(direct, rel=1e-9)
            assert res.achieved_kld == pytest.approx(sum(res.component_scores), rel=1e-12)

    def test_full_rank_recovers_everything(self):
        p1 = random_class_params(6, 0.3, 4.0, 1.0, 91)
        p2 = random_class_params(6, 0.3, 4.0, 1.0, 92)
        res = whitened_component_projection(p1, p2, 6)
        assert res.achieved_kld == pytest.approx(kld(p1, p2), rel=1e-10)


class TestProjectedDivergenceBounds:
    def test_monotone_in_rank_and_below_full(self):
        # retained divergence never decreases with r and never exceeds full
        rng = np.random.default_rng(101)
        for trial in range(30):
            d = int(rng.integers(2, 10))
            p1 = random_class_params(d, 0.1, 9.0, 1.0, 5000 + trial)
            p2 = random_class_params(d, 0.1, 9.0, 1.0, 6000 + trial)
            full = kld(p1, p2)
            for fit in (mean_first_projection, whitened_component_projection):
                prev = 0.0
                for r in range(1, d + 1):
                    cur = fit(p1, p2, r).achieved_kld
                    assert cur >= prev - 1e-10
                    assert cur <= full * (1.0 + 1e-8) + 1e-10
                    prev = cur


class TestRegimeRule:
    def test_r1_always_compares(self):
        rec, threshold = regime_recommendation(10.0, 0.001, 1)
        assert rec == "compare_both"
        assert math.isinf(threshold)

    def test_rule_both_sides_and_boundary(self):
        assert regime_recommendation(2.0, 2.0, 3)[0] == "alg1"
        assert regime_recommendation(0.4, 2.0, 3)[0] == "alg2"
        # boundary d_mu == d_sigma / (r - 1) counts as mean-dominant
        rec, threshold = regime_recommendation(1.0, 2.0, 3)
        assert threshold == pytest.approx(1.0)
        assert rec == "alg1"

    def test_select_regime_report_is_consistent(self):
        p1 = random_class_params(5, 0.5, 3.0, 1.0, 111)
        p2 = random_class_params(5, 0.5, 3.0, 1.0, 112)
        report = select_regime(p1, p2, 3)
        assert report.r == 3
        assert report.d_mu + report.d_sigma == pytest.approx(kld(p1, p2), rel=1e-12)
        assert report.recommendation in ("alg1", "alg2")

    def test_invalid_r_rejected(self):
        with pytest.raises(DimensionMismatch):
            regime_recommendation(1.0, 1.0, 0)

    @pytest.mark.parametrize("r", [7, 50])
    def test_select_regime_refuses_r_above_d_as_fit_auto_does(self, r):
        p1 = random_class_params(6, 0.5, 3.0, 1.0, 113)
        p2 = random_class_params(6, 0.5, 3.0, 1.0, 114)
        for fit in (select_regime, fit_auto):
            with pytest.raises(DimensionMismatch, match=f"r={r}"):
                fit(p1, p2, r)


class TestFitAuto:
    def test_rule_mode_follows_recommendation(self):
        rng = np.random.default_rng(121)
        for trial in range(15):
            d = int(rng.integers(3, 8))
            p1 = random_class_params(d, 0.2, 6.0, 1.0, 7000 + trial)
            p2 = random_class_params(d, 0.2, 6.0, 1.0, 8000 + trial)
            r = int(rng.integers(2, d + 1))
            rec = select_regime(p1, p2, r).recommendation
            assert fit_auto(p1, p2, r, mode="rule").method == rec

    def test_compare_mode_takes_the_larger(self):
        rng = np.random.default_rng(131)
        for trial in range(15):
            d = int(rng.integers(2, 8))
            p1 = random_class_params(d, 0.2, 6.0, 1.0, 9000 + trial)
            p2 = random_class_params(d, 0.2, 6.0, 1.0, 10000 + trial)
            r = int(rng.integers(1, d + 1))
            best = fit_auto(p1, p2, r, mode="compare")
            a1 = mean_first_projection(p1, p2, r).achieved_kld
            a2 = whitened_component_projection(p1, p2, r).achieved_kld
            assert best.achieved_kld == pytest.approx(max(a1, a2), rel=1e-12)

    def test_tie_goes_to_mean_first(self):
        # equal covariances: both constructions retain the full divergence at r=1
        p1 = iso([0.0, 0.0, 0.0])
        p2 = iso([2.0, 1.0, 0.0])
        res = fit_auto(p1, p2, 1, mode="compare")
        assert res.method == "alg1"

    @pytest.mark.parametrize("pair", [
        lambda: proportional_pair(), lambda: scaled_copy_pair(2.0),
        lambda: scaled_copy_pair(1 + 1e-4), lambda: scaled_copy_pair(1 + 1e-7),
    ], ids=["proportional", "c=2", "c=1+1e-4", "c=1+1e-7"])
    def test_tie_by_different_computations_goes_to_mean_first(self, pair):
        # S2 = c S1: at r=1 both constructions reach the optimum as two different
        # component sums, a few ulps apart either way
        p1, p2 = pair()
        alg1, alg2 = (fit(p1, p2, 1).achieved_kld
                      for fit in (mean_first_projection, whitened_component_projection))
        assert alg2 == pytest.approx(alg1, rel=1e-13)
        assert fit_auto(p1, p2, 1).method == "alg1"

    def test_bad_mode_rejected(self):
        p1 = iso([0.0, 0.0])
        p2 = iso([1.0, 0.0])
        with pytest.raises(ValueError):
            fit_auto(p1, p2, 1, mode="best")


class TestMulticlassLda:
    def test_oracle_three_classes_identity_covariance(self):
        # means 0, e1, e2 in R^5: span{e1, e2}, every pairwise kld preserved
        params = [
            iso([0.0, 0.0, 0.0, 0.0, 0.0]),
            iso([1.0, 0.0, 0.0, 0.0, 0.0]),
            iso([0.0, 1.0, 0.0, 0.0, 0.0]),
        ]
        res = multiclass_lda(params)
        assert res.r == 2
        axes = np.zeros((2, 5))
        axes[0, 0] = axes[1, 1] = 1.0
        assert np.max(principal_angles(res.matrix, axes)) < 1e-10
        # ordered pairs: 2 * (0.5 + 0.5 + 1.0)
        assert res.achieved_kld == pytest.approx(4.0, rel=1e-12)
        assert res.method == "multiclass_lda"

    def test_collinear_means_warn_and_shrink(self):
        params = [
            iso([0.0, 0.0, 0.0]),
            iso([1.0, 0.0, 0.0]),
            iso([2.0, 0.0, 0.0]),
        ]
        res = multiclass_lda(params, r=2)
        assert res.warnings
        assert res.r == 1

    def test_coinciding_means_rejected(self):
        params = [iso([1.0, 1.0])] * 3
        with pytest.raises(RankDeficientMeans):
            multiclass_lda(params)

    def test_needs_two_classes(self):
        with pytest.raises(DimensionMismatch):
            multiclass_lda([iso([0.0, 0.0])])

    def test_achieved_kld_is_the_pairwise_kld_projected_sum(self):
        """Bitwise, on the 20 instances of checks.multiclass_pairwise_preservation."""
        seeds = sub_seeds(105, 120)
        for i in range(20):
            sigma = random_spd(SpdSpec(dim=30, eig_min=0.1, eig_max=10.0, seed=seeds[6 * i]))
            params = [GaussianParams(rng_from_seed(seeds[6 * i + 1 + k]).standard_normal(30), sigma)
                      for k in range(5)]
            res = multiclass_lda(params)
            pairs = [(pi, pj) for pi in params for pj in params if pi is not pj]
            assert res.achieved_kld == sum(kld_projected(res.matrix, *pair) for pair in pairs)

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("collinear", [False, True])
    def test_scores_and_rows_match_eigh_of_the_pencil(self, k, collinear):
        # the reference forms S_mu and solves (S_mu, S) by LAPACK's generalized eigh
        d, rng = 30, np.random.default_rng(160 + k + 10 * collinear)
        covs = [random_spd(SpdSpec(d, 0.1, 10.0, 170 + 10 * k + i)) for i in range(k)]
        if collinear:
            base, step = rng.standard_normal((2, d))
            means = [base + t * step for t in rng.standard_normal(k)]
        else:
            means = list(rng.standard_normal((k, d)))
        params = [GaussianParams(mu, cov) for mu, cov in zip(means, covs)]
        res = multiclass_lda(params)
        assert res.r == (1 if collinear else k - 1) and bool(res.warnings) == collinear
        centered = np.stack(means) - np.mean(means, axis=0)
        w, v = scipy.linalg.eigh(centered.T @ centered, np.mean(covs, axis=0))
        np.testing.assert_allclose(res.component_scores, w[::-1][: res.r], rtol=1e-10)
        assert principal_angles(res.matrix, v[:, ::-1][:, : res.r].T).max() < 1e-10

    def test_shared_covariance_preserves_every_pair(self):
        rng = np.random.default_rng(141)
        sigma = random_class_params(4, 0.5, 3.0, 1.0, 151).covariance
        params = [GaussianParams(3.0 * rng.standard_normal(4), sigma) for _ in range(4)]
        res = multiclass_lda(params)
        for i, pi in enumerate(params):
            for j, pj in enumerate(params):
                if i == j:
                    continue
                assert kld_projected(res.matrix, pi, pj) == pytest.approx(
                    kld(pi, pj), rel=1e-10
                )


class TestLolProjection:
    def test_first_row_is_mean_difference(self):
        p1 = random_class_params(5, 0.5, 3.0, 1.0, 161)
        p2 = GaussianParams(p1.mean + np.array([2.0, 0.0, 1.0, 0.0, 0.0]), p1.covariance)
        res = lol_projection(p1, p2, 1)
        delta = (p2.mean - p1.mean)[None, :]
        assert principal_angles(res.matrix, delta / np.linalg.norm(delta))[0] < 1e-10
        assert res.method == "lol"

    def test_equal_means_warn(self):
        p1 = iso([1.0, 1.0, 1.0])
        p2 = GaussianParams(p1.mean.copy(), np.diag([3.0, 2.0, 1.0]))
        res = lol_projection(p1, p2, 2)
        assert res.warnings
        assert res.r == 2

    def test_pooled_has_the_bits_of_the_halved_sum(self):
        p1 = random_class_params(6, 0.2, 6.0, 1.0, 171)
        p2 = random_class_params(6, 0.2, 6.0, 1.0, 172)
        w, v = np.linalg.eigh((p1.covariance + p2.covariance) / 2.0)
        order = np.argsort(-w, kind="stable")
        pooled = _ClassPair(p1, p2).pooled
        assert pooled.eigenvalues.tobytes() == w[order].tobytes()
        assert pooled.eigenvectors.tobytes() == v[:, order].tobytes()

    def test_never_beats_divergence_aware_at_full_rank(self):
        p1 = random_class_params(5, 0.2, 6.0, 1.0, 181)
        p2 = random_class_params(5, 0.2, 6.0, 1.0, 182)
        assert lol_projection(p1, p2, 5).achieved_kld == pytest.approx(
            kld(p1, p2), rel=1e-10
        )


class TestEqualMeanOrderCheck:
    def test_one_sided_spectrum_agrees(self):
        # Sigma2 - Sigma1 is PSD, pencil spectrum >= 1: both orders pick e2
        p1 = iso([0.0, 0.0])
        p2 = diag([0.0, 0.0], [2.0, 3.0])
        sub12, sub21, angle = equal_mean_order_check(p1, p2, 1)
        assert angle < 1e-12
        np.testing.assert_allclose(np.abs(sub12), [[0.0, 1.0]], atol=1e-14)
        np.testing.assert_allclose(np.abs(sub21), [[0.0, 1.0]], atol=1e-14)

    def test_straddling_spectrum_disagrees(self):
        # spectrum {4, 0.2} straddles 1: the two orders pick opposite axes
        p1 = iso([0.0, 0.0])
        p2 = diag([0.0, 0.0], [4.0, 0.2])
        _, _, angle = equal_mean_order_check(p1, p2, 1)
        assert angle == pytest.approx(math.pi / 2, abs=1e-10)

    def test_distinct_means_rejected(self):
        with pytest.raises(UnequalMeans):
            equal_mean_order_check(iso([0.0, 0.0]), iso([1.0, 0.0]), 1)

    def test_ordered_pairs_agree_for_psd_shifts(self):
        # full-rank bump keeps the pencil spectrum strictly above 1 so the
        # selected eigendirections are unambiguous at every r
        rng = np.random.default_rng(191)
        for trial in range(20):
            d = int(rng.integers(2, 7))
            base = random_class_params(d, 0.5, 4.0, 0.0, 11000 + trial)
            w = rng.standard_normal((d, d))
            shifted = GaussianParams(base.mean, base.covariance + w @ w.T / 4.0)
            r = int(rng.integers(1, d))
            _, _, angle = equal_mean_order_check(base, shifted, r)
            assert angle < 1e-8


class TestFrameConsistency:
    def test_original_frame_rows_reproduce_achieved(self):
        rng = np.random.default_rng(201)
        for trial in range(20):
            d = int(rng.integers(2, 9))
            p1 = random_class_params(d, 0.2, 7.0, 1.0, 12000 + trial)
            p2 = random_class_params(d, 0.2, 7.0, 1.0, 13000 + trial)
            r = int(rng.integers(1, d + 1))
            for fit in (mean_first_projection, whitened_component_projection):
                res = fit(p1, p2, r)
                a = res.in_original_frame()
                np.testing.assert_allclose(a @ a.T, np.eye(r), atol=1e-10)
                assert kld_projected(a, p1, p2) == pytest.approx(
                    res.achieved_kld, rel=1e-9
                )

    def test_dimension_mismatch_between_classes(self):
        with pytest.raises(DimensionMismatch):
            mean_first_projection(iso([0.0, 0.0]), iso([0.0, 0.0, 0.0]), 1)
        with pytest.raises(DimensionMismatch):
            whitened_component_projection(iso([0.0, 0.0]), iso([0.0, 0.0, 0.0]), 1)


class TestScoreRanking:
    def test_g_score_zero_at_one_and_grows_both_ways(self):
        lam = np.array([0.1, 0.5, 1.0, 2.0, 10.0])
        s = g_score(lam)
        assert s[2] == 0.0
        assert s[1] > s[2] < s[3]
        assert s[0] > s[1] and s[4] > s[3]

    def test_alg1_score_order_is_nonincreasing(self):
        p1 = random_class_params(6, 0.2, 8.0, 0.0, 211)
        p2 = random_class_params(6, 0.2, 8.0, 0.0, 212)
        res = mean_first_projection(p1, p2, 6)
        scores = np.asarray(res.component_scores)
        assert np.all(np.diff(scores) <= 1e-12)

    def test_alg2_scores_nonincreasing(self):
        p1 = random_class_params(6, 0.2, 8.0, 1.0, 221)
        p2 = random_class_params(6, 0.2, 8.0, 1.0, 222)
        res = whitened_component_projection(p1, p2, 6)
        scores = np.asarray(res.component_scores)
        assert np.all(np.diff(scores) <= 1e-12)


def channel_pair(d=40, t=5, seed=301):
    sig1 = random_class_params(t, 0.1, 10.0, 1.0, seed)
    sig2 = random_class_params(t, 0.1, 10.0, 1.0, seed + 1)
    p1, p2, _ = embed_channel(sig1, sig2, ChannelSpec(t=t, d=d, noise_var=1.0, seed=seed + 2))
    return p1, p2


def proportional_pair(d=30, seed=311):
    s1 = random_spd(SpdSpec(d, 0.1, 10.0, seed))
    offset = np.random.default_rng(seed).standard_normal(d)
    return GaussianParams(np.zeros(d), s1), GaussianParams(offset, 2.0 * s1)


def near_identity_pair(d=30, seed=321):
    # whitened class-2 covariance 1.02 I and a small mean offset: the rule
    # says alg2 at r >= 2, where the other two pairs say alg1
    s1 = random_spd(SpdSpec(d, 0.1, 10.0, seed))
    offset = np.random.default_rng(seed).standard_normal(d)
    return GaussianParams(np.zeros(d), s1), GaussianParams(0.002 * offset, 1.02 * s1)


def assert_same_result(a, b):
    assert (a.method, a.frame, a.achieved_kld) == (b.method, b.frame, b.achieved_kld)
    assert (a.component_scores, a.warnings) == (b.component_scores, b.warnings)
    assert np.array_equal(a.matrix, b.matrix)
    assert np.array_equal(a.in_original_frame(), b.in_original_frame())


class TestPairFactoredOnce:
    """fit_auto and sweep_r share one factorization and reproduce the standalone fits."""

    @pytest.mark.parametrize("make_pair", [channel_pair, proportional_pair])
    def test_shared_pair_matches_standalone_exactly(self, make_pair):
        p1, p2 = make_pair()
        for r in (1, 2, 5):
            alg1 = mean_first_projection(p1, p2, r)
            alg2 = whitened_component_projection(p1, p2, r)
            tie = (1.0 + projections._TIE_RTOL) * alg1.achieved_kld
            best = alg2 if alg2.achieved_kld > tie else alg1
            assert_same_result(fit_auto(p1, p2, r, mode="compare"), best)
            rule = select_regime(p1, p2, r).recommendation
            expect = {"alg1": alg1, "alg2": alg2}.get(rule, best)
            assert_same_result(fit_auto(p1, p2, r, mode="rule"), expect)
        table = sweep_r(p1, p2, ["alg1", "alg2", "lol"], range(1, 6))
        standalone = {
            "alg1": mean_first_projection,
            "alg2": whitened_component_projection,
            "lol": lol_projection,
        }
        for method, r, value in table.rows:
            assert value == standalone[method](p1, p2, r).achieved_kld

    def count_full(self, monkeypatch, owner, name, d):
        calls, kernel = [], getattr(owner, name)

        def counted(a, *args, **kwargs):
            if np.shape(a)[-1] == d:
                calls.append(1)
            return kernel(a, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_fit_auto_factors_the_pair_once(self, monkeypatch):
        p1, p2 = channel_pair()
        eighs = self.count_full(monkeypatch, np.linalg, "eigh", p1.dim)
        sytrds = self.count_full(monkeypatch, scipy.linalg.lapack, "dsytrd", p1.dim)
        splits, split = [], gaussian.kld_split

        def counted(q1, q2):
            if q1.dim == p1.dim:
                splits.append(1)
            return split(q1, q2)

        # kld reads kld_split
        monkeypatch.setattr(gaussian, "kld_split", counted)
        for mode in ("rule", "compare"):
            for r in (1, 2):
                sytrds.clear()
                fit_auto(p1, p2, r, mode=mode)
                # the whitened class-2 covariance, the regime split read off its spectrum
                assert len(sytrds) == 1
        assert eighs == []
        assert splits == []

    def record_calls(self, monkeypatch, owner, name):
        calls, kernel = [], getattr(owner, name)

        def recorded(a, *args, **kwargs):
            calls.append((a, kernel(a, *args, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(owner, name, recorded)
        return calls

    def test_fit_job_factors_each_covariance_once(self, monkeypatch):
        # validate two classes from raw arrays, fit_auto, then kld: the pair's
        # one tridiagonal reduction, no eigenvalue-only validation, one kept
        # factor per class, every factorization through linalg.cholesky
        raw = [(p.mean.copy(), p.covariance.copy()) for p in channel_pair()]
        sytrds = self.count_full(monkeypatch, scipy.linalg.lapack, "dsytrd", 40)
        eighs, eigvalshs, np_choleskys = (self.record_calls(monkeypatch, np.linalg, name)
                                          for name in ("eigh", "eigvalsh", "cholesky"))
        choleskys = self.record_calls(monkeypatch, linalg, "cholesky")
        p1, p2 = (GaussianParams(m, c) for m, c in raw)
        fit_auto(p1, p2, 2)
        kld(p1, p2)
        assert len(eigvalshs) == 0
        assert len(sytrds) == 1
        assert sum(np.shape(a) == (40, 40) for a, _ in eighs) == 0
        assert sum(np.shape(a) == (40, 40) for a, _ in np_choleskys) == 0
        kept = [[out for a, out in choleskys if a is p.covariance] for p in (p1, p2)]
        assert [len(outs) for outs in kept] == [1, 1]
        assert all(outs[0] is p.factor for outs, p in zip(kept, (p1, p2)))
        # the other two are the validation certificates, on shifted copies
        assert sum(np.shape(a) == (40, 40) for a, _ in choleskys) == 4

    def test_sweep_factors_the_pair_once(self, monkeypatch):
        p1, p2 = channel_pair()
        eighs = self.count_full(monkeypatch, np.linalg, "eigh", p1.dim)
        sytrds = self.count_full(monkeypatch, scipy.linalg.lapack, "dsytrd", p1.dim)
        sweep_r(p1, p2, ["alg1", "alg2", "lol"], range(1, 6))
        # the pair's one reduction; lol's pooled covariance is the one eigh
        assert len(sytrds) == 1
        assert len(eighs) == 1

    def test_sweep_reads_the_full_divergence_off_the_pair(self):
        p1, p2 = channel_pair()
        table = sweep_r(p1, p2, ["alg1", "alg2"], range(1, 6))
        lol = sweep_r(p1, p2, ["lol"], [1, 2])
        # no kld call, with or without alg1/alg2: class 2's covariance was never factored
        assert "factor" not in vars(p2)
        assert lol.full_kld == table.full_kld == _ClassPair(p1, p2).split.total
        assert table.full_kld == pytest.approx(kld(p1, p2), rel=1e-13)

    @pytest.mark.parametrize("make_pair", [channel_pair, proportional_pair, near_identity_pair])
    def test_split_read_off_the_spectrum(self, make_pair):
        p1, p2 = make_pair()
        split, reference = _ClassPair(p1, p2).split, kld_split(p1, p2)
        assert split.d_mu == pytest.approx(reference.d_mu, rel=1e-12)
        assert split.d_sigma == pytest.approx(reference.d_sigma, rel=1e-12)
        assert split.total == split.d_mu + split.d_sigma
        for r in (2, 3, 5):
            rule = select_regime(p1, p2, r).recommendation
            assert fit_auto(p1, p2, r, mode="rule").method == rule


def boundary_pairs(seed, ulps, d=12):
    """Pairs whose mean scale sits each of ``ulps`` ulps off the r=2 boundary d_mu = d_sigma."""
    s1 = random_spd(SpdSpec(d, 0.2, 5.0, 1000 + seed))
    s2 = random_spd(SpdSpec(d, 0.2, 5.0, 2000 + seed))
    offset = np.random.default_rng(seed).standard_normal(d)
    p1 = GaussianParams(np.zeros(d), s1)
    b = kld_split(p1, GaussianParams(offset, s2))
    scale = math.sqrt(b.d_sigma / b.d_mu)
    return [(p1, GaussianParams(scale * (1 + u * 2.2e-16) * offset, s2)) for u in ulps]


class TestOneSplitDecides:
    def test_select_regime_names_the_fit_auto_choice_at_the_boundary(self):
        disagree = [(seed, ulps) for seed in range(40)
                    for ulps, (p1, p2) in zip(range(-40, 41), boundary_pairs(seed, range(-40, 41)))
                    if select_regime(p1, p2, 2).recommendation != fit_auto(p1, p2, 2).method]
        assert disagree == []

    def test_regime_report_reads_the_spectral_split(self):
        p1, p2 = channel_pair()
        pair = _ClassPair(p1, p2)
        for r in (1, 2, 5):
            report = select_regime(p1, p2, r)
            assert (report.d_mu, report.d_sigma) == (pair.split.d_mu, pair.split.d_sigma)
            assert report == pair.regime(r)


def scaled_proportional_pair(offset_scale=1.0, cov_scale=1.0, d=10, seed=331):
    """S2 = 2 S1; the offset scaled by offset_scale, the pair by x -> sqrt(cov_scale) x."""
    s1 = random_spd(SpdSpec(d, 0.5, 4.0, seed))
    offset = np.random.default_rng(seed).standard_normal(d)
    return (GaussianParams(np.zeros(d), cov_scale * s1),
            GaussianParams(math.sqrt(cov_scale) * offset_scale * offset, 2.0 * cov_scale * s1))


class TestScaleRobustFill:
    """The first row enters the fill at unit length: no scale hides it or the candidates."""

    @pytest.mark.parametrize("offset_scale, cov_scale", [(1e12, 1.0), (1e-12, 1.0), (1.0, 1e30)])
    @pytest.mark.parametrize("fit", [mean_first_projection, lol_projection, fit_auto])
    def test_three_independent_rows(self, fit, offset_scale, cov_scale):
        p1, p2 = scaled_proportional_pair(offset_scale, cov_scale)
        res = fit(p1, p2, 3)
        rows = res.in_original_frame()
        np.testing.assert_allclose(rows @ rows.T, np.eye(3), atol=1e-12)
        assert res.achieved_kld == pytest.approx(kld_projected(rows, p1, p2), rel=1e-10)
        if offset_scale == 1.0:
            # the divergence does not see x -> c x
            reference = fit(*scaled_proportional_pair(), 3)
            assert res.achieved_kld == pytest.approx(reference.achieved_kld, rel=1e-10)


class TestPencilCandidates:
    """alg1 and lol skip the one axis that makes the mean row dependent; alg1 forms only its rows."""

    def test_dependent_top_candidate_is_skipped_as_in_a_full_fill(self):
        # x -> A x of S1 = I, S2 = diag(lam), offset 3 e1: the pencil vectors are
        # A^-T e_i, and S2^-1 (m2 - m1) lies along the top-ranked one, A^-T e1
        rng = np.random.default_rng(341)
        a = rng.standard_normal((6, 6)) + 3.0 * np.eye(6)
        lam = np.array([4.0, 0.5, 2.0, 1.5, 1.2, 0.9])
        p1 = GaussianParams(np.ones(6), a @ a.T)
        p2 = GaussianParams(np.ones(6) + 3.0 * a[:, 0], a @ np.diag(lam) @ a.T)
        pair = _ClassPair(p1, p2)
        scores = g_score(pair.eigenvalues)
        order = projections._ranked(scores, pair.eigenvalues)
        first = np.linalg.solve(p2.covariance, p2.mean - p1.mean)
        top = pair.pencil_vectors(order[0])
        assert linalg.numerical_rank(np.vstack([first / np.linalg.norm(first), top])) == 1
        stack = np.vstack([first, pair.pencil_vectors(order[1:4]).T])
        res = mean_first_projection(p1, p2, 4)
        assert res.component_scores == tuple(scores[order[1:4]])
        assert np.max(principal_angles(res.matrix, stack)) < 1e-10
        assert res.achieved_kld == pytest.approx(kld_projected(stack, p1, p2), rel=1e-12)

    def test_lol_skips_the_eigenvector_along_the_mean_difference(self):
        q = np.linalg.qr(np.random.default_rng(343).standard_normal((6, 6)))[0]
        cov = q @ np.diag([5.0, 4.0, 3.0, 2.0, 1.5, 1.0]) @ q.T
        p1, p2 = GaussianParams(np.zeros(6), cov), GaussianParams(2.0 * q[:, 0], cov)
        res = lol_projection(p1, p2, 3)
        # m2 - m1 stands in for the top pooled eigenvector q1; q2 and q3 fill the rest
        np.testing.assert_allclose(np.abs(res.matrix @ q[:, :4]), np.eye(3, 4), atol=1e-12)
        assert res.achieved_kld == pytest.approx(kld_projected(q[:, :3].T, p1, p2), rel=1e-12)

    def test_unwhitens_only_the_columns_read(self, monkeypatch):
        p1, p2 = channel_pair()
        widths, unwhiten = [], _ClassPair.unwhiten

        def recorded(self, u):
            widths.append(1 if np.ndim(u) == 1 else np.shape(u)[1])
            return unwhiten(self, u)

        monkeypatch.setattr(_ClassPair, "unwhiten", recorded)
        for r in (1, 2, 4):
            widths.clear()
            mean_first_projection(p1, p2, r)
            # the mean row, then the r - 1 pencil vectors kept
            assert widths == [1, r - 1]


def scaled_copy_pair(c, d=20):
    """S2 = c S1 and a generic offset: the whitened spectrum is c, d times over."""
    s1 = random_spd(SpdSpec(d, 0.2, 5.0, 7))
    offset = np.random.default_rng(0).standard_normal(d)
    return GaussianParams(np.zeros(d), s1), GaussianParams(offset, c * s1)


def best_retained(p1, p2, c, r):
    """The rank-r optimum for S2 = c S1: the whitened mean direction, then r - 1 of g(c)."""
    offset = np.linalg.norm(scipy.linalg.solve_triangular(p1.factor, p2.mean - p1.mean, lower=True))
    return float(component_kld(offset, c)) + (r - 1) * float(g_score(c))


CLUSTER_SCALES = [1 + 1e-9, 1 + 1e-8, 1 + 1e-7, 1 + 1e-4, 2.0]


class TestRepeatedEigenvalues:
    """A cluster of repeated whitened eigenvalues carries its mean share on one vector."""

    @pytest.mark.parametrize("c", CLUSTER_SCALES)
    def test_alg2_keeps_the_best_subspace(self, c):
        p1, p2 = scaled_copy_pair(c)
        for r in (1, 2):
            res = whitened_component_projection(p1, p2, r)
            assert res.achieved_kld == pytest.approx(best_retained(p1, p2, c, r), rel=1e-10)
            direct = kld_projected(res.in_original_frame(), p1, p2)
            assert res.achieved_kld == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("c", CLUSTER_SCALES)
    def test_alg1_meets_the_same_bound(self, c):
        p1, p2 = scaled_copy_pair(c)
        for r in (1, 2, 3):
            res = mean_first_projection(p1, p2, r)
            assert res.achieved_kld == pytest.approx(best_retained(p1, p2, c, r), rel=1e-10)

    def test_fit_auto_reaches_the_bound(self):
        p1, p2 = proportional_pair()
        assert fit_auto(p1, p2, 2).achieved_kld == pytest.approx(
            best_retained(p1, p2, 2.0, 2), rel=1e-10)

    def test_planar_axes_carry_the_mean_on_one_axis(self):
        # the pair eval --density-grid draws for a planar alg2 record of S2 = 2 S1
        s1 = np.array([[2.0, 0.6], [0.6, 1.0]])
        q1, q2 = GaussianParams(np.zeros(2), s1), GaussianParams(np.array([0.7, -1.3]), 2.0 * s1)
        _, axes2 = _ClassPair(q1, q2).whitened_axes()
        offset = np.linalg.norm(scipy.linalg.solve_triangular(q1.factor, q2.mean, lower=True))
        assert axes2.mean[0] == pytest.approx(offset, rel=1e-12)
        assert axes2.mean[1] == 0.0
        np.testing.assert_allclose(axes2.covariance, 2.0 * np.eye(2), rtol=1e-12, atol=0.0)

    def test_rotated_basis_still_diagonalizes(self):
        # S1 = A A^T, S2 = A D A^T: the whitened covariance has D's repeated eigenvalues
        rng = np.random.default_rng(351)
        a = rng.standard_normal((8, 8)) + 3.0 * np.eye(8)
        lam = np.array([3.0, 3.0, 3.0, 2.0, 1.0, 1.0, 0.5, 0.5])
        p1 = GaussianParams(np.zeros(8), a @ a.T)
        p2 = GaussianParams(a @ rng.standard_normal(8), a @ np.diag(lam) @ a.T)
        pair = _ClassPair(p1, p2)
        u = pair.columns(slice(None))
        half = scipy.linalg.solve_triangular(p1.factor, p2.covariance, lower=True)
        w = scipy.linalg.solve_triangular(p1.factor, half.T, lower=True)
        np.testing.assert_allclose(u.T @ u, np.eye(8), atol=1e-12)
        np.testing.assert_allclose(w @ u, u * pair.eigenvalues, atol=1e-10)
        np.testing.assert_allclose(pair.eigenvalues, lam, rtol=1e-12)
        assert pair.eigenvalues[4] == pair.eigenvalues[5] == 1.0
        assert np.all(pair.eig_mean[[1, 2, 5, 7]] == 0.0)
        np.testing.assert_allclose(pair.combine(pair.eig_mean), pair.whitened_mean, atol=1e-12)

    def test_large_lambda_max_merges_no_distinct_eigenvalues(self):
        # whitened spectrum (4e9, 2, 0.55, 0.5): 0.55 and 0.5 are distinct, though
        # 1e-10 * lambda_max exceeds their gap; the mean touches both
        p1 = GaussianParams(np.zeros(4), np.diag([1e-9, 1.0, 1.0, 1.0]))
        p2 = GaussianParams(np.array([0.0, 1.0, 1.0, 0.0]), np.diag([4.0, 0.5, 0.55, 2.0]))
        np.testing.assert_allclose(_ClassPair(p1, p2).eigenvalues, [4e9, 2.0, 0.55, 0.5],
                                   rtol=1e-12)
        for r in range(1, 5):
            res = whitened_component_projection(p1, p2, r)
            direct = kld_projected(res.in_original_frame(), p1, p2)
            assert res.achieved_kld == pytest.approx(direct, rel=1e-12)

    def test_clusters_without_mean_share_stay_as_factored(self):
        # the channel pair's noise cluster at lambda = 1 carries only rounding of the mean
        p1, p2 = channel_pair()
        pair = _ClassPair(p1, p2)
        zero = np.zeros(p1.dim)
        plain = _ClassPair(GaussianParams(zero, p1.covariance), GaussianParams(zero, p2.covariance))
        assert np.array_equal(pair.eigenvalues, plain.eigenvalues)
        assert np.array_equal(pair.columns(slice(None)), plain.columns(slice(None)))

    def test_small_whitened_spectrum_merges_no_distinct_eigenvalues(self):
        # whitened spectrum 1e-12 .. 1e-11: the gaps are 0.2 to 0.7 of lambda_i
        p1 = GaussianParams(np.zeros(5), 1e3 * np.eye(5))
        p2 = GaussianParams(np.full(5, 1e-3), np.diag(np.linspace(1e-9, 1e-8, 5)))
        np.testing.assert_allclose(_ClassPair(p1, p2).eigenvalues,
                                   np.linspace(1e-8, 1e-9, 5) / 1e3, rtol=1e-12)


def shifted_means_pair(shift):
    # d=3, covariances 1e-9 I, means 3e-5 e1 apart: a Mahalanobis offset of 0.95
    base = np.full(3, shift)
    return (GaussianParams(base, 1e-9 * np.eye(3)),
            GaussianParams(base + np.array([3e-5, 0.0, 0.0]), 1e-9 * np.eye(3)))


class TestEqualMeansInMahalanobisUnits:
    """Equal means are one fact of the pair: its whitened offset below 1e-12."""

    @pytest.mark.parametrize("shift", [0.0, 1e8])
    def test_distinct_means_far_from_the_origin(self, shift):
        p1, p2 = shifted_means_pair(shift)
        full = kld(p1, p2)
        assert full == pytest.approx(0.45, rel=1e-3)
        for res in (mean_first_projection(p1, p2, 2), lol_projection(p1, p2, 2),
                    lda_direction(p1, p2)):
            assert res.warnings == ()
            assert res.achieved_kld == pytest.approx(full, rel=1e-9)

    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
    def test_decided_on_the_whitened_offset_at_any_unit(self, scale):
        # offsets of 1e-13 and 1e-11 common standard deviations, means 5 deviations out
        for offset, equal in ((1e-13, True), (1e-11, False)):
            p1 = GaussianParams(np.array([5.0, 0.0]) * scale, scale**2 * np.eye(2))
            p2 = GaussianParams(np.array([5.0 + offset, 0.0]) * scale, scale**2 * np.diag([1.0, 4.0]))
            assert _ClassPair(p1, p2).means_equal is equal
            assert bool(mean_first_projection(p1, p2, 1).warnings) is equal
            if equal:
                equal_mean_order_check(p1, p2, 1)
                with pytest.raises(EqualMeans):
                    lda_direction(p1, p2)
            else:
                with pytest.raises(UnequalMeans):
                    equal_mean_order_check(p1, p2, 1)
