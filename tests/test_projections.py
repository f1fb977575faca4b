"""Closed-form projection constructions: oracles, guards, and invariants."""

import math

import numpy as np
import pytest

from klproj import (
    GaussianParams,
    SpdSpec,
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
from klproj import gaussian, projections
from klproj.projections import _ClassPair
from klproj.synth import ChannelSpec, embed_channel
from klproj.errors import (
    DimensionMismatch,
    EqualMeans,
    IdenticalDistributions,
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

    def test_explicit_pooled_covariance_changes_rows(self):
        p1 = random_class_params(4, 0.5, 3.0, 1.0, 171)
        p2 = random_class_params(4, 0.5, 3.0, 1.0, 172)
        default = lol_projection(p1, p2, 3)
        override = lol_projection(p1, p2, 3, pooled_cov=np.diag([1.0, 2.0, 3.0, 4.0]))
        assert np.max(principal_angles(default.matrix, override.matrix)) > 1e-6

    def test_equal_means_warn(self):
        p1 = iso([1.0, 1.0, 1.0])
        p2 = GaussianParams(p1.mean.copy(), np.diag([3.0, 2.0, 1.0]))
        res = lol_projection(p1, p2, 2)
        assert res.warnings
        assert res.r == 2

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
            best = alg1 if alg1.achieved_kld >= alg2.achieved_kld else alg2
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

    def count_full_eighs(self, monkeypatch, d):
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            if np.shape(a)[-1] == d:
                calls.append(1)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    def test_fit_auto_factors_the_pair_once(self, monkeypatch):
        p1, p2 = channel_pair()
        calls = self.count_full_eighs(monkeypatch, p1.dim)
        splits = []
        for module in (gaussian, projections):
            monkeypatch.setattr(module, "kld_split", lambda *args: splits.append(args))
        for mode in ("rule", "compare"):
            for r in (1, 2):
                calls.clear()
                fit_auto(p1, p2, r, mode=mode)
                # the whitened class-2 covariance, the regime split read off it
                assert len(calls) == 1
        assert splits == []

    def record_args(self, monkeypatch, name):
        args_seen, kernel = [], getattr(np.linalg, name)

        def recorded(a, *args, **kwargs):
            args_seen.append(a)
            return kernel(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
        return args_seen

    def test_fit_job_factors_each_covariance_once(self, monkeypatch):
        # validate two classes from raw arrays, fit_auto, then kld: the pair's
        # one eigh, no eigenvalue-only validation, one kept factor per class
        raw = [(p.mean.copy(), p.covariance.copy()) for p in channel_pair()]
        eigh_args = self.record_args(monkeypatch, "eigh")
        eigvalsh_args = self.record_args(monkeypatch, "eigvalsh")
        cholesky_args = self.record_args(monkeypatch, "cholesky")
        p1, p2 = (GaussianParams(m, c) for m, c in raw)
        fit_auto(p1, p2, 2)
        kld(p1, p2)
        assert len(eigvalsh_args) == 0
        assert sum(np.shape(a) == (40, 40) for a in eigh_args) == 1
        assert [sum(a is p.covariance for a in cholesky_args) for p in (p1, p2)] == [1, 1]
        # the other two are the validation certificates, on shifted copies
        assert sum(np.shape(a) == (40, 40) for a in cholesky_args) == 4

    def test_sweep_factors_the_pair_once(self, monkeypatch):
        p1, p2 = channel_pair()
        calls = self.count_full_eighs(monkeypatch, p1.dim)
        sweep_r(p1, p2, ["alg1", "alg2", "lol"], range(1, 6))
        # the pair's one, plus lol's pooled covariance
        assert len(calls) == 2

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
