"""Gradient correctness and ascent behavior for projection refinement."""

import dataclasses

import numpy as np
import pytest

from klproj import (
    AscentOptions,
    DimensionMismatch,
    GaussianParams,
    NonPositiveInput,
    finite_difference_gradient,
    gradient_ascent,
    kld,
    kld_gradient,
    kld_projected,
    mean_first_projection,
    random_class_params,
    random_initial_matrix,
    whitened_component_projection,
)
from klproj import linalg, refine
from klproj.projections import _ClassPair


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(301)
        for trial in range(25):
            d = int(rng.integers(2, 8))
            r = int(rng.integers(1, min(d, 4) + 1))
            p1 = random_class_params(d, 0.3, 5.0, 1.0, 20000 + trial)
            p2 = random_class_params(d, 0.3, 5.0, 1.0, 21000 + trial)
            a = random_initial_matrix(r, d, 22000 + trial)
            g = kld_gradient(a, p1, p2)
            fd = finite_difference_gradient(a, p1, p2)
            err = np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(fd)))
            assert err < 1e-5

    def test_row_space_invariance_kills_orbit_directions(self):
        # f(T A) = f(A) for invertible T, so A grad^T must vanish
        rng = np.random.default_rng(311)
        for trial in range(20):
            d = int(rng.integers(2, 8))
            r = int(rng.integers(1, d + 1))
            p1 = random_class_params(d, 0.3, 5.0, 1.0, 23000 + trial)
            p2 = random_class_params(d, 0.3, 5.0, 1.0, 24000 + trial)
            a = random_initial_matrix(r, d, 25000 + trial)
            g = kld_gradient(a, p1, p2)
            scale = max(1.0, np.max(np.abs(g)))
            assert np.max(np.abs(a @ g.T)) < 1e-8 * scale

    def test_orbit_directional_derivative_is_zero(self):
        d, r = 6, 3
        p1 = random_class_params(d, 0.3, 5.0, 1.0, 331)
        p2 = random_class_params(d, 0.3, 5.0, 1.0, 332)
        a = random_initial_matrix(r, d, 333)
        g = kld_gradient(a, p1, p2)
        m = np.random.default_rng(334).standard_normal((r, r))
        derivative = float(np.sum(g * (m @ a)))
        assert abs(derivative) < 1e-10 * max(1.0, np.max(np.abs(g)))

    def test_gradient_scale_invariance_consistency(self):
        # row-space invariance again, via explicit rescaling of one row
        p1 = random_class_params(4, 0.5, 3.0, 1.0, 341)
        p2 = random_class_params(4, 0.5, 3.0, 1.0, 342)
        a = random_initial_matrix(2, 4, 343)
        scaled = a.copy()
        scaled[0] *= 7.0
        assert kld_projected(scaled, p1, p2) == pytest.approx(
            kld_projected(a, p1, p2), rel=1e-12
        )


class TestAscent:
    def test_three_dimensional_start_rejected(self):
        p1 = random_class_params(3, 0.3, 4.0, 1.0, 391)
        p2 = random_class_params(3, 0.3, 4.0, 1.0, 392)
        with pytest.raises(DimensionMismatch):
            gradient_ascent(np.ones((1, 1, 3)), p1, p2)

    def test_best_iterate_is_recorded_maximum(self):
        p1 = random_class_params(5, 0.3, 4.0, 1.0, 401)
        p2 = random_class_params(5, 0.3, 4.0, 1.0, 402)
        a0 = random_initial_matrix(2, 5, 403)
        trace = gradient_ascent(a0, p1, p2, AscentOptions(max_iters=300))
        values = [f for _, f in trace.iterates]
        best = max(values)
        # the recorded final matrix is the best iterate seen
        assert values[0] <= best
        # the start's objective, read in the pair's frame
        assert trace.iterates[0][0] == 0
        assert trace.iterates[0][1] == pytest.approx(kld_projected(a0, p1, p2), rel=1e-12)
        assert trace.iterations_run >= 1
        # re-evaluation agrees with the recorded best up to last-bit noise
        assert kld_projected(trace.final_matrix, p1, p2) == pytest.approx(
            best, rel=1e-9
        )

    def test_never_loses_ground_from_closed_form_start(self):
        rng = np.random.default_rng(411)
        for trial in range(10):
            d = int(rng.integers(3, 7))
            r = int(rng.integers(1, d))
            p1 = random_class_params(d, 0.3, 5.0, 1.0, 26000 + trial)
            p2 = random_class_params(d, 0.3, 5.0, 1.0, 27000 + trial)
            start = whitened_component_projection(p1, p2, r).in_original_frame()
            trace = gradient_ascent(start, p1, p2, AscentOptions(max_iters=200))
            values = [f for _, f in trace.iterates]
            assert max(values) >= values[0]

    def test_dpi_respected_from_random_start(self):
        rng = np.random.default_rng(421)
        for trial in range(10):
            d = int(rng.integers(2, 6))
            r = int(rng.integers(1, d + 1))
            p1 = random_class_params(d, 0.3, 5.0, 1.0, 28000 + trial)
            p2 = random_class_params(d, 0.3, 5.0, 1.0, 29000 + trial)
            full = kld(p1, p2)
            a0 = random_initial_matrix(r, d, 30000 + trial)
            trace = gradient_ascent(a0, p1, p2, AscentOptions(max_iters=400))
            values = [f for _, f in trace.iterates]
            assert max(values) <= full * (1.0 + 1e-8) + 1e-10

    def test_random_start_converges_to_global_optimum_equal_covariance(self):
        # with equal covariances the r=1 optimum is the full divergence
        p1 = random_class_params(4, 0.5, 3.0, 1.0, 431)
        p2 = GaussianParams(p1.mean + np.array([1.5, -0.5, 1.0, 0.0]), p1.covariance)
        full = kld(p1, p2)
        for seed in range(5):
            trace = gradient_ascent(
                random_initial_matrix(1, 4, 440 + seed),
                p1,
                p2,
                AscentOptions(max_iters=3000),
            )
            best = max(f for _, f in trace.iterates)
            assert best == pytest.approx(full, rel=1e-4)

    def test_certifies_full_rank_start(self):
        # at r = d the objective is constant at the full divergence
        p1 = random_class_params(4, 0.4, 4.0, 1.0, 451)
        p2 = random_class_params(4, 0.4, 4.0, 1.0, 452)
        start = mean_first_projection(p1, p2, 4).matrix
        trace = gradient_ascent(start, p1, p2, AscentOptions(max_iters=300))
        values = [f for _, f in trace.iterates]
        assert max(values) - values[0] <= 1e-9 * max(1.0, values[0])
        assert trace.converged
        assert trace.reason == "converged"

    def test_plateau_convergence_flags(self):
        p1 = random_class_params(3, 0.5, 3.0, 1.0, 461)
        p2 = random_class_params(3, 0.5, 3.0, 1.0, 462)
        trace = gradient_ascent(
            random_initial_matrix(1, 3, 463), p1, p2, AscentOptions(max_iters=5000)
        )
        assert trace.converged
        assert trace.reason == "converged"
        assert trace.iterations_run < 5000

    def test_max_iters_reason_when_budget_too_small(self):
        p1 = random_class_params(5, 0.2, 8.0, 1.0, 471)
        p2 = random_class_params(5, 0.2, 8.0, 1.0, 472)
        trace = gradient_ascent(
            random_initial_matrix(2, 5, 473), p1, p2, AscentOptions(max_iters=5)
        )
        assert not trace.converged
        assert trace.reason == "max_iters"
        assert trace.iterations_run == 5

    def test_iterates_pair_iteration_with_objective(self):
        p1 = random_class_params(3, 0.5, 2.0, 1.0, 481)
        p2 = random_class_params(3, 0.5, 2.0, 1.0, 482)
        trace = gradient_ascent(
            random_initial_matrix(1, 3, 483), p1, p2, AscentOptions(max_iters=60)
        )
        its = [t for t, _ in trace.iterates]
        assert its == list(range(len(its)))

    def test_iterates_never_decrease(self):
        rng = np.random.default_rng(491)
        for trial in range(10):
            d = int(rng.integers(2, 9))
            r = int(rng.integers(1, d + 1))
            p1 = random_class_params(d, 0.2, 6.0, 1.0, 31000 + trial)
            p2 = random_class_params(d, 0.2, 6.0, 1.0, 32000 + trial)
            trace = gradient_ascent(random_initial_matrix(r, d, 33000 + trial), p1, p2)
            values = [f for _, f in trace.iterates]
            assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("patience", [0, -3])
    def test_options_refuse_patience_below_one(self, patience):
        with pytest.raises(NonPositiveInput, match="patience"):
            AscentOptions(patience=patience)

    def test_same_run_in_a_moved_frame(self):
        # x -> T x + s with T's singular values from 1e-2 to 1e2: the pair's frame,
        # and so the run, is the same; the start A becomes A T^-1
        d, r = 12, 3
        p1 = random_class_params(d, 0.2, 5.0, 1.0, 901)
        p2 = random_class_params(d, 0.2, 5.0, 1.0, 902)
        rng = np.random.default_rng(903)
        q1, q2 = (np.linalg.qr(rng.standard_normal((d, d)))[0] for _ in range(2))
        t, shift = (q1 * np.logspace(-2, 2, d)) @ q2.T, rng.standard_normal(d)
        moved = [GaussianParams(t @ p.mean + shift, t @ p.covariance @ t.T) for p in (p1, p2)]
        a = mean_first_projection(p1, p2, r).in_original_frame()
        here = gradient_ascent(a, p1, p2)
        there = gradient_ascent(a @ np.linalg.inv(t), *moved)
        assert here.reason == there.reason == "converged"
        assert here.iterations_run == there.iterations_run
        assert here.iterates[-1][1] == pytest.approx(there.iterates[-1][1], rel=1e-9)
        assert here.iterates[-1][1] > here.iterates[0][1] + 1e-3


class TestPairFrame:
    """The ascent's objective and gradient in the pair's frame N(0, I) vs N(m, diag(lambda))."""

    @staticmethod
    def frame_cases(seed):
        rng = np.random.default_rng(seed)
        for trial in range(10):
            d = int(rng.integers(2, 9))
            r = int(rng.integers(1, d + 1))
            p1 = random_class_params(d, 0.2, 6.0, 1.0, seed * 100 + trial)
            p2 = random_class_params(d, 0.2, 6.0, 1.0, seed * 100 + 50 + trial)
            yield p1, p2, _ClassPair(p1, p2), np.linalg.qr(rng.standard_normal((d, r)))[0].T, rng

    def test_objective_is_the_retained_divergence(self):
        for p1, p2, pair, w, _ in self.frame_cases(601):
            f = refine._frame_point(w, pair.eigenvalues, pair.eig_mean)[0]
            rows = pair.unwhiten(pair.combine(w.T)).T
            assert f == pytest.approx(kld_projected(rows, p1, p2), rel=1e-12)

    def test_gradient_matches_central_differences(self):
        # g is tangent, and <g, xi> is f's derivative along any tangent xi
        h = 1e-6
        for _, _, pair, w, rng in self.frame_cases(611):
            lam, m = pair.eigenvalues, pair.eig_mean
            f, g, step = refine._frame_point(w, lam, m)
            assert np.max(np.abs(g @ w.T)) <= 1e-12 * max(1.0, np.max(np.abs(g)))
            for _ in range(3):
                xi = rng.standard_normal(w.shape)
                xi -= (xi @ w.T) @ w
                fd = (refine._frame_point(w + h * xi, lam, m)[0]
                      - refine._frame_point(w - h * xi, lam, m)[0]) / (2.0 * h)
                assert np.sum(g * xi) == pytest.approx(fd, rel=1e-6, abs=1e-8 * max(1.0, f))
            # the scaled step is tangent and ascends (at r = d, g and step are rounding)
            assert np.max(np.abs(step @ w.T)) <= 1e-12 * max(1.0, np.max(np.abs(step)))
            assert np.sum(g * step) >= -1e-15 * max(1.0, f)


class TestGradientCarriedBack:
    """kld_gradient is _frame_point's gradient carried to the original frame."""

    @pytest.mark.parametrize("k", [2, 4, 6, 8])
    def test_vanishes_at_full_rank(self, k):
        # at r = d every row space is the whole space: nothing to gain, for any cond(A) = 10^k
        for s in range(10):
            rng = np.random.default_rng(s)
            q1, q2 = (np.linalg.qr(rng.standard_normal((20, 20)))[0] for _ in range(2))
            a = (q1 * np.logspace(0, k, 20)) @ q2.T
            p1 = random_class_params(20, 0.2, 5.0, 1.0, 100 + s)
            p2 = random_class_params(20, 0.2, 5.0, 1.0, 200 + s)
            g = kld_gradient(a, p1, p2)
            assert np.max(np.abs(g)) <= 1e-12 * max(1.0, kld(p1, p2))

    def test_vanishes_where_the_ascent_converges(self):
        for s in range(6):
            d, r = 8 + 3 * s, (1, 2, 3, 5)[s % 4]
            p1 = random_class_params(d, 0.2, 5.0, 1.0, 300 + s)
            p2 = random_class_params(d, 0.2, 5.0, 1.0, 400 + s)
            a0 = random_initial_matrix(r, d, 500 + s)
            trace = gradient_ascent(a0, p1, p2)
            assert trace.converged
            f = trace.iterates[-1][1]
            assert np.max(np.abs(kld_gradient(a0, p1, p2))) > 1.0
            assert np.max(np.abs(kld_gradient(trace.final_matrix, p1, p2))) <= 1e-5 * max(1.0, f)


class TestRefineFit:
    def test_tags_the_original_frame_rows_and_keeps_warnings(self):
        p1 = random_class_params(6, 0.3, 5.0, 1.0, 451)
        p2 = random_class_params(6, 0.3, 5.0, 1.0, 452)
        start = dataclasses.replace(whitened_component_projection(p1, p2, 2), warnings=("w",))
        refined, trace = refine.refine_fit(_ClassPair(p1, p2), start, AscentOptions(max_iters=100))
        assert (refined.method, refined.frame, refined.warnings) == ("alg2_refined", "original", ("w",))
        assert refined.matrix_original is None and refined.component_scores is None
        # the best iterate, orthonormalized, with the ascent's own value there
        assert refined.achieved_kld > start.achieved_kld
        np.testing.assert_array_equal(refined.matrix, linalg.orthonormalize_rows(trace.final_matrix))
        assert refined.achieved_kld == trace.iterates[-1][1]
        assert refined.achieved_kld == pytest.approx(kld_projected(refined.matrix, p1, p2), rel=1e-12)


class TestAscentWork:
    def test_each_point_is_projected_and_factored_once(self, monkeypatch):
        # a point is one QR of diag(sqrt(lambda)) W^T and one r x r eigh: no projected
        # classes, no r x r Cholesky; the pair is tridiagonalized once per run
        d, r = 20, 3
        p1 = random_class_params(d, 0.3, 5.0, 1.0, 521)
        p2 = random_class_params(d, 0.3, 5.0, 1.0, 522)
        a0 = random_initial_matrix(r, d, 523)
        counts = {"params": 0, "cholesky": 0, "dsytrd": 0}
        post_init, cholesky, dsytrd = GaussianParams.__post_init__, linalg.cholesky, linalg.lapack.dsytrd

        def counted_params(self):
            counts["params"] += 1
            post_init(self)

        def counted_cholesky(m, *args, **kwargs):
            counts["cholesky"] += m.shape == (r, r)
            return cholesky(m, *args, **kwargs)

        def counted_dsytrd(*args, **kwargs):
            counts["dsytrd"] += 1
            return dsytrd(*args, **kwargs)

        monkeypatch.setattr(GaussianParams, "__post_init__", counted_params)
        monkeypatch.setattr(linalg, "cholesky", counted_cholesky)
        monkeypatch.setattr(linalg.lapack, "dsytrd", counted_dsytrd)
        trace = gradient_ascent(a0, p1, p2, AscentOptions(max_iters=30, patience=31))
        assert trace.iterations_run >= 5
        assert counts == {"params": 0, "cholesky": 0, "dsytrd": 1}
        pair = _ClassPair(p1, p2)
        start = mean_first_projection(p1, p2, r)
        counts.update(params=0, cholesky=0, dsytrd=0)
        refine.refine_fit(pair, start, AscentOptions(max_iters=30, patience=31))
        # the value is the ascent's own: no projected classes, no r x r Cholesky
        assert counts == {"params": 0, "cholesky": 0, "dsytrd": 0}


class TestRandomInitialMatrix:
    def test_deterministic_and_unit_rows(self):
        a = random_initial_matrix(3, 6, 99)
        b = random_initial_matrix(3, 6, 99)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, rtol=1e-12)
        assert random_initial_matrix(3, 6, 100)[0, 0] != a[0, 0]
