"""Gradient correctness and ascent behavior for projection refinement."""

import dataclasses

import numpy as np
import pytest

from klproj import (
    AscentOptions,
    GaussianParams,
    NotPositiveDefinite,
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


def toward_the_floor(variance):
    """Classes, a start whose class-1 projected variance is ``variance``, and a learning rate.

    The classes are N(0, I) and N(e1, 2 I) in d = 20.  Ascent turns the start
    c (0.1, -1, ..., -1) toward e1, so its first Adam step is about
    lr (1, ..., 1); with lr = -(a0 . 1) / d that full step lowers the
    projected variance a a^T to 6% of the start's, and half of it to 29%.
    Below unit scale the SPD floor is absolute: a variance <= 1e-10 is refused.
    """
    d = 20
    u = np.full((1, d), -1.0)
    u[0, 0] = 0.1
    a0 = u * np.sqrt(variance / np.sum(u * u))
    p1 = GaussianParams(np.zeros(d), np.eye(d))
    p2 = GaussianParams(np.eye(d)[0], 2.0 * np.eye(d))
    return p1, p2, a0, -float(a0.sum()) / d


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
    def test_best_iterate_is_recorded_maximum(self):
        p1 = random_class_params(5, 0.3, 4.0, 1.0, 401)
        p2 = random_class_params(5, 0.3, 4.0, 1.0, 402)
        a0 = random_initial_matrix(2, 5, 403)
        trace = gradient_ascent(a0, p1, p2, AscentOptions(max_iters=300))
        values = [f for _, f in trace.iterates]
        best = max(values)
        # the recorded final matrix is the best iterate seen
        assert values[0] <= best
        assert trace.iterates[0] == (0, kld_projected(a0, p1, p2))
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
        assert trace.reason == "plateau"

    def test_plateau_convergence_flags(self):
        p1 = random_class_params(3, 0.5, 3.0, 1.0, 461)
        p2 = random_class_params(3, 0.5, 3.0, 1.0, 462)
        trace = gradient_ascent(
            random_initial_matrix(1, 3, 463), p1, p2, AscentOptions(max_iters=5000)
        )
        assert trace.converged
        assert trace.reason == "plateau"
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

    def test_refused_step_is_halved(self):
        p1, p2, a0, lr = toward_the_floor(1.5e-9)
        with pytest.raises(NotPositiveDefinite):
            kld_projected(a0 + lr, p1, p2)  # the full first step, up to Adam's eps
        trace = gradient_ascent(a0, p1, p2, AscentOptions(learning_rate=lr, max_iters=1))
        half = gradient_ascent(a0, p1, p2, AscentOptions(learning_rate=lr / 2, max_iters=1))
        assert trace.iterations_run == 1
        assert trace.reason == "max_iters"
        assert trace.iterates == half.iterates

    def test_singular_boundary_when_no_halving_is_admissible(self):
        # a start just above the floor: every halving of a step toward it falls below
        p1, p2, a0, lr = toward_the_floor(1e-10 * (1.0 + 1e-8))
        trace = gradient_ascent(a0, p1, p2, AscentOptions(learning_rate=lr, max_iters=5))
        assert trace.reason == "singular_boundary"
        assert not trace.converged
        assert trace.iterations_run == 1
        assert trace.iterates == [(0, kld_projected(a0, p1, p2))]
        np.testing.assert_array_equal(trace.final_matrix, a0)

    def test_rank_deficient_point_fails_the_spd_floor(self):
        # candidates get no rank check of their own: rows at a singular-value
        # ratio below RANK_RTOL put A S A^T under the SPD floor, even at cond(S) = 1e9
        d = 6
        ill = GaussianParams(np.zeros(d), np.diag(np.logspace(0, 9, d)))
        other = random_class_params(d, 0.3, 5.0, 1.0, 511)
        u, v = random_initial_matrix(2, d, 512)
        for p1, p2 in ((ill, other), (other, ill)):
            for a in (np.vstack([u, u]), np.vstack([u, u + 1e-11 * v])):
                assert linalg.numerical_rank(a) == 1
                with pytest.raises(NotPositiveDefinite):
                    refine._value_and_gradient(a, p1, p2)


class TestRefineFit:
    def test_tags_the_original_frame_rows_and_keeps_warnings(self):
        p1 = random_class_params(6, 0.3, 5.0, 1.0, 451)
        p2 = random_class_params(6, 0.3, 5.0, 1.0, 452)
        start = dataclasses.replace(whitened_component_projection(p1, p2, 2), warnings=("w",))
        refined, trace = refine.refine_fit(start, p1, p2, AscentOptions(max_iters=100))
        assert (refined.method, refined.frame, refined.warnings) == ("alg2_refined", "original", ("w",))
        assert refined.matrix_original is None and refined.component_scores is None
        # the best iterate, orthonormalized, re-evaluated
        assert refined.achieved_kld > start.achieved_kld
        np.testing.assert_array_equal(refined.matrix, linalg.orthonormalize_rows(trace.final_matrix))
        assert refined.achieved_kld == kld_projected(refined.matrix, p1, p2)


class TestAscentWork:
    def test_each_point_is_projected_and_factored_once(self, monkeypatch):
        d, r = 20, 3
        p1 = random_class_params(d, 0.3, 5.0, 1.0, 521)
        p2 = random_class_params(d, 0.3, 5.0, 1.0, 522)
        a0 = random_initial_matrix(r, d, 523)
        ranks, factors = [], []
        rank, cholesky = linalg.numerical_rank, linalg.cholesky

        def counted_rank(a, *args):
            ranks.append(1)
            return rank(a, *args)

        def counted_cholesky(m, *args, **kwargs):
            if m.shape == (r, r):
                factors.append(1)
            return cholesky(m, *args, **kwargs)

        monkeypatch.setattr(linalg, "numerical_rank", counted_rank)
        monkeypatch.setattr(linalg, "cholesky", counted_cholesky)
        trace = gradient_ascent(a0, p1, p2, AscentOptions(max_iters=30, patience=31))
        assert trace.iterations_run == 30
        # a0's rank, once; per point, both projected classes' certificates and kept factors
        assert len(ranks) == 1
        assert len(factors) == 4 * len(trace.iterates) == 124


class TestRandomInitialMatrix:
    def test_deterministic_and_unit_rows(self):
        a = random_initial_matrix(3, 6, 99)
        b = random_initial_matrix(3, 6, 99)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, rtol=1e-12)
        assert random_initial_matrix(3, 6, 100)[0, 0] != a[0, 0]
