"""Seeded instance generation: determinism, spectra, channel moments."""

import tracemalloc

import numpy as np
import pytest

from klproj import (
    ChannelSpec,
    GaussianParams,
    SpdSpec,
    embed_channel,
    kld,
    kld_split,
    random_class_params,
    random_spd,
    rng_from_seed,
    sample,
)
from klproj import linalg
from klproj.errors import ChannelRankFailure, DimensionMismatch, NonPositiveInput


class TestRandomSpd:
    def test_deterministic(self):
        spec = SpdSpec(dim=5, eig_min=0.2, eig_max=4.0, seed=17)
        np.testing.assert_array_equal(random_spd(spec), random_spd(spec))

    def test_seed_changes_output(self):
        a = random_spd(SpdSpec(dim=5, eig_min=0.2, eig_max=4.0, seed=17))
        b = random_spd(SpdSpec(dim=5, eig_min=0.2, eig_max=4.0, seed=18))
        assert not np.array_equal(a, b)

    def test_eigenvalues_within_requested_range(self):
        for seed in range(10):
            m = random_spd(SpdSpec(dim=8, eig_min=0.5, eig_max=3.0, seed=seed))
            lam = np.linalg.eigvalsh(m)
            assert lam.min() >= 0.5 * (1.0 - 1e-10)
            assert lam.max() <= 3.0 * (1.0 + 1e-10)

    def test_degenerate_range_gives_scaled_identity(self):
        m = random_spd(SpdSpec(dim=4, eig_min=2.5, eig_max=2.5, seed=3))
        np.testing.assert_array_equal(m, 2.5 * np.eye(4))

    def test_symmetric(self):
        m = random_spd(SpdSpec(dim=6, eig_min=0.1, eig_max=9.0, seed=21))
        np.testing.assert_array_equal(m, m.T)

    def test_spec_validation(self):
        with pytest.raises(DimensionMismatch):
            SpdSpec(dim=0, eig_min=0.1, eig_max=1.0, seed=0)
        with pytest.raises(NonPositiveInput):
            SpdSpec(dim=2, eig_min=0.0, eig_max=1.0, seed=0)
        with pytest.raises(NonPositiveInput):
            SpdSpec(dim=2, eig_min=2.0, eig_max=1.0, seed=0)


class TestRandomClassParams:
    def test_deterministic(self):
        a = random_class_params(4, 0.3, 3.0, 1.5, 29)
        b = random_class_params(4, 0.3, 3.0, 1.5, 29)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.covariance, b.covariance)

    @pytest.mark.parametrize("dim, eig_min, eig_max, error", [
        (0, 0.5, 2.0, DimensionMismatch),
        (3, 0.0, 2.0, NonPositiveInput),
        (3, -1.0, 2.0, NonPositiveInput),
        (3, 5.0, 1.0, NonPositiveInput),
        (3, float("nan"), 2.0, NonPositiveInput),
        (3, 0.5, float("inf"), NonPositiveInput),
    ])
    def test_recipe_checked_as_spd_spec(self, dim, eig_min, eig_max, error):
        with pytest.raises(error):
            random_class_params(dim, eig_min, eig_max, 1.0, 29)

    def test_zero_mean_scale(self):
        p = random_class_params(3, 0.5, 2.0, 0.0, 31)
        np.testing.assert_array_equal(p.mean, np.zeros(3))

    def test_mean_rescaling_scales_d_mu_exactly(self):
        # scaling both means by c multiplies d_mu by c^2, d_sigma unchanged
        p1 = random_class_params(5, 0.2, 5.0, 1.0, 37)
        p2 = random_class_params(5, 0.2, 5.0, 1.0, 38)
        base = kld_split(p1, p2)
        c = 3.0
        q1 = GaussianParams(c * p1.mean, p1.covariance)
        q2 = GaussianParams(c * p2.mean, p2.covariance)
        scaled = kld_split(q1, q2)
        assert scaled.d_mu == pytest.approx(c**2 * base.d_mu, rel=1e-12)
        assert scaled.d_sigma == pytest.approx(base.d_sigma, rel=1e-12)


class TestChannel:
    def test_spec_validation(self):
        with pytest.raises(DimensionMismatch):
            ChannelSpec(t=0, d=5, noise_var=1.0, seed=0)
        with pytest.raises(DimensionMismatch):
            ChannelSpec(t=6, d=5, noise_var=1.0, seed=0)
        for noise_var in (0.0, float("nan"), float("inf")):
            with pytest.raises(NonPositiveInput, match="noise_var"):
                ChannelSpec(t=2, d=5, noise_var=noise_var, seed=0)

    def test_embedded_moments_match_construction(self):
        s1 = random_class_params(3, 0.5, 2.0, 1.0, 41)
        s2 = random_class_params(3, 0.5, 2.0, 1.0, 42)
        chan = ChannelSpec(t=3, d=8, noise_var=0.7, seed=43)
        x1, x2, h = embed_channel(s1, s2, chan)
        assert h.shape == (8, 3)
        np.testing.assert_allclose(x1.mean, h @ s1.mean, rtol=1e-12)
        np.testing.assert_allclose(x2.mean, h @ s2.mean, rtol=1e-12)
        np.testing.assert_allclose(
            x1.covariance, h @ s1.covariance @ h.T + 0.7 * np.eye(8), atol=1e-12
        )
        np.testing.assert_allclose(
            x2.covariance, h @ s2.covariance @ h.T + 0.7 * np.eye(8), atol=1e-12
        )

    def test_covariance_is_the_symmetrized_push(self):
        s1 = random_class_params(5, 0.5, 2.0, 1.0, 44)
        s2 = random_class_params(5, 0.5, 2.0, 1.0, 45)
        x1, x2, h = embed_channel(s1, s2, ChannelSpec(t=5, d=40, noise_var=0.3, seed=46))
        for s, x in ((s1, x1), (s2, x2)):
            cov = h @ s.covariance @ h.T + 0.3 * np.eye(40)
            np.testing.assert_array_equal(x.covariance, (cov + cov.T) / 2.0)

    def test_working_set_is_four_square_arrays(self):
        # the first class's kept covariance, then the second's push, its symmetrized copy
        # and the validation scratch
        d = 300
        s1 = random_class_params(5, 0.5, 2.0, 1.0, 61)
        s2 = random_class_params(5, 0.5, 2.0, 1.0, 62)
        chan = ChannelSpec(t=5, d=d, noise_var=1.0, seed=63)
        tracemalloc.start()
        try:
            embed_channel(s1, s2, chan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (8.0 * d * d) <= 4.5

    def test_embedding_never_creates_divergence(self):
        # observed-space divergence is bounded by the signal-space divergence
        for seed in range(8):
            s1 = random_class_params(4, 0.3, 3.0, 1.0, 5100 + seed)
            s2 = random_class_params(4, 0.3, 3.0, 1.0, 5200 + seed)
            chan = ChannelSpec(t=4, d=12, noise_var=1.0, seed=5300 + seed)
            x1, x2, _ = embed_channel(s1, s2, chan)
            assert kld(x1, x2) <= kld(s1, s2) * (1.0 + 1e-10)

    def test_signal_dimension_must_match_channel(self):
        s = random_class_params(3, 0.5, 2.0, 1.0, 47)
        with pytest.raises(DimensionMismatch):
            embed_channel(s, s, ChannelSpec(t=4, d=10, noise_var=1.0, seed=1))

    def test_rank_deficient_draw_is_refused(self, monkeypatch):
        calls = []

        def deficient(a):
            calls.append(1)
            return np.shape(a)[1] - 1

        monkeypatch.setattr(linalg, "numerical_rank", deficient)
        s1 = random_class_params(2, 0.5, 2.0, 1.0, 51)
        s2 = random_class_params(2, 0.5, 2.0, 1.0, 52)
        with pytest.raises(ChannelRankFailure, match="d=6 x t=2 .* seed 53"):
            embed_channel(s1, s2, ChannelSpec(t=2, d=6, noise_var=1.0, seed=53))
        assert len(calls) == 1

    def test_deterministic(self):
        s1 = random_class_params(2, 0.5, 2.0, 1.0, 51)
        s2 = random_class_params(2, 0.5, 2.0, 1.0, 52)
        chan = ChannelSpec(t=2, d=6, noise_var=1.0, seed=53)
        _, _, h1 = embed_channel(s1, s2, chan)
        _, _, h2 = embed_channel(s1, s2, chan)
        np.testing.assert_array_equal(h1, h2)


class TestSample:
    def test_shape_and_determinism(self):
        p = random_class_params(4, 0.5, 2.0, 1.0, 61)
        x = sample(p, 100, 62)
        assert x.shape == (100, 4)
        np.testing.assert_array_equal(x, sample(p, 100, 62))
        assert not np.array_equal(x, sample(p, 100, 63))

    def test_moments_converge(self):
        p = random_class_params(3, 0.5, 2.0, 1.0, 67)
        x = sample(p, 200000, 68)
        np.testing.assert_allclose(x.mean(axis=0), p.mean, atol=2e-2)
        np.testing.assert_allclose(np.cov(x.T), p.covariance, atol=5e-2)

    def test_rejects_nonpositive_n(self):
        p = random_class_params(2, 0.5, 2.0, 1.0, 71)
        with pytest.raises(NonPositiveInput):
            sample(p, 0, 1)


class TestRngFromSeed:
    def test_streams_are_reproducible_and_distinct(self):
        a = rng_from_seed(5).standard_normal(4)
        b = rng_from_seed(5).standard_normal(4)
        c = rng_from_seed(6).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
