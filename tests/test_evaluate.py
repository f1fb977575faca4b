"""Sweeps, preservation ratios, plug-in classification, density grids."""

import math

import numpy as np
import pytest

from klproj import (
    GaussianParams,
    LabeledDataset,
    density_grid,
    kld,
    mean_first_projection,
    multiclass_lda,
    pairwise_preservation,
    plugin_classifier_train,
    random_class_params,
    sample,
    sweep_r,
)
from klproj.errors import DimensionMismatch, InsufficientSamples, NonPositiveInput, NumericalError
from klproj.evaluate import _validate_sweep, sweep_violations


def two_classes(seed, d=5):
    return (
        random_class_params(d, 0.3, 5.0, 1.0, seed),
        random_class_params(d, 0.3, 5.0, 1.0, seed + 1),
    )


class TestSweepR:
    def test_rows_cover_methods_and_ranks(self):
        p1, p2 = two_classes(501)
        table = sweep_r(p1, p2, ["alg1", "alg2", "lol"], [1, 3, 5])
        tags = {(m, r) for m, r, _ in table.rows}
        assert tags == {(m, r) for m in ("alg1", "alg2", "lol") for r in (1, 3, 5)}
        assert table.full_kld == pytest.approx(kld(p1, p2), rel=1e-12)

    def test_lda_only_emitted_at_r_one(self):
        p1, p2 = two_classes(511)
        table = sweep_r(p1, p2, ["lda"], [1, 2, 4])
        assert [(m, r) for m, r, _ in table.rows] == [("lda", 1)]

    def test_refined_rows_tagged(self):
        p1, p2 = two_classes(521, d=4)
        table = sweep_r(p1, p2, ["alg2"], [1, 2], refine=True)
        tags = [m for m, _, _ in table.rows]
        assert tags.count("alg2") == 2
        assert tags.count("alg2_refined") == 2
        by_key = {(m, r): v for m, r, v in table.rows}
        for r in (1, 2):
            assert by_key[("alg2_refined", r)] >= by_key[("alg2", r)] - 1e-9

    def test_every_row_respects_data_processing(self):
        p1, p2 = two_classes(531)
        table = sweep_r(p1, p2, ["alg1", "alg2", "lol"], range(1, 6))
        for _, _, value in table.rows:
            assert value <= table.full_kld + 1e-8

    def test_closed_form_methods_nondecreasing(self):
        p1, p2 = two_classes(541)
        table = sweep_r(p1, p2, ["alg1", "alg2"], range(1, 6))
        for method in ("alg1", "alg2"):
            vals = [v for m, r, v in sorted(table.rows) if m == method]
            assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))

    def test_unknown_method_rejected(self):
        p1, p2 = two_classes(551)
        with pytest.raises(ValueError):
            sweep_r(p1, p2, ["alg3"], [1])

    def test_empty_inputs_rejected(self):
        p1, p2 = two_classes(561)
        with pytest.raises(ValueError):
            sweep_r(p1, p2, [], [1])
        with pytest.raises(ValueError):
            sweep_r(p1, p2, ["alg1"], [])

    def test_violations_gate_emission(self):
        # refined rows answer to data processing only, not to ordering in r
        rows = [("alg1", 2, 0.5), ("alg1", 1, 1.0), ("alg1_refined", 1, 2.0),
                ("alg1_refined", 2, 1.5)]
        excesses, drops = sweep_violations(rows, 1.8)
        assert [size for size, _ in excesses] == pytest.approx([-1.3, -0.8, 0.2, -0.3])
        assert [size for size, _ in drops] == pytest.approx([0.5])
        with pytest.raises(NumericalError, match=r"\(alg1_refined, r=1\) retains"):
            _validate_sweep(rows, 1.8)
        with pytest.raises(NumericalError, match="alg1 decreases from r=1"):
            _validate_sweep(rows, 2.5)
        _validate_sweep(rows[1:3], 2.5)

    def test_metadata_passthrough(self):
        p1, p2 = two_classes(571)
        table = sweep_r(p1, p2, ["alg1"], [1], metadata={"instance": "demo"})
        assert table.metadata == {"instance": "demo"}


class TestPairwisePreservation:
    def test_diagonal_is_one(self):
        params = [random_class_params(4, 0.5, 3.0, 1.0, 600 + i) for i in range(3)]
        a = mean_first_projection(params[0], params[1], 2).matrix
        ratios = pairwise_preservation(params, a)
        np.testing.assert_array_equal(np.diag(ratios), np.ones(3))

    def test_shared_covariance_multiclass_preserves_all(self):
        sigma = random_class_params(5, 0.5, 3.0, 1.0, 611).covariance
        rng = np.random.default_rng(612)
        params = [GaussianParams(2.0 * rng.standard_normal(5), sigma) for _ in range(4)]
        res = multiclass_lda(params)
        ratios = pairwise_preservation(params, res.matrix)
        np.testing.assert_allclose(ratios, np.ones((4, 4)), rtol=1e-8)

    def test_ratios_bounded_by_one(self):
        params = [random_class_params(5, 0.3, 4.0, 1.0, 620 + i) for i in range(3)]
        a = mean_first_projection(params[0], params[1], 2).matrix
        ratios = pairwise_preservation(params, a)
        assert np.all(ratios <= 1.0 + 1e-10)

    def test_identical_classes_use_zero_over_zero_convention(self):
        p = random_class_params(3, 0.5, 2.0, 1.0, 631)
        twin = GaussianParams(p.mean.copy(), p.covariance.copy())
        ratios = pairwise_preservation([p, twin], np.eye(3)[:2])
        np.testing.assert_array_equal(ratios, np.ones((2, 2)))

    def test_needs_two_classes(self):
        with pytest.raises(DimensionMismatch):
            pairwise_preservation([random_class_params(3, 0.5, 2.0, 1.0, 641)], np.eye(3))


class TestPluginClassifier:
    def test_well_separated_classes_classify_cleanly(self):
        p1 = GaussianParams(np.zeros(4), np.eye(4))
        p2 = GaussianParams(np.array([50.0, 0.0, 0.0, 0.0]), np.eye(4))
        x1, x2 = sample(p1, 300, 701), sample(p2, 300, 702)
        train = LabeledDataset(
            np.vstack([x1, x2]), np.repeat([1, 2], 300)
        )
        a = mean_first_projection(p1, p2, 1).matrix
        clf = plugin_classifier_train(train, a)
        x1t, x2t = sample(p1, 200, 703), sample(p2, 200, 704)
        test = LabeledDataset(np.vstack([x1t, x2t]), np.repeat([1, 2], 200))
        assert clf.score(test) > 0.99

    def test_identical_classes_stay_near_chance(self):
        p = GaussianParams(np.zeros(3), np.eye(3))
        train = LabeledDataset(
            np.vstack([sample(p, 2000, 711), sample(p, 2000, 712)]),
            np.repeat([0, 1], 2000),
        )
        test = LabeledDataset(
            np.vstack([sample(p, 2000, 713), sample(p, 2000, 714)]),
            np.repeat([0, 1], 2000),
        )
        clf = plugin_classifier_train(train, np.eye(3)[:2])
        assert clf.score(test) == pytest.approx(0.5, abs=0.02)

    def test_small_classes_rejected(self):
        # each class must have more than r + 1 samples
        x = np.random.default_rng(721).standard_normal((6, 4))
        train = LabeledDataset(x, np.repeat([0, 1], 3))
        with pytest.raises(InsufficientSamples):
            plugin_classifier_train(train, np.eye(4)[:2])

    def test_predict_checks_dimension(self):
        p1 = GaussianParams(np.zeros(3), np.eye(3))
        p2 = GaussianParams(np.ones(3) * 4.0, np.eye(3))
        train = LabeledDataset(
            np.vstack([sample(p1, 50, 731), sample(p2, 50, 732)]),
            np.repeat([0, 1], 50),
        )
        clf = plugin_classifier_train(train, np.eye(3)[:1])
        with pytest.raises(DimensionMismatch):
            clf.predict(np.zeros((2, 5)))

    def test_priors_reflect_imbalance(self):
        p1 = GaussianParams(np.zeros(2), np.eye(2))
        p2 = GaussianParams(np.ones(2), np.eye(2))
        train = LabeledDataset(
            np.vstack([sample(p1, 300, 741), sample(p2, 100, 742)]),
            np.repeat([0, 1], [300, 100]),
        )
        clf = plugin_classifier_train(train, np.eye(2))
        np.testing.assert_allclose(clf.priors, [0.75, 0.25])


class TestDensityGrid:
    def test_peak_location_and_value(self):
        # projected class 1 is N(mean, cov); peak = 1 / (2 pi sqrt(det cov))
        p1 = GaussianParams(np.array([1.0, -2.0, 0.0]), np.diag([2.0, 0.5, 1.0]))
        p2 = GaussianParams(np.array([3.0, 1.0, 0.0]), np.diag([1.0, 1.0, 1.0]))
        a = np.eye(3)[:2]
        grid = density_grid(a, p1, p2, resolution=301)
        expect_peak = 1.0 / (2.0 * math.pi * math.sqrt(2.0 * 0.5))
        assert grid.peak_class1 == pytest.approx(expect_peak, rel=1e-12)
        i, j = np.unravel_index(np.argmax(grid.values_class1), grid.values_class1.shape)
        assert grid.x_axis[i] == pytest.approx(1.0, abs=0.1)
        assert grid.y_axis[j] == pytest.approx(-2.0, abs=0.1)
        assert grid.values_class1[i, j] <= expect_peak * (1.0 + 1e-12)

    def test_grid_integrates_to_one(self):
        p1 = GaussianParams(np.zeros(2), np.diag([1.0, 2.0]))
        p2 = GaussianParams(np.array([1.0, 1.0]), np.eye(2))
        grid = density_grid(np.eye(2), p1, p2, bounds=((-8.0, 8.0), (-10.0, 10.0)),
                            resolution=400)
        for values in (grid.values_class1, grid.values_class2):
            mass = np.trapezoid(np.trapezoid(values, grid.y_axis, axis=1), grid.x_axis)
            assert mass == pytest.approx(1.0, abs=1e-3)

    def test_orientation_is_x_by_y(self):
        # values[i, j] belongs to (x_axis[i], y_axis[j]); a class far along +x
        # must peak at large i, not large j
        p1 = GaussianParams(np.array([5.0, 0.0]), np.eye(2))
        p2 = GaussianParams(np.array([-5.0, 0.0]), np.eye(2))
        grid = density_grid(np.eye(2), p1, p2, resolution=101)
        i, j = np.unravel_index(np.argmax(grid.values_class1), grid.values_class1.shape)
        assert grid.x_axis[i] == pytest.approx(5.0, abs=0.2)
        assert grid.y_axis[j] == pytest.approx(0.0, abs=0.2)

    def test_contour_levels_are_fractions_of_peaks(self):
        p1 = GaussianParams(np.zeros(2), np.eye(2))
        p2 = GaussianParams(np.ones(2), 2.0 * np.eye(2))
        grid = density_grid(np.eye(2), p1, p2, contour_level_fraction=1e-2)
        lv1, lv2 = grid.contour_levels()
        assert lv1 == pytest.approx(1e-2 * grid.peak_class1, rel=1e-12)
        assert lv2 == pytest.approx(1e-2 * grid.peak_class2, rel=1e-12)

    def test_default_bounds_cover_four_sigma(self):
        p1 = GaussianParams(np.array([0.0, 0.0]), np.diag([4.0, 1.0]))
        p2 = GaussianParams(np.array([10.0, 0.0]), np.eye(2))
        grid = density_grid(np.eye(2), p1, p2)
        assert grid.x_axis[0] == pytest.approx(0.0 - 4.0 * 2.0)
        assert grid.x_axis[-1] == pytest.approx(10.0 + 4.0)

    def test_requires_two_rows(self):
        p1, p2 = two_classes(751, d=4)
        with pytest.raises(DimensionMismatch):
            density_grid(np.eye(4)[:3], p1, p2)

    def test_parameter_validation(self):
        p1, p2 = two_classes(761, d=2)
        with pytest.raises(NonPositiveInput):
            density_grid(np.eye(2), p1, p2, resolution=1)
        with pytest.raises(NonPositiveInput):
            density_grid(np.eye(2), p1, p2, contour_level_fraction=1.5)
        with pytest.raises(DimensionMismatch):
            density_grid(np.eye(2), p1, p2, bounds=((1.0, -1.0), (0.0, 1.0)))
