"""Evaluation utilities: sweeps, preservation ratios, classification, densities.

These close the loop on a fitted projection: how much divergence each method
retains as r grows, how faithfully a multiclass reduction preserves every
pairwise divergence, how well a Gaussian plug-in classifier does in the
reduced space, and what the projected class densities look like on a grid.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InsufficientSamples, NonPositiveInput, NumericalError
from .gaussian import (
    GaussianParams,
    LabeledDataset,
    _check_classes,
    estimate_params,
    kld,
    log_density,
    project_params,
)
from .linalg import _as_points, check_rows
from .projections import FITS, _ClassPair
from .refine import AscentOptions, refine_fit

# Divergences below this are treated as zero when forming preservation
# ratios (the 0/0 convention).
_ZERO_KLD = 1e-12

# Slack, relative to max(1, full divergence), allowed on a sweep's
# data-processing and ordering bounds before it is rejected.
_DPI_SLACK = 1e-8

# Largest density grid resolution per axis: the grid holds 2 * resolution**2
# density values, and the CLI writes each one as a CSV row.
MAX_RESOLUTION = 1000

# A density grid's contour levels, as a fraction of each class's peak: the
# usual one-per-thousand outline.
CONTOUR_LEVEL_FRACTION = 1e-3


@dataclass(frozen=True)
class SweepTable:
    """Retained divergence per (method, r).

    rows are (method tag, r, retained divergence) tuples; refined rows carry
    the tag "<method>_refined".  Emission is gated: every row must respect
    the data-processing bound against full_kld, and the closed-form
    constructions must be nondecreasing in r (their subspaces are nested).
    Refined rows are only bound by data processing, since independent ascent
    runs at different r need not be ordered.
    """

    rows: list
    full_kld: float


def sweep_violations(rows: list, full_kld: float) -> tuple[list, list]:
    """(excesses, drops) of a sweep's rows, each as (size, description).

    excesses holds every row's divergence minus full_kld; drops every
    decrease from one r to the next of a closed-form method (refined rows
    are exempt).  A guarantee holds where its size is at most zero.
    """
    excesses, drops, by_method = [], [], {}
    for method, r, value in rows:
        excesses.append((value - full_kld,
                         f"sweep row ({method}, r={r}) retains {value:.6e} > full {full_kld:.6e}"))
        if not method.endswith("_refined"):
            by_method.setdefault(method, []).append((r, value))
    for method, pairs in by_method.items():
        pairs.sort()
        drops += [(v_lo - v_hi, f"sweep for {method} decreases from r={r_lo} ({v_lo:.6e}) "
                                f"to r={r_hi} ({v_hi:.6e})")
                  for (r_lo, v_lo), (r_hi, v_hi) in zip(pairs, pairs[1:])]
    return excesses, drops


def _validate_sweep(rows: list, full_kld: float) -> None:
    excesses, drops = sweep_violations(rows, full_kld)
    for size, what in excesses + drops:
        if size > _DPI_SLACK * max(1.0, full_kld):
            raise NumericalError(what)


def sweep_r(
    p1: GaussianParams,
    p2: GaussianParams,
    methods,
    r_values,
    refine: bool = False,
    options: AscentOptions | None = None,
) -> SweepTable:
    """Fit each method at each r and tabulate the retained divergence.

    methods is any subset of the tags of ``projections.FITS`` ("alg1", "alg2",
    "lda", "lol"); "lda" yields a single direction and is only emitted at
    r = 1.  With refine=True each closed-form result is refined by
    ``refine_fit``, and its retained divergence (never below the start's) is
    added under the tag "<method>_refined".  The class pair is factored once,
    whatever the methods: every fit, every refinement and full_kld, its split
    total, read that one pair.  The table is validated before it is returned.
    """
    methods = sorted(set(methods))
    for m in methods:
        if m not in FITS:
            raise ValueError(f"unknown method tag {m!r}; expected one of {tuple(FITS)}")
    r_values = sorted({int(r) for r in r_values})
    if not r_values or not methods:
        raise ValueError("need at least one method and one r value")

    pair = _ClassPair(p1, p2)
    full = pair.split.total
    rows = []
    for method in methods:
        for r in r_values:
            if method == "lda" and r != 1:
                continue
            result = FITS[method](pair, r)
            rows.append((method, r, float(result.achieved_kld)))
            if refine:
                refined, _ = refine_fit(pair, result, options)
                rows.append((f"{method}_refined", r, float(refined.achieved_kld)))
    _validate_sweep(rows, full)
    return SweepTable(rows=rows, full_kld=full)


def pairwise_preservation(params: list[GaussianParams], a) -> np.ndarray:
    """K x K matrix of projected-to-full divergence ratios.

    Entry (i, j) is kld_projected(a, p_i, p_j) / kld(p_i, p_j); the diagonal
    (and any pair with vanishing full divergence) uses the 0/0 := 1
    convention.  Data processing keeps every entry at or below 1 up to
    roundoff.  The classes (at least 2, of one dimension) and the rows
    (linalg.check_rows) are checked once, and each class is projected once.
    """
    k = len(params)
    a = check_rows(a, _check_classes(*params))
    projected = [project_params(a, p) for p in params]
    ratios = np.ones((k, k))
    for i, j in itertools.permutations(range(k), 2):
        full = kld(params[i], params[j])
        ratios[i, j] = 1.0 if full < _ZERO_KLD else kld(projected[i], projected[j]) / full
    return ratios


# ---------------------------------------------------------------------------
# Gaussian plug-in classification in the reduced space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PluginClassifier:
    """Quadratic decision rule from per-class Gaussians fit in the reduced space."""

    projection: np.ndarray
    labels: np.ndarray
    class_params: tuple
    priors: np.ndarray

    def predict(self, x) -> np.ndarray:
        """Most probable class label for each row of x (original space)."""
        x = _as_points(np.atleast_2d(x), self.projection.shape[1])
        with np.errstate(over="ignore", invalid="ignore"):  # log_density refuses what overflows
            z = x @ self.projection.T
        scores = np.column_stack(
            [log_density(p, z) + np.log(prior) for p, prior in zip(self.class_params, self.priors)]
        )
        return self.labels[np.argmax(scores, axis=1)]

    def score(self, data: LabeledDataset) -> float:
        """Classification accuracy on a labeled dataset."""
        return float(np.mean(self.predict(data.samples) == data.labels))


def plugin_classifier_train(train: LabeledDataset, a) -> PluginClassifier:
    """Fit per-class Gaussians and empirical priors in the projected space.

    Each class needs more than r + 1 samples so its projected covariance has
    a chance of being nonsingular.
    """
    a = check_rows(a, train.dim)
    r = a.shape[0]
    labels = train.class_labels
    counts = np.array([np.count_nonzero(train.labels == lab) for lab in labels])
    for lab, count in zip(labels, counts):
        if count <= r + 1:
            raise InsufficientSamples(
                f"class {lab} has {count} samples; need more than {r + 1}"
            )
    projected = LabeledDataset(train.samples @ a.T, train.labels)
    class_params = tuple(estimate_params(projected, int(lab)) for lab in labels)
    return PluginClassifier(a, labels, class_params, counts / counts.sum())


# ---------------------------------------------------------------------------
# projected density grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityGrid:
    """Both projected class densities evaluated on a shared 2-D grid.

    values_class{1,2}[i, j] is the density at (x_axis[i], y_axis[j]).
    ``peak_class{1,2}`` are the analytic maxima 1 / (2 pi sqrt(det)); the
    contour levels are CONTOUR_LEVEL_FRACTION of each peak.
    """

    x_axis: np.ndarray
    y_axis: np.ndarray
    values_class1: np.ndarray
    values_class2: np.ndarray
    peak_class1: float
    peak_class2: float

    def contour_levels(self) -> tuple[float, float]:
        return CONTOUR_LEVEL_FRACTION * self.peak_class1, CONTOUR_LEVEL_FRACTION * self.peak_class2


def density_grid(
    a,
    p1: GaussianParams,
    p2: GaussianParams,
    resolution: int = 200,
) -> DensityGrid:
    """Evaluate both projected class densities on a shared 2-D grid.

    ``a`` must have exactly two rows.  Each axis runs from the smallest
    projected mean minus four projected standard deviations to the largest
    plus four.
    """
    a = check_rows(a, _check_classes(p1, p2))
    if a.shape[0] != 2:
        raise DimensionMismatch(f"density grids need a 2-row projection, got {a.shape[0]} rows")
    if int(resolution) < 2:
        raise NonPositiveInput(f"resolution must be >= 2, got {resolution}")
    if int(resolution) > MAX_RESOLUTION:
        raise DimensionMismatch(f"resolution must be <= {MAX_RESOLUTION}, got {resolution}")
    resolution = int(resolution)
    q1 = project_params(a, p1)
    q2 = project_params(a, p2)

    half = [4.0 * np.sqrt(np.diag(q.covariance)) for q in (q1, q2)]
    lo = np.minimum(q1.mean - half[0], q2.mean - half[1])
    hi = np.maximum(q1.mean + half[0], q2.mean + half[1])
    x_axis = np.linspace(lo[0], hi[0], resolution)
    y_axis = np.linspace(lo[1], hi[1], resolution)
    xx, yy = np.meshgrid(x_axis, y_axis, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    values1 = np.exp(log_density(q1, pts)).reshape(resolution, resolution)
    values2 = np.exp(log_density(q2, pts)).reshape(resolution, resolution)
    return DensityGrid(x_axis, y_axis, values1, values2,
                       float(np.exp(log_density(q1, q1.mean))),
                       float(np.exp(log_density(q2, q2.mean))))
