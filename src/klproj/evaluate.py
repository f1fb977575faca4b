"""Evaluation utilities: sweeps, preservation ratios, classification, densities.

These close the loop on a fitted projection: how much divergence each method
retains as r grows, how faithfully a multiclass reduction preserves every
pairwise divergence, how well a Gaussian plug-in classifier does in the
reduced space, and what the projected class densities look like on a grid.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InsufficientSamples, NonPositiveInput, NumericalError
from .gaussian import (
    GaussianParams,
    LabeledDataset,
    _check_projection,
    estimate_params,
    kld,
    kld_projected,
    log_density,
    project_params,
)
from .linalg import sym_eig
from .projections import _ClassPair, _lol, _mean_first, _whitened_component, lda_direction
from .refine import AscentOptions, gradient_ascent

# Divergences below this are treated as zero when forming preservation
# ratios (the 0/0 convention).
_ZERO_KLD = 1e-12

# Slack allowed on the data-processing bound before a sweep is rejected.
_DPI_SLACK = 1e-8

_METHOD_TAGS = ("alg1", "alg2", "lda", "lol")

# Largest density grid resolution per axis: the grid holds 2 * resolution**2
# density values, and the CLI writes each one as a CSV row.
MAX_RESOLUTION = 1000


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
    metadata: dict = field(default_factory=dict)


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
        if size > _DPI_SLACK:
            raise NumericalError(what)


def sweep_r(
    p1: GaussianParams,
    p2: GaussianParams,
    methods,
    r_values,
    refine: bool = False,
    options: AscentOptions | None = None,
    metadata: dict | None = None,
) -> SweepTable:
    """Fit each method at each r and tabulate the retained divergence.

    methods is any subset of {"alg1", "alg2", "lda", "lol"}; "lda" yields a
    single direction and is only emitted at r = 1.  With refine=True each
    closed-form result seeds a gradient ascent run whose retained divergence
    is added under the tag "<method>_refined".  The class pair is factored
    once and serves every r, as does lol's pooled eigendecomposition.  The
    table is validated before it is returned.
    """
    methods = sorted(set(methods))
    for m in methods:
        if m not in _METHOD_TAGS:
            raise ValueError(f"unknown method tag {m!r}; expected one of {_METHOD_TAGS}")
    r_values = sorted({int(r) for r in r_values})
    if not r_values or not methods:
        raise ValueError("need at least one method and one r value")

    full = kld(p1, p2)
    pair = _ClassPair(p1, p2) if {"alg1", "alg2"} & set(methods) else None
    pooled = sym_eig((p1.covariance + p2.covariance) / 2.0) if "lol" in methods else None
    fitters = {
        "alg1": lambda r: _mean_first(pair, r),
        "alg2": lambda r: _whitened_component(pair, r),
        "lol": lambda r: _lol(p1, p2, r, pooled),
        "lda": lambda r: lda_direction(p1, p2),
    }
    rows = []
    for method in methods:
        for r in r_values:
            if method == "lda" and r != 1:
                continue
            result = fitters[method](r)
            rows.append((method, r, float(result.achieved_kld)))
            if refine:
                trace = gradient_ascent(result.in_original_frame(), p1, p2, options)
                refined = kld_projected(trace.final_matrix, p1, p2)
                rows.append((f"{method}_refined", r, float(refined)))
    _validate_sweep(rows, full)
    return SweepTable(rows=rows, full_kld=full, metadata=dict(metadata or {}))


def pairwise_preservation(params: list[GaussianParams], a) -> np.ndarray:
    """K x K matrix of projected-to-full divergence ratios.

    Entry (i, j) is kld_projected(a, p_i, p_j) / kld(p_i, p_j); the diagonal
    (and any pair with vanishing full divergence) uses the 0/0 := 1
    convention.  Data processing keeps every entry at or below 1 up to
    roundoff.
    """
    k = len(params)
    if k < 2:
        raise DimensionMismatch(f"need at least 2 classes, got {k}")
    a = _check_projection(np.asarray(a, dtype=float), params[0].dim)
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
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.projection.shape[1]:
            raise DimensionMismatch(
                f"samples have dimension {x.shape[1]}, classifier expects "
                f"{self.projection.shape[1]}"
            )
        z = x @ self.projection.T
        scores = np.column_stack(
            [log_density(p, z) + np.log(prior) for p, prior in zip(self.class_params, self.priors)]
        )
        return self.labels[np.argmax(scores, axis=1)]

    def score(self, data: LabeledDataset) -> float:
        """Classification accuracy on a labeled dataset."""
        return float(np.mean(self.predict(data.samples) == data.labels))


def plugin_classifier_train(train: LabeledDataset, a, ridge: float = 0.0) -> PluginClassifier:
    """Fit per-class Gaussians and empirical priors in the projected space.

    Each class needs more than r + 1 samples so its projected covariance has
    a chance of being nonsingular; a ridge > 0 is forwarded to the per-class
    covariance estimates.
    """
    a = _check_projection(np.asarray(a, dtype=float), train.dim)
    r = a.shape[0]
    labels = train.class_labels
    counts = np.array([np.count_nonzero(train.labels == lab) for lab in labels])
    for lab, count in zip(labels, counts):
        if count <= r + 1:
            raise InsufficientSamples(
                f"class {lab} has {count} samples; need more than {r + 1}"
            )
    projected = LabeledDataset(train.samples @ a.T, train.labels)
    class_params = tuple(estimate_params(projected, int(lab), ridge) for lab in labels)
    return PluginClassifier(a, labels, class_params, counts / counts.sum())


# ---------------------------------------------------------------------------
# projected density grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityGrid:
    """Both projected class densities evaluated on a shared 2-D grid.

    values_class{1,2}[i, j] is the density at (x_axis[i], y_axis[j]).
    ``peak_class{1,2}`` are the analytic maxima 1 / (2 pi sqrt(det)); contour
    levels at contour_level_fraction of each peak trace the usual
    one-per-thousand outline of each class.
    """

    x_axis: np.ndarray
    y_axis: np.ndarray
    values_class1: np.ndarray
    values_class2: np.ndarray
    contour_level_fraction: float
    peak_class1: float
    peak_class2: float

    def contour_levels(self) -> tuple[float, float]:
        return (self.contour_level_fraction * self.peak_class1,
                self.contour_level_fraction * self.peak_class2)


def density_grid(
    a,
    p1: GaussianParams,
    p2: GaussianParams,
    bounds: tuple | None = None,
    resolution: int = 200,
    contour_level_fraction: float = 1e-3,
) -> DensityGrid:
    """Evaluate both projected class densities on a shared 2-D grid.

    ``a`` must have exactly two rows.  Default bounds cover each axis from
    the smallest projected mean minus four projected standard deviations to
    the largest plus four; pass ((x_lo, x_hi), (y_lo, y_hi)) to override.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[0] != 2:
        raise DimensionMismatch(f"density grids need a 2-row projection, got {a.shape[0]} rows")
    if int(resolution) < 2:
        raise NonPositiveInput(f"resolution must be >= 2, got {resolution}")
    if int(resolution) > MAX_RESOLUTION:
        raise DimensionMismatch(f"resolution must be <= {MAX_RESOLUTION}, got {resolution}")
    if not 0.0 < contour_level_fraction < 1.0:
        raise NonPositiveInput(
            f"contour_level_fraction must be in (0, 1), got {contour_level_fraction}"
        )
    resolution = int(resolution)
    q1 = project_params(_check_projection(a, p1.dim), p1)
    q2 = project_params(a, p2)

    if bounds is None:
        half = [4.0 * np.sqrt(np.diag(q.covariance)) for q in (q1, q2)]
        bounds = tuple(zip(np.minimum(q1.mean - half[0], q2.mean - half[1]),
                           np.maximum(q1.mean + half[0], q2.mean + half[1])))
    (x_lo, x_hi), (y_lo, y_hi) = bounds
    if not (x_lo < x_hi and y_lo < y_hi):
        raise DimensionMismatch(f"bounds must be increasing, got {bounds}")

    x_axis = np.linspace(x_lo, x_hi, resolution)
    y_axis = np.linspace(y_lo, y_hi, resolution)
    xx, yy = np.meshgrid(x_axis, y_axis, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    values1 = np.exp(log_density(q1, pts)).reshape(resolution, resolution)
    values2 = np.exp(log_density(q2, pts)).reshape(resolution, resolution)
    return DensityGrid(x_axis, y_axis, values1, values2, float(contour_level_fraction),
                       float(np.exp(log_density(q1, q1.mean))),
                       float(np.exp(log_density(q2, q2.mean))))
