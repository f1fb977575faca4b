"""Closed-form discriminative linear projections for Gaussian classes.

Two complementary constructions reduce d dimensions to r while retaining as
much Kullback-Leibler divergence between two Gaussian classes as possible:

* ``mean_first_projection`` (reported under the method tag ``alg1``) spends
  its first row on the Fisher-style discriminant direction S2^-1 (m2 - m1)
  and fills the rest with generalized eigenvectors of the covariance pencil
  (S2, S1) ranked by their variance-ratio score.  Best when the mean
  separation dominates.

* ``whitened_component_projection`` (method tag ``alg2``) whitens by class 1,
  eigendecomposes the whitened class-2 covariance, and keeps the r
  directions with the largest one-dimensional divergences.  The retained
  divergence is exactly the sum of the selected per-direction scores, and
  with r = d the sum recovers the full divergence.  Best when covariance
  differences dominate.

A simple ratio of the mean and covariance parts of the divergence
(``select_regime``) decides which construction to trust at a given r, and
``fit_auto`` acts on that rule.  Baselines (``lda_direction``,
``lol_projection``), the multiclass reduction ``multiclass_lda``, and the
divergence-order diagnostic ``equal_mean_order_check`` round out the module.
"""

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from . import linalg
from .errors import (
    DimensionMismatch,
    EqualMeans,
    IdenticalDistributions,
    NumericalError,
    RankDeficientMeans,
    UnequalMeans,
)
from .gaussian import (
    GaussianParams,
    KldBreakdown,
    _check_same_dim,
    _cholesky,
    component_kld,
    g_score,
    kld_projected,
    kld_split,
)

# Class means closer than MEANS_RTOL * max(1, |m1|, |m2|) count as equal for
# the constructions that treat the mean direction specially.
MEANS_RTOL = 1e-12

# Looser equality used by the order-invariance diagnostic, which only makes
# sense when the means genuinely coincide.
EQUAL_MEANS_CHECK_RTOL = 1e-10

FRAME_ORIGINAL = "original"
FRAME_WHITENED = "whitened-by-class1"


@dataclass(frozen=True)
class ProjectionResult:
    """A fitted r x d projection and its bookkeeping.

    ``matrix`` rows are the projection directions expressed in ``frame``;
    for the whitened frame, ``matrix_original`` carries the equivalent
    original-frame rows (orthonormalized).  ``achieved_kld`` is the
    divergence retained by the projection, and ``component_scores`` the
    per-direction scores a construction ranked by, when it has any.
    """

    matrix: np.ndarray
    frame: str
    method: str
    achieved_kld: float
    component_scores: tuple | None = None
    matrix_original: np.ndarray | None = None
    warnings: tuple = ()

    @property
    def r(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def in_original_frame(self) -> np.ndarray:
        """Projection rows expressed in the original coordinates."""
        if self.frame == FRAME_ORIGINAL:
            return self.matrix
        return self.matrix_original


@dataclass(frozen=True)
class RegimeReport:
    """Mean/covariance divergence split and the construction it favors.

    ``recommendation`` is "alg1" when d_mu >= d_sigma / (r - 1), "alg2" when
    it falls short, and "compare_both" at r = 1 where the rule is
    uninformative (threshold +inf).
    """

    d_mu: float
    d_sigma: float
    r: int
    threshold: float
    recommendation: str


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _check_r(r: int, d: int) -> int:
    r = int(r)
    if not 1 <= r <= d:
        raise DimensionMismatch(f"target dimension r={r} must satisfy 1 <= r <= {d}")
    return r


def _means_equal(p1: GaussianParams, p2: GaussianParams, rtol: float = MEANS_RTOL) -> bool:
    scale = max(1.0, np.linalg.norm(p1.mean), np.linalg.norm(p2.mean))
    return np.linalg.norm(p2.mean - p1.mean) <= rtol * scale


def _ranked(scores: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Indices sorted by score descending; ties prefer larger |lam - 1|, then lower index."""
    idx = np.arange(lam.size)
    return np.lexsort((idx, -np.abs(lam - 1.0), -scores))


def _greedy_fill(rows: list[np.ndarray], candidates: np.ndarray, order: np.ndarray,
                 scores: np.ndarray, r: int) -> tuple[list[np.ndarray], list[float]]:
    """Append candidate columns (in ranked order) keeping the stack full rank."""
    picked_scores: list[float] = []
    for j in order:
        if len(rows) == r:
            break
        trial = np.vstack(rows + [candidates[:, j]]) if rows else candidates[:, j][None, :]
        if linalg.numerical_rank(trial) == len(rows) + 1:
            rows.append(candidates[:, j])
            picked_scores.append(float(scores[j]))
    if len(rows) < r:
        raise NumericalError(f"could not assemble {r} independent projection rows")
    return rows, picked_scores


def _basis_with_first_row(v: np.ndarray) -> np.ndarray:
    """Orthogonal d x d matrix whose first row is the unit vector v (Householder)."""
    d = v.shape[0]
    u = v - np.eye(d)[0]
    nu = np.linalg.norm(u)
    if nu < 1e-12:
        return np.eye(d)
    return np.eye(d) - 2.0 * np.outer(u, u) / nu**2


class _ClassPair(linalg.WhitenedPencil):
    """A class pair factored once: the pencil (S2, S1) whitened by S1 = L L^T.

    L is class 1's cached ``factor``, which kld reads too.  x -> L^-1 (x - m1)
    maps the pair to N(0, I) vs N(``whitened_mean``, L^-1 S2 L^-T).  alg1,
    alg2 and the regime rule (``split``) all read the one eigendecomposition
    U, lambda of L^-1 S2 L^-T (``eig``).  A pair lives only as long as the
    call that built it.
    """

    def __init__(self, p1: GaussianParams, p2: GaussianParams):
        _check_same_dim(p1, p2)
        super().__init__(p2.covariance, p1.covariance, p1.factor)
        self.p1, self.p2 = p1, p2
        self.whitened_mean = solve_triangular(self.factor, p2.mean - p1.mean, lower=True)

    @property
    def eig_mean(self) -> np.ndarray:
        """m = U^T whitened_mean: the mean offset along each whitened eigendirection."""
        return self.eig.eigenvectors.T @ self.whitened_mean

    @property
    def split(self) -> KldBreakdown:
        """kld_split off the spectrum: d_mu = sum m_i^2 / (2 lambda_i), d_sigma = sum g(lambda_i)."""
        lam = self.eig.eigenvalues
        d_mu = 0.5 * float(np.sum(self.eig_mean**2 / lam))
        d_sigma = max(0.0, float(np.sum(g_score(lam))))  # terms >= 0 up to rounding
        return KldBreakdown(total=d_mu + d_sigma, d_mu=d_mu, d_sigma=d_sigma)

    def whitened_axes(self) -> tuple[GaussianParams, GaussianParams]:
        """The pair along U, axes in alg2's order: N(0, I) vs N(m, diag(lambda))."""
        lam, m = self.eig.eigenvalues, self.eig_mean
        order = _ranked(component_kld(m, lam), lam)
        return (GaussianParams(np.zeros(lam.size), np.eye(lam.size)),
                GaussianParams(m[order], np.diag(lam[order])))


# ---------------------------------------------------------------------------
# two-class constructions
# ---------------------------------------------------------------------------


def lda_direction(p1: GaussianParams, p2: GaussianParams) -> ProjectionResult:
    """Fisher discriminant row: ((S1 + S2)/2)^-1 (m2 - m1), unit normalized.

    With equal covariances this single direction retains the full divergence;
    in general it is the classical linear baseline.  Requires distinct means.
    """
    _check_same_dim(p1, p2)
    if _means_equal(p1, p2):
        raise EqualMeans("class means coincide; the discriminant direction is undefined")
    pooled = (p1.covariance + p2.covariance) / 2.0
    l = _cholesky(pooled, "pooled covariance")
    w = cho_solve((l, True), p2.mean - p1.mean)
    row = (w / np.linalg.norm(w))[None, :]
    return ProjectionResult(
        matrix=row,
        frame=FRAME_ORIGINAL,
        method="lda",
        achieved_kld=kld_projected(row, p1, p2),
    )


def mean_first_projection(p1: GaussianParams, p2: GaussianParams, r: int) -> ProjectionResult:
    """Discriminant direction first, then top covariance-contrast directions.

    Row 1 is S2^-1 (m2 - m1); rows 2..r are generalized eigenvectors of the
    pencil (S2, S1) ranked by g_score of their eigenvalue.  The stack is QR
    orthonormalized; a candidate that is numerically dependent on the rows
    already chosen is skipped in favor of the next-ranked one.  When the
    means coincide the discriminant row is dropped (with a warning) and all
    r rows come from the pencil, read off a _ClassPair factored for this
    call (fit_auto and sweep_r share theirs).  Reported under the tag "alg1".
    """
    return _mean_first(_ClassPair(p1, p2), r)


def _mean_first(pair: _ClassPair, r: int) -> ProjectionResult:
    p1, p2 = pair.p1, pair.p2
    r = _check_r(r, p1.dim)
    pencil = pair.pencil
    scores = g_score(pencil.eigenvalues)
    order = _ranked(scores, pencil.eigenvalues)

    warnings: tuple = ()
    rows: list[np.ndarray] = []
    if _means_equal(p1, p2):
        warnings = (
            "class means coincide; the discriminant row is undefined and was "
            "replaced by the next covariance-contrast direction",
        )
    else:
        # S2^-1 (m2 - m1) = L^-T U diag(1 / lambda) U^T L^-1 (m2 - m1)
        rows.append(pair.unwhiten(pair.eig.eigenvectors @ (pair.eig_mean / pencil.eigenvalues)))
    rows, picked = _greedy_fill(rows, pencil.eigenvectors, order, scores, r)
    matrix = linalg.orthonormalize_rows(np.vstack(rows))
    return ProjectionResult(
        matrix=matrix,
        frame=FRAME_ORIGINAL,
        method="alg1",
        achieved_kld=kld_projected(matrix, p1, p2),
        component_scores=tuple(picked),
        warnings=warnings,
    )


def whitened_component_projection(p1: GaussianParams, p2: GaussianParams, r: int) -> ProjectionResult:
    """Top-r one-dimensional divergences in the class-1 whitened frame.

    With the Cholesky factor S1 = L L^T, the whitened pair is N(0, I) vs
    N(L^-1 (m2 - m1), L^-1 S2 L^-T).  Eigendirections u_i of the whitened
    covariance decouple the divergence into independent one-dimensional
    pieces scored by component_kld(u_i . mean, lambda_i); the projection
    keeps the r largest.  ``matrix`` holds the (orthonormal) whitened-frame
    rows u_i and ``matrix_original`` the equivalent original-frame rows
    (L^-T u_i)^T, orthonormalized.  ``achieved_kld`` is the sum of the
    selected scores, which at r = d equals the full divergence.  L, U and
    lambda come from a _ClassPair factored for this call (fit_auto and
    sweep_r share theirs).  Reported under the method tag "alg2".

    When the whitened covariance is the identity (|lambda - 1| below
    1e-8 * d) only the mean direction matters: the first row is the whitened
    mean direction, completed by any orthonormal complement, retaining
    |L^-1 (m2 - m1)|^2 / 2.  If that mean offset is below 1e-12 as well, the
    classes are numerically identical and no projection is meaningful.
    """
    return _whitened_component(_ClassPair(p1, p2), r)


def _whitened_component(pair: _ClassPair, r: int) -> ProjectionResult:
    d = pair.p1.dim
    r = _check_r(r, d)
    eig = pair.eig
    if np.linalg.norm(eig.eigenvalues - 1.0) < 1e-8 * d:
        offset = float(np.linalg.norm(pair.whitened_mean))
        if offset < 1e-12:
            raise IdenticalDistributions("classes are numerically indistinguishable after whitening")
        matrix = _basis_with_first_row(pair.whitened_mean / offset)[:r]
        picked = (0.5 * offset**2,) + (0.0,) * (r - 1)
    else:
        scores = component_kld(pair.eig_mean, eig.eigenvalues)
        sel = _ranked(scores, eig.eigenvalues)[:r]
        matrix = eig.eigenvectors[:, sel].T
        picked = tuple(float(v) for v in scores[sel])
    return ProjectionResult(
        matrix=matrix,
        frame=FRAME_WHITENED,
        method="alg2",
        achieved_kld=float(np.sum(picked)),
        component_scores=picked,
        matrix_original=linalg.orthonormalize_rows(pair.unwhiten(matrix.T).T),
    )


# ---------------------------------------------------------------------------
# regime rule
# ---------------------------------------------------------------------------


def regime_recommendation(d_mu: float, d_sigma: float, r: int) -> tuple[str, float]:
    """Apply the mean-vs-covariance rule; returns (recommendation, threshold).

    The mean-first construction devotes one of its r rows to the mean
    direction, so it pays off when d_mu outweighs the d_sigma the remaining
    r - 1 rows must cover: recommend "alg1" iff d_mu >= d_sigma / (r - 1).
    At r = 1 the threshold is +inf and the honest answer is to run both
    constructions and keep the better ("compare_both").
    """
    if r < 1:
        raise DimensionMismatch(f"target dimension r={r} must be >= 1")
    if r == 1:
        return "compare_both", math.inf
    threshold = d_sigma / (r - 1)
    return ("alg1" if d_mu >= threshold else "alg2"), threshold


def select_regime(p1: GaussianParams, p2: GaussianParams, r: int) -> RegimeReport:
    """Split the divergence and recommend a construction for this r."""
    split = kld_split(p1, p2)
    recommendation, threshold = regime_recommendation(split.d_mu, split.d_sigma, int(r))
    return RegimeReport(split.d_mu, split.d_sigma, int(r), threshold, recommendation)


def fit_auto(p1: GaussianParams, p2: GaussianParams, r: int, mode: str = "rule") -> ProjectionResult:
    """Fit a projection, choosing the construction automatically.

    mode "rule" applies select_regime's rule to the pair's spectral split
    (running both constructions when it says "compare_both"); mode "compare"
    always runs both and returns the larger retained divergence.  Ties go to
    the mean-first construction.
    """
    if mode not in ("rule", "compare"):
        raise ValueError(f"mode must be 'rule' or 'compare', got {mode!r}")
    pair = _ClassPair(p1, p2)
    split = pair.split if mode == "rule" else None
    use = regime_recommendation(split.d_mu, split.d_sigma, int(r))[0] if split else "compare_both"
    fits = [fit(pair, r) for tag, fit in (("alg1", _mean_first), ("alg2", _whitened_component))
            if use in (tag, "compare_both")]
    # max keeps the first of equal values: ties go to alg1
    return max(fits, key=lambda res: res.achieved_kld)


# ---------------------------------------------------------------------------
# multiclass and baselines
# ---------------------------------------------------------------------------


def multiclass_lda(params: list[GaussianParams], r: int | None = None) -> ProjectionResult:
    """Between-means reduction for K classes sharing a covariance.

    With S_mu the scatter of the class means about their average and S the
    common covariance (the average of the supplied covariances), the rows
    are the generalized eigendirections of (S_mu, S) with nonzero
    eigenvalue.  For classes that truly share S, the K-1 such directions
    preserve every pairwise divergence exactly.  ``achieved_kld`` totals the
    projected divergence over ordered class pairs; ``component_scores``
    carries the between/within eigenvalues.

    Collinear class means leave fewer than the requested number of
    directions: the achievable subspace is returned with a warning, and
    coinciding means (no directions at all) raise RankDeficientMeans.
    """
    if len(params) < 2:
        raise DimensionMismatch(f"need at least 2 classes, got {len(params)}")
    for p in params[1:]:
        _check_same_dim(params[0], p)
    r = _check_r(len(params) - 1 if r is None else r, params[0].dim)

    sigma = np.mean([p.covariance for p in params], axis=0)
    means = np.stack([p.mean for p in params])
    centered = means - means.mean(axis=0)
    s_mu = centered.T @ centered

    whitened = linalg.WhitenedPencil(s_mu, sigma)
    eig = whitened.eig
    lam = eig.eigenvalues
    available = int(np.count_nonzero(lam > linalg.RANK_RTOL * max(lam[0], 0.0)))
    if available == 0:
        raise RankDeficientMeans("all class means coincide; no between-means direction exists")

    warnings: tuple = ()
    if available < r:
        warnings = (
            f"class means span only {available} directions; returning "
            f"{available} rows instead of {r}",
        )
        r = available
    matrix = linalg.orthonormalize_rows(whitened.unwhiten(eig.eigenvectors[:, :r]).T)
    achieved = sum(kld_projected(matrix, pi, pj) for pi, pj in permutations(params, 2))
    return ProjectionResult(
        matrix=matrix,
        frame=FRAME_ORIGINAL,
        method="multiclass_lda",
        achieved_kld=float(achieved),
        component_scores=tuple(float(v) for v in lam[:r]),
        warnings=warnings,
    )


def lol_projection(
    p1: GaussianParams,
    p2: GaussianParams,
    r: int,
    pooled_cov: np.ndarray | None = None,
) -> ProjectionResult:
    """Mean difference plus top principal directions of the pooled covariance.

    The classical low-rank baseline: row 1 is m2 - m1 and rows 2..r are the
    leading eigenvectors of the pooled covariance (the average of the class
    covariances unless one is supplied), orthonormalized.  Principal
    directions do not target discrimination, so this often retains far less
    divergence than the divergence-aware constructions.  Equal means drop
    the first row with a warning.
    """
    _check_same_dim(p1, p2)
    pooled = (p1.covariance + p2.covariance) / 2.0 if pooled_cov is None else pooled_cov
    return _lol(p1, p2, r, linalg.sym_eig(pooled))


def _lol(p1: GaussianParams, p2: GaussianParams, r: int, eig: linalg.SymEigen) -> ProjectionResult:
    r = _check_r(r, p1.dim)
    order = np.arange(eig.eigenvalues.size)

    warnings: tuple = ()
    rows: list[np.ndarray] = []
    if _means_equal(p1, p2):
        warnings = (
            "class means coincide; using principal directions of the pooled covariance only",
        )
    else:
        rows.append(p2.mean - p1.mean)
    rows, _ = _greedy_fill(rows, eig.eigenvectors, order, eig.eigenvalues, r)
    matrix = linalg.orthonormalize_rows(np.vstack(rows))
    return ProjectionResult(
        matrix=matrix,
        frame=FRAME_ORIGINAL,
        method="lol",
        achieved_kld=kld_projected(matrix, p1, p2),
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# divergence-order diagnostic
# ---------------------------------------------------------------------------


def equal_mean_order_check(
    p1: GaussianParams, p2: GaussianParams, r: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Compare the optimal subspaces for the two divergence orders.

    For equal-mean classes the optimal r-dimensional subspace for
    D(q1 || q2) picks the top-r generalized eigendirections of (S2, S1) by
    g_score, and for D(q2 || q1) those of (S1, S2).  The pencils share
    eigenvectors with reciprocal eigenvalues (so one factorization of the
    pair serves both), and whenever the spectrum sits entirely on one side
    of 1 (e.g. S2 = S1 + positive semidefinite) the two orders select the
    same subspace; spectra straddling 1 can genuinely disagree.  Returns
    (subspace_12, subspace_21, max principal angle), subspaces as rows.
    """
    r = _check_r(r, _check_same_dim(p1, p2))
    if not _means_equal(p1, p2, rtol=EQUAL_MEANS_CHECK_RTOL):
        raise UnequalMeans("order comparison is defined for coinciding class means")
    pencil = _ClassPair(p1, p2).pencil

    def top_subspace(lam: np.ndarray) -> np.ndarray:
        sel = _ranked(g_score(lam), lam)[:r]
        return linalg.orthonormalize_rows(pencil.eigenvectors[:, sel].T)

    sub12 = top_subspace(pencil.eigenvalues)
    sub21 = top_subspace(1.0 / pencil.eigenvalues)
    angle = float(np.max(linalg.principal_angles(sub12, sub21)))
    return sub12, sub21, angle
