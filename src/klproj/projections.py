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
from functools import cached_property
from itertools import permutations

import numpy as np
from scipy.linalg import blas, solve_triangular

from . import linalg
from .errors import (
    DimensionMismatch,
    EqualMeans,
    IdenticalDistributions,
    NotPositiveDefinite,
    RankDeficientMeans,
    UnequalMeans,
)
from .gaussian import (
    GaussianParams,
    KldBreakdown,
    _check_classes,
    component_kld,
    g_score,
    kld,
    project_params,
)

# Consecutive whitened eigenvalues lambda_i >= lambda_i+1 within
# _CLUSTER_RTOL * lambda_i form a cluster, one repeated eigenvalue (see
# _ClassPair): relative to lambda_i, so neither a large lambda_max nor a small
# scale of the whole spectrum merges distinct eigenvalues.
_CLUSTER_RTOL = 1e-10

# alg2 replaces alg1 only by retaining more than (1 + _TIE_RTOL) times its value:
# a tie reached by two different component sums differs in the last bits.
_TIE_RTOL = 1e-12

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


def _ranked(scores: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Indices sorted by score descending; ties prefer larger |lam - 1|, then lower index."""
    idx = np.arange(lam.size)
    return np.lexsort((idx, -np.abs(lam - 1.0), -scores))


def _axes_beside(c: np.ndarray, order: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(axes, w): the first k axes in ``order`` beside a row with coordinates c
    in an orthonormal basis, and c's unit residual w off them.

    The row and axes a_1..a_j lose rank only when c lies in their span, when
    the tail sum of c^2 past a_j falls to (RANK_RTOL |c|)^2: that a_j is
    skipped, and no later one, as c has a share on a_j.
    """
    u = c / np.linalg.norm(c)
    tail = np.append(np.cumsum(u[order[:0:-1]] ** 2)[::-1], 0.0)  # sum of u^2 past order[j]
    j = int(np.argmax(tail <= linalg.RANK_RTOL**2))
    axes = np.delete(order[:k + 1], j) if j < k else order[:k]
    u[axes] = 0.0
    return axes, u / np.linalg.norm(u)


def _frame_value(w: np.ndarray, lam: np.ndarray, m: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(f, R^-1, R^-T b): the divergence kept by orthonormal rows w of a pair's eigenframe.

    There the classes are N(0, I) and N(m, diag(lam)); b = w m.  The Householder QR of
    diag(sqrt(lam)) w^T, rows in the pair's descending-lam order, gives M = w diag(lam) w^T
    = R^T R without forming M, row-wise backward stable (Cox & Higham 1998), and
    f = 1/2 [|R^-1|_F^2 - r + 2 sum log|R_ii| + |R^-T b|^2].
    """
    rmat = np.linalg.qr(np.sqrt(lam)[:, None] * w.T, mode="r")
    rinv = solve_triangular(rmat, np.eye(len(rmat)), check_finite=False)
    t = solve_triangular(rmat, w @ m, trans="T", check_finite=False)
    logdet = 2.0 * float(np.sum(np.log(np.abs(np.diag(rmat)))))
    return 0.5 * (float(np.sum(rinv**2)) - len(rmat) + logdet + float(t @ t)), rinv, t


class _ClassPair(linalg.WhitenedPencil):
    """A class pair factored once: the pencil (S2, S1) whitened by S1 = L L^T.

    L is class 1's cached ``factor``, which kld reads too.  x -> L^-1 (x - m1)
    maps the pair to N(0, I) vs N(``whitened_mean``, L^-1 S2 L^-T).  alg1,
    alg2 and the regime rule (``split``, ``regime``) all read the one eigendecomposition
    U, lambda of L^-1 S2 L^-T: all of lambda and ``eig_mean``, but only the
    columns of U they select, formed on demand from U's kept reflectors.  A
    pair lives only as long as the call that built it.

    ``means_equal``, the one equal-means fact, holds when the Mahalanobis offset
    |whitened_mean| is below 1e-12: unit-free and affine-invariant, as KL is.
    A lambda that rounds to <= 0 is refused with NotPositiveDefinite.

    A repeated eigenvalue has no unique eigenbasis.  A cluster whose mean
    share |m_c| exceeds _CLUSTER_RTOL |m| takes its mean eigenvalue (exactly
    1 when that is 1 within the tolerance), and one Householder reflector
    puts its whole share on its first vector; other clusters stay as factored.

    ``value`` reads the divergence any original-frame rows keep in this
    eigenframe, and ``pooled`` is lol's basis: the eigendecomposition of the
    average of the class covariances, (S1 + S2) / 2, formed on first read.
    """

    def __init__(self, p1: GaussianParams, p2: GaussianParams):
        _check_classes(p1, p2)
        super().__init__(p2.covariance, p1.covariance, p1.factor)
        if self.eigenvalues[-1] <= 0.0:
            raise NotPositiveDefinite(
                "whitened class-2 covariance L^-1 S2 L^-T is not positive definite: smallest "
                f"eigenvalue {self.eigenvalues[-1]:.6e} (largest {self.eigenvalues[0]:.6e})")
        self.p1, self.p2 = p1, p2
        self.whitened_mean = solve_triangular(self.factor, p2.mean - p1.mean, lower=True,
                                              check_finite=False)
        self.means_equal = bool(np.linalg.norm(self.whitened_mean) < 1e-12)
        # m = U^T whitened_mean: the mean offset along each whitened eigendirection
        self.eig_mean = self.coords(self.whitened_mean)
        lam, m = self.eigenvalues, self.eig_mean
        apart = lam[:-1] - lam[1:] > _CLUSTER_RTOL * lam[:-1]
        cuts, floor = [0, *np.flatnonzero(apart) + 1, lam.size], _CLUSTER_RTOL * np.linalg.norm(m)
        for s, e in zip(cuts[:-1], cuts[1:]):
            share = np.linalg.norm(m[s:e])
            if e - s > 1 and share > floor:
                mid = np.mean(lam[s:e])
                lam[s:e] = 1.0 if abs(mid - 1.0) <= _CLUSTER_RTOL else mid
                # H = I - 2 v v^T / v^T v, v = m_c - |m_c| e1 (v_1 without cancellation), maps
                # m_c to |m_c| e1; Z_c <- Z_c H in place: dger on Fortran-ordered Z's block
                v = m[s:e].copy()
                v[0] = v[0] - share if v[0] <= 0.0 else -(v[1:] @ v[1:]) / (v[0] + share)
                if v @ v > 0.0:
                    z = self._z[:, s:e]
                    blas.dger(-2.0 / (v @ v), z @ v, v, a=z, overwrite_a=1)
                m[s + 1:e], m[s] = 0.0, share

    def frame_rows(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(W, R): rows A, which read x = L U y + m1 as A L U y + A m1, as orthonormal
        eigenframe rows W = Q^T, from the QR U^T L^T A^T = Q R: A L U = R^T W."""
        q, r = np.linalg.qr(self.coords(self.factor.T @ a.T))
        return q.T, r

    def value(self, a: np.ndarray) -> float:
        """The divergence kept by original-frame rows a, read in the eigenframe (``_frame_value``)."""
        return _frame_value(self.frame_rows(a)[0], self.eigenvalues, self.eig_mean)[0]

    @cached_property
    def pooled(self) -> linalg.SymEigen:
        return linalg.sym_eig((self.p1.covariance + self.p2.covariance) / 2.0)

    @property
    def split(self) -> KldBreakdown:
        """kld_split off the spectrum: d_mu = sum m_i^2 / (2 lambda_i), d_sigma = sum g(lambda_i)."""
        lam = self.eigenvalues
        d_mu = 0.5 * float(np.sum(self.eig_mean**2 / lam))
        d_sigma = max(0.0, float(np.sum(g_score(lam))))  # terms >= 0 up to rounding
        return KldBreakdown(total=d_mu + d_sigma, d_mu=d_mu, d_sigma=d_sigma)

    def regime(self, r: int) -> RegimeReport:
        """The regime rule applied to ``split`` at rank r."""
        split, r = self.split, _check_r(r, self.eigenvalues.size)
        recommendation, threshold = regime_recommendation(split.d_mu, split.d_sigma, r)
        return RegimeReport(split.d_mu, split.d_sigma, r, threshold, recommendation)

    def whitened_axes(self) -> tuple[GaussianParams, GaussianParams]:
        """The pair along U, axes in alg2's order: N(0, I) vs N(m, diag(lambda))."""
        lam, m = self.eigenvalues, self.eig_mean
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
    Row and value are read off a pair factored for this call (``_lda``;
    sweep_r and ``klproj fit`` share theirs).
    """
    return _lda(_ClassPair(p1, p2), 1)


def _lda(pair: _ClassPair, r: int) -> ProjectionResult:
    """lda's one row (sweep_r skips, and ``klproj fit`` refuses, r > 1), off the pair.

    (S1 + S2)/2 = L U diag((1 + lambda)/2) U^T L^T, so the row is L^-T U c with
    c = m / (1 + lambda); in the eigenframe it is c, and its value is
    component_kld(w . m, w^T diag(lambda) w), w = c / |c|.
    """
    if pair.means_equal:
        raise EqualMeans("class means coincide; the discriminant direction is undefined")
    lam, m = pair.eigenvalues, pair.eig_mean
    c = m / (1.0 + lam)
    row, w = pair.unwhiten(pair.combine(c)), c / np.linalg.norm(c)
    return ProjectionResult(matrix=(row / np.linalg.norm(row))[None, :], frame=FRAME_ORIGINAL,
                            method="lda", achieved_kld=component_kld(w @ m, w**2 @ lam))


def mean_first_projection(p1: GaussianParams, p2: GaussianParams, r: int) -> ProjectionResult:
    """Discriminant direction first, then top covariance-contrast directions.

    Row 1 is S2^-1 (m2 - m1); rows 2..r are generalized eigenvectors of the
    pencil (S2, S1) ranked by g_score, QR orthonormalized.  In the pair's
    eigenframe x -> U^T L^-1 (x - m1), where the classes are N(0, I) and
    N(m, diag(lambda)), they are axes and row 1 is m / lambda; an axis that
    would make the stack dependent is skipped (``_axes_beside``).  The
    retained divergence is the kept axes' component sum plus
    component_kld(w . m, w^T diag(lambda) w), w the unit residual of
    m / lambda off them.  Equal means drop row 1 (with a warning).  The pair
    is factored for this call (fit_auto and sweep_r share theirs).  Reported
    under the tag "alg1".
    """
    return _mean_first(_ClassPair(p1, p2), r)


def _mean_first(pair: _ClassPair, r: int) -> ProjectionResult:
    r = _check_r(r, pair.p1.dim)
    lam, m = pair.eigenvalues, pair.eig_mean
    scores = g_score(lam)
    order, rows, rest, warnings = _ranked(scores, lam), [], 0.0, ()
    if pair.means_equal:
        axes, warnings = order[:r], ("class means coincide; the discriminant row is undefined and "
                                     "was replaced by the next covariance-contrast direction",)
    else:
        axes, w = _axes_beside(m / lam, order, r - 1)
        # S2^-1 (m2 - m1) = L^-T U diag(1 / lambda) U^T L^-1 (m2 - m1)
        first = pair.unwhiten(pair.combine(m / lam))
        rows, rest = [first / np.linalg.norm(first)], component_kld(w @ m, w**2 @ lam)
    matrix = linalg.orthonormalize_rows(np.vstack(rows + [pair.pencil_vectors(axes).T]))
    return ProjectionResult(matrix=matrix, frame=FRAME_ORIGINAL, method="alg1",
                            achieved_kld=float(np.sum(component_kld(m[axes], lam[axes]))) + rest,
                            component_scores=tuple(float(v) for v in scores[axes]),
                            warnings=warnings)


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

    A repeated eigenvalue (S2 = c S1, S2 = S1) leaves U free within its
    cluster; the pair puts the cluster's whole mean share on one vector
    (_ClassPair, ``_CLUSTER_RTOL``), so the r largest scores are optimal
    there too.  A spectrum within 1e-8 * d of 1 with equal means (the pair's
    ``means_equal``) means numerically identical classes: IdenticalDistributions.
    """
    return _whitened_component(_ClassPair(p1, p2), r)


def _whitened_component(pair: _ClassPair, r: int) -> ProjectionResult:
    lam, d = pair.eigenvalues, pair.p1.dim
    r = _check_r(r, d)
    if pair.means_equal and np.linalg.norm(lam - 1.0) < 1e-8 * d:
        raise IdenticalDistributions("classes are numerically indistinguishable after whitening")
    scores = component_kld(pair.eig_mean, lam)
    sel = _ranked(scores, lam)[:r]
    matrix, picked = pair.columns(sel).T, tuple(float(v) for v in scores[sel])
    return ProjectionResult(matrix=matrix, frame=FRAME_WHITENED, method="alg2",
                            achieved_kld=float(np.sum(picked)), component_scores=picked,
                            matrix_original=linalg.orthonormalize_rows(pair.unwhiten(matrix.T).T))


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
    """Split the divergence off the pair's spectrum and recommend a construction for this r."""
    return _ClassPair(p1, p2).regime(r)


def fit_auto(p1: GaussianParams, p2: GaussianParams, r: int, mode: str = "rule") -> ProjectionResult:
    """Fit a projection, choosing the construction automatically.

    mode "rule" follows select_regime's recommendation (running both
    constructions when it says "compare_both"); mode "compare" always runs
    both and returns the larger retained divergence.  Ties, up to a relative
    ``_TIE_RTOL``, go to the mean-first construction.
    """
    if mode not in ("rule", "compare"):
        raise ValueError(f"mode must be 'rule' or 'compare', got {mode!r}")
    return _auto(_ClassPair(p1, p2), r, mode)


def _auto(pair: _ClassPair, r: int, mode: str) -> ProjectionResult:
    use = pair.regime(r).recommendation if mode == "rule" else "compare_both"
    fits = [FITS[tag](pair, r) for tag in ("alg1", "alg2") if use in (tag, "compare_both")]
    first, last = fits[0], fits[-1]
    return last if last.achieved_kld > (1.0 + _TIE_RTOL) * first.achieved_kld else first


# ---------------------------------------------------------------------------
# multiclass and baselines
# ---------------------------------------------------------------------------


def multiclass_lda(params: list[GaussianParams], r: int | None = None) -> ProjectionResult:
    """Between-means reduction for K classes sharing a covariance.

    With S_mu the scatter of the class means about their average and S the
    common covariance (the average of the supplied covariances), the rows
    are the generalized eigendirections of (S_mu, S) with nonzero
    eigenvalue.  For classes that truly share S, the K-1 such directions
    preserve every pairwise divergence exactly.  ``achieved_kld`` totals kld
    over ordered pairs of the classes, each projected once; ``component_scores``
    carries the between/within eigenvalues.

    Collinear class means leave fewer than the requested number of
    directions: the achievable subspace is returned with a warning, and
    coinciding means (no directions at all) raise RankDeficientMeans.
    """
    r = _check_r(len(params) - 1 if r is None else r, _check_classes(*params))

    sigma = np.mean([p.covariance for p in params], axis=0)
    means = np.stack([p.mean for p in params])
    centered = means - means.mean(axis=0)
    s_mu = centered.T @ centered

    whitened = linalg.WhitenedPencil(s_mu, sigma)
    lam = whitened.eigenvalues
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
    matrix = linalg.orthonormalize_rows(whitened.unwhiten(whitened.columns(slice(r))).T)
    projected = [project_params(matrix, p) for p in params]
    achieved = sum(kld(qi, qj) for qi, qj in permutations(projected, 2))
    return ProjectionResult(
        matrix=matrix,
        frame=FRAME_ORIGINAL,
        method="multiclass_lda",
        achieved_kld=float(achieved),
        component_scores=tuple(float(v) for v in lam[:r]),
        warnings=warnings,
    )


def lol_projection(p1: GaussianParams, p2: GaussianParams, r: int) -> ProjectionResult:
    """Mean difference plus top principal directions of the pooled covariance.

    The classical low-rank baseline: row 1 is m2 - m1 and rows 2..r are the
    leading eigenvectors of the pooled covariance, always the average of the
    class covariances (S1 + S2) / 2, orthonormalized: the axes of the pooled
    eigenbasis V beside row 1's coordinates V^T (m2 - m1) (``_axes_beside``).
    V is the ``pooled`` basis of a pair factored for this call, and the value
    is read in that pair's eigenframe (``_ClassPair.value``), so ``klproj
    fit``, sweep_r and this function agree on the same classes.  Principal
    directions do not target discrimination, so this often retains far less
    divergence than the divergence-aware constructions.  Equal means drop
    the first row with a warning.
    """
    return _lol(_ClassPair(p1, p2), r)


def _lol(pair: _ClassPair, r: int) -> ProjectionResult:
    p1, p2 = pair.p1, pair.p2
    r = _check_r(r, p1.dim)
    delta, order, rows, warnings = p2.mean - p1.mean, np.arange(p1.dim), [], ()
    basis = pair.pooled.eigenvectors
    if pair.means_equal:
        axes, warnings = order[:r], ("class means coincide; using principal directions of the "
                                     "pooled covariance only",)
    else:
        axes, _ = _axes_beside(basis.T @ delta, order, r - 1)
        rows = [delta / np.linalg.norm(delta)]
    matrix = linalg.orthonormalize_rows(np.vstack(rows + [basis[:, axes].T]))
    return ProjectionResult(matrix=matrix, frame=FRAME_ORIGINAL, method="lol",
                            achieved_kld=pair.value(matrix), warnings=warnings)


# The two-class fits on a factored pair, by method tag: (pair, r) -> ProjectionResult.
FITS = {"alg1": _mean_first, "alg2": _whitened_component, "lda": _lda, "lol": _lol}


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
    Means that are not equal by the pair's ``means_equal`` raise UnequalMeans.
    """
    pair = _ClassPair(p1, p2)
    r = _check_r(r, p1.dim)
    if not pair.means_equal:
        raise UnequalMeans("order comparison is defined for coinciding class means")

    def top_subspace(lam: np.ndarray) -> np.ndarray:
        sel = _ranked(g_score(lam), lam)[:r]
        return linalg.orthonormalize_rows(pair.pencil_vectors(sel).T)

    sub12 = top_subspace(pair.eigenvalues)
    sub21 = top_subspace(1.0 / pair.eigenvalues)
    angle = float(np.max(linalg.principal_angles(sub12, sub21)))
    return sub12, sub21, angle
