"""Gaussian class parameters and divergence evaluation.

The central quantity is the Kullback-Leibler divergence between two
multivariate normal distributions,

    D(p1 || p2) = 1/2 [ ln(|S2|/|S1|) - d + tr(S2^-1 S1)
                        + (m2 - m1)^T S2^-1 (m2 - m1) ],

together with its mean/covariance split, its pushforward under a linear map,
per-direction contributions after whitening, and the Chernoff information.
All determinants go through Cholesky factors; raw determinants overflow long
before the divergences of interest do.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from . import linalg
from .errors import (
    DimensionMismatch,
    InsufficientSamples,
    NonFiniteInput,
    NonPositiveInput,
    NotPositiveDefinite,
    NumericalError,
    RankDeficient,
)

# Divergences are mathematically nonnegative; results in [-NEG_TOL, 0) are
# treated as roundoff and clamped to zero, anything lower is an error.
NEG_TOL = 1e-10

_LOG_2PI = float(np.log(2.0 * np.pi))


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianParams:
    """Mean vector and SPD covariance of one Gaussian class.

    Validation happens at construction: the mean must be finite, the
    covariance square with matching dimension, symmetric up to a relative
    1e-8 (it is stored symmetrized), and positive definite per
    linalg.assert_spd's rule, mostly certified by one Cholesky of a shifted
    copy (linalg.certify_spd).  The covariance's Cholesky ``factor`` is kept
    from first use: pairs (projections._ClassPair), kld, sampling and
    densities all read it.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        if mean.ndim != 1:
            raise DimensionMismatch(f"mean must be a vector, got shape {mean.shape}")
        if not np.all(np.isfinite(mean)):
            raise NonFiniteInput("mean contains NaN or infinite entries")
        cov = np.asarray(self.covariance, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise DimensionMismatch(f"covariance must be square, got shape {cov.shape}")
        if cov.shape[0] != mean.shape[0]:
            raise DimensionMismatch(
                f"mean has dimension {mean.shape[0]} but covariance is {cov.shape[0]}x{cov.shape[0]}"
            )
        if not np.all(np.isfinite(cov)):
            raise NonFiniteInput("covariance contains NaN or infinite entries")
        asym = np.linalg.norm(cov - cov.T)
        if asym > linalg.SYM_RTOL * max(np.linalg.norm(cov), 1e-300):
            raise NotPositiveDefinite(
                f"covariance is not symmetric (asymmetry {asym:.3e})"
            )
        cov = (cov + cov.T) / 2.0
        linalg.certify_spd(cov, "covariance")
        object.__setattr__(self, "mean", mean.copy())
        object.__setattr__(self, "covariance", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def factor(self) -> np.ndarray:
        """Lower Cholesky factor L of the covariance, L L^T = covariance."""
        return np.linalg.cholesky(self.covariance)


@dataclass(frozen=True)
class LabeledDataset:
    """Sample matrix (n x d) with integer class labels (n,)."""

    samples: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.samples, dtype=float)
        if x.ndim != 2:
            raise DimensionMismatch(f"samples must be an n x d matrix, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise NonFiniteInput("samples contain NaN or infinite entries")
        y = np.asarray(self.labels)
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise DimensionMismatch(
                f"labels must be a vector of length {x.shape[0]}, got shape {y.shape}"
            )
        if not np.issubdtype(y.dtype, np.integer):
            rounded = np.rint(y)
            if not np.array_equal(rounded, y):
                raise DimensionMismatch("labels must be integers")
            y = rounded.astype(np.int64)
        object.__setattr__(self, "samples", x.copy())
        object.__setattr__(self, "labels", y.copy())

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @property
    def class_labels(self) -> np.ndarray:
        return np.unique(self.labels)


@dataclass(frozen=True)
class KldBreakdown:
    """KLD split into its mean and covariance parts.

    total = d_mu + d_sigma, where d_mu is the Mahalanobis term
    (m2 - m1)^T S2^-1 (m2 - m1) / 2 and d_sigma is the divergence left when
    the means coincide.  ``components`` optionally carries per-direction
    contributions when a decomposition produced them.
    """

    total: float
    d_mu: float
    d_sigma: float
    components: tuple | None = None


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------


def _cholesky(cov: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"{what} admits no Cholesky factorization") from exc


def _chol_logdet(chol: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def _clamp_nonneg(value: float, what: str) -> float:
    if value < -NEG_TOL:
        raise NumericalError(f"{what} evaluated to {value:.6e}, beyond roundoff tolerance")
    return max(value, 0.0)


def _check_same_dim(p1: GaussianParams, p2: GaussianParams) -> int:
    if p1.dim != p2.dim:
        raise DimensionMismatch(f"class dimensions differ: {p1.dim} vs {p2.dim}")
    return p1.dim


def _kld_pieces(p1: GaussianParams, p2: GaussianParams) -> tuple[float, float]:
    """(d_mu, d_sigma) via Cholesky: tr(S2^-1 S1) = |L2^-1 L1|_F^2, quad = |L2^-1 delta|^2."""
    d = _check_same_dim(p1, p2)
    l1, l2 = p1.factor, p2.factor
    # factors of validated classes are finite: skip scipy's per-call scan
    trace = float(np.sum(solve_triangular(l2, l1, lower=True, check_finite=False) ** 2))
    quad = float(np.sum(solve_triangular(l2, p2.mean - p1.mean, lower=True, check_finite=False) ** 2))
    d_mu = _clamp_nonneg(0.5 * quad, "mean divergence term")
    d_sigma = _clamp_nonneg(
        0.5 * (_chol_logdet(l2) - _chol_logdet(l1) - d + trace), "covariance divergence term"
    )
    return d_mu, d_sigma


# ---------------------------------------------------------------------------
# divergences
# ---------------------------------------------------------------------------


def kld(p1: GaussianParams, p2: GaussianParams) -> float:
    """Kullback-Leibler divergence D(p1 || p2) in nats."""
    d_mu, d_sigma = _kld_pieces(p1, p2)
    return d_mu + d_sigma


def kld_split(p1: GaussianParams, p2: GaussianParams) -> KldBreakdown:
    """KLD with its mean (d_mu) and covariance (d_sigma) parts."""
    d_mu, d_sigma = _kld_pieces(p1, p2)
    return KldBreakdown(total=d_mu + d_sigma, d_mu=d_mu, d_sigma=d_sigma)


def project_params(a: np.ndarray, p: GaussianParams) -> GaussianParams:
    """Pushforward of a Gaussian under the linear map x -> A x."""
    cov = a @ p.covariance @ a.T
    return GaussianParams(a @ p.mean, (cov + cov.T) / 2.0)


def _check_projection(a, dim: int) -> np.ndarray:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if not np.all(np.isfinite(a)):
        raise NonFiniteInput("projection matrix contains NaN or infinite entries")
    r, d = a.shape
    if d != dim:
        raise DimensionMismatch(f"projection has {d} columns but classes live in dimension {dim}")
    if r > d:
        raise DimensionMismatch(f"projection must have at most {d} rows, got {r}")
    rank = linalg.numerical_rank(a)
    if rank < r:
        raise RankDeficient(f"projection rows are numerically dependent: rank {rank} < {r}", rank=rank)
    return a

def kld_projected(a, p1: GaussianParams, p2: GaussianParams) -> float:
    """Divergence between the classes after projecting with the rows of ``a``.

    ``a`` is an r x d matrix of full row rank (rows need not be orthonormal;
    the divergence depends only on the row space).  By data processing this
    never exceeds kld(p1, p2).  A near-singular projected covariance
    surfaces as NotPositiveDefinite.
    """
    d = _check_same_dim(p1, p2)
    a = _check_projection(a, d)
    return kld(project_params(a, p1), project_params(a, p2))


def chernoff_information(p1: GaussianParams, p2: GaussianParams) -> float:
    """Chernoff information between two Gaussian classes.

    Maximizes over s in [0, 1] the exponent

        s(1-s)/2 (m2-m1)^T Ss^-1 (m2-m1) + 1/2 ln(|Ss| / (|S1|^s |S2|^(1-s)))

    with Ss = s S1 + (1-s) S2, by golden-section search (the exponent is
    concave in s); the search interval is narrowed to 1e-10.  Equals
    kld(p1, p2) / 4 when the covariances coincide, and 0 for identical
    classes.
    """
    _check_same_dim(p1, p2)
    logdet1 = _chol_logdet(p1.factor)
    logdet2 = _chol_logdet(p2.factor)
    delta = p2.mean - p1.mean

    def exponent(s: float) -> float:
        mix = s * p1.covariance + (1.0 - s) * p2.covariance
        l = _cholesky(mix, "covariance mixture")
        quad = float(delta @ cho_solve((l, True), delta))
        logdet_mix = _chol_logdet(l)
        return 0.5 * s * (1.0 - s) * quad + 0.5 * (
            logdet_mix - s * logdet1 - (1.0 - s) * logdet2
        )

    # golden-section search for the concave maximum on [0, 1]
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, 1.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = exponent(x1), exponent(x2)
    while hi - lo > 1e-10:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = exponent(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = exponent(x1)
    return _clamp_nonneg(max(f1, f2), "Chernoff information")


# ---------------------------------------------------------------------------
# per-direction scores
# ---------------------------------------------------------------------------


def g_score(lam):
    """Divergence contribution 0.5 (ln L - 1 + 1/L) of a variance ratio L.

    Zero exactly at L = 1, positive elsewhere, and asymmetric: shrinking
    directions score higher than growing ones at the same ratio of ratios
    (g(1/2) > g(2)).  Accepts scalars or arrays; L must be positive.
    """
    arr = np.asarray(lam, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput("variance ratio contains NaN or infinite entries")
    if np.any(arr <= 0.0):
        raise NonPositiveInput("variance ratio must be strictly positive")
    out = 0.5 * (np.log(arr) - 1.0 + 1.0 / arr)
    return float(out) if np.isscalar(lam) or arr.ndim == 0 else out


def component_kld(m, lam):
    """One-dimensional divergence 0.5 (ln L - 1 + (1 + m^2)/L).

    This is D(N(0,1) || N(m, L)): the divergence carried by a single
    whitened direction with projected mean offset ``m`` and variance ratio
    ``L``.  Reduces to g_score(L) at m = 0.  Accepts scalars or arrays.
    """
    m_arr = np.asarray(m, dtype=float)
    lam_arr = np.asarray(lam, dtype=float)
    if not (np.all(np.isfinite(m_arr)) and np.all(np.isfinite(lam_arr))):
        raise NonFiniteInput("component inputs contain NaN or infinite entries")
    if np.any(lam_arr <= 0.0):
        raise NonPositiveInput("variance ratio must be strictly positive")
    out = 0.5 * (np.log(lam_arr) - 1.0 + (1.0 + m_arr**2) / lam_arr)
    scalar = (np.isscalar(m) or m_arr.ndim == 0) and (np.isscalar(lam) or lam_arr.ndim == 0)
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# density and estimation
# ---------------------------------------------------------------------------


def log_density(p: GaussianParams, x) -> np.ndarray | float:
    """Log density of N(mean, covariance) at one point or rows of points."""
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != p.dim:
        raise DimensionMismatch(f"points have dimension {pts.shape[1]}, class has {p.dim}")
    y = solve_triangular(p.factor, (pts - p.mean).T, lower=True)
    quad = np.sum(y * y, axis=0)
    out = -0.5 * (p.dim * _LOG_2PI + _chol_logdet(p.factor) + quad)
    return float(out[0]) if single else out


def estimate_params(data: LabeledDataset, class_id: int, ridge: float = 0.0) -> GaussianParams:
    """Sample mean and unbiased covariance of one class.

    With ridge > 0 the covariance is inflated to S + ridge * (tr S / d) * I
    before validation.  At least two samples are required to form the
    n-1 divisor (d+1 are needed for a generically nonsingular estimate);
    a degenerate estimate surfaces as NotPositiveDefinite.
    """
    if ridge < 0.0:
        raise NonPositiveInput(f"ridge must be >= 0, got {ridge}")
    mask = data.labels == class_id
    n_k = int(np.count_nonzero(mask))
    if n_k < 2:
        raise InsufficientSamples(
            f"class {class_id} has {n_k} samples; need at least 2 "
            f"(and d+1 = {data.dim + 1} for a nonsingular covariance)"
        )
    x = data.samples[mask]
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n_k - 1)
    if ridge > 0.0:
        cov = cov + ridge * (np.trace(cov) / data.dim) * np.eye(data.dim)
    return GaussianParams(mean, cov)


def pooled_covariance(data: LabeledDataset) -> np.ndarray:
    """Common covariance: per-class-centered scatter over n - K."""
    labels = data.class_labels
    n = data.samples.shape[0]
    if n < len(labels) + 1:
        raise InsufficientSamples("need at least one more sample than classes")
    scatter = np.zeros((data.dim, data.dim))
    for lab in labels:
        x = data.samples[data.labels == lab]
        centered = x - x.mean(axis=0)
        scatter += centered.T @ centered
    return scatter / (n - len(labels))
