"""Gaussian class parameters and divergence evaluation.

The central quantity is the Kullback-Leibler divergence between two
multivariate normal distributions,

    D(p1 || p2) = 1/2 [ ln(|S2|/|S1|) - d + tr(S2^-1 S1)
                        + (m2 - m1)^T S2^-1 (m2 - m1) ],

together with its mean/covariance split, its pushforward under a linear map,
per-direction contributions after whitening, and the Chernoff information.
Determinants are never formed: kld's come from Cholesky factors and Chernoff's
from the class pair's whitened spectrum, as raw determinants overflow long
before the divergences of interest do.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import blas, solve_triangular

from . import linalg
from .errors import (
    DimensionMismatch,
    InsufficientSamples,
    NonFiniteInput,
    NonPositiveInput,
    NotPositiveDefinite,
    NumericalError,
)

# Divergences are mathematically nonnegative; results in [-NEG_TOL, 0) are
# treated as roundoff and clamped to zero, anything lower is an error.
NEG_TOL = 1e-10

_LOG_2PI = float(np.log(2.0 * np.pi))

# Column block of kld's triangular trace solve.
_TRACE_BLOCK = 128


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianParams:
    """Mean vector and SPD covariance of one Gaussian class.

    Validation happens at construction: the mean must be a finite vector
    (linalg._as_array), the covariance a finite square matrix
    (linalg._as_square) of matching dimension, symmetric up to a relative
    1e-8 (it is stored symmetrized), and positive definite per
    linalg.assert_spd's rule, mostly certified by one Cholesky of a shifted
    copy (linalg.certify_spd), made in place in the d x d scratch that held
    C - C^T.  The covariance's Cholesky ``factor`` is kept from first use:
    pairs (projections._ClassPair), kld, sampling and densities all read it.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = linalg._as_array(self.mean, "mean")
        if mean.ndim != 1:
            raise DimensionMismatch(f"mean must be a vector, got shape {mean.shape}")
        cov = linalg._as_square(self.covariance, "covariance")
        if cov.shape[0] != mean.shape[0]:
            raise DimensionMismatch(
                f"mean has dimension {mean.shape[0]} but covariance is {cov.shape[0]}x{cov.shape[0]}"
            )
        with np.errstate(over="ignore"):  # an overflow is caught below
            # the kept array first: the scratch, freed on return, then leaves no hole below it
            sym = (cov + cov.T) / 2.0  # numpy halves the fresh sum in place (temporary elision)
            scratch = cov - cov.T  # the one d x d temporary, reused by the certificate
            # BLAS nrm2 scales its sum of squares: tiny entries keep the test relative
            asym, size = blas.dnrm2(scratch.ravel()), blas.dnrm2(cov.ravel(order="K"))
        certified, name = sym, "covariance"
        if not np.isfinite(2.0 * size):
            # C + C^T may have overflowed: take both norms of a copy scaled to max |C| = 1
            scale = np.abs(cov).max()
            unit = cov / scale
            asym, size = np.linalg.norm(unit - unit.T), np.linalg.norm(unit)
            if not np.all(np.isfinite(sym)):  # so did the sum: halve first, certify at max |C| = 1,
                sym = cov / 2.0 + cov.T / 2.0  # where the certificate's |C|_F is finite
                certified, name = sym / scale, "covariance / max |covariance|"
        if asym > linalg.SYM_RTOL * size:
            raise NotPositiveDefinite(
                f"covariance is not symmetric (relative asymmetry {asym / size:.3e})"
            )
        linalg.certify_spd(certified, name, scratch)
        object.__setattr__(self, "mean", mean.copy())
        object.__setattr__(self, "covariance", sym)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def factor(self) -> np.ndarray:
        """Lower Cholesky factor L of the covariance, L L^T = covariance."""
        return linalg.cholesky(self.covariance)


@dataclass(frozen=True)
class LabeledDataset:
    """Sample matrix (n x d) with integer class labels (n,)."""

    samples: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        x = linalg._as_points(self.samples)
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
    the means coincide.
    """

    total: float
    d_mu: float
    d_sigma: float


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------


def _chol_logdet(chol: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def _clamp_nonneg(value: float, what: str) -> float:
    if value < -NEG_TOL:
        raise NumericalError(f"{what} evaluated to {value:.6e}, beyond roundoff tolerance")
    return max(value, 0.0)


def _check_classes(*params: GaussianParams) -> int:
    """The one dimension of two or more classes; DimensionMismatch for fewer or mixed."""
    dims = [p.dim for p in params]
    if len(dims) < 2 or len(set(dims)) > 1:
        raise DimensionMismatch(f"need at least 2 classes of one dimension, got dimensions {dims}")
    return dims[0]


# ---------------------------------------------------------------------------
# divergences
# ---------------------------------------------------------------------------


def kld(p1: GaussianParams, p2: GaussianParams) -> float:
    """Kullback-Leibler divergence D(p1 || p2) in nats: kld_split's total."""
    return kld_split(p1, p2).total


def kld_split(p1: GaussianParams, p2: GaussianParams) -> KldBreakdown:
    """KLD with its mean (d_mu) and covariance (d_sigma) parts, via Cholesky.

    tr(S2^-1 S1) = |L2^-1 L1|_F^2 and the quadratic form is |L2^-1 delta|^2.
    L2^-1 L1 is lower triangular: its columns j:j+b are L2[j:, j:]^-1 L1[j:, j:j+b]
    below row j and zero above, d^3/3 flops over all blocks instead of d^3.
    """
    d = _check_classes(p1, p2)
    l1, l2 = p1.factor, p2.factor
    # factors of validated classes are finite: skip scipy's per-call scan
    trace = 0.0
    for j in range(0, d, _TRACE_BLOCK):
        x = solve_triangular(l2[j:, j:], l1[j:, j : j + _TRACE_BLOCK], lower=True, check_finite=False)
        trace += float(np.vdot(x.T, x.T))  # x is Fortran-ordered: x.T flattens without a copy
    quad = float(np.sum(solve_triangular(l2, p2.mean - p1.mean, lower=True, check_finite=False) ** 2))
    d_mu = _clamp_nonneg(0.5 * quad, "mean divergence term")
    d_sigma = _clamp_nonneg(
        0.5 * (_chol_logdet(l2) - _chol_logdet(l1) - d + trace), "covariance divergence term"
    )
    return KldBreakdown(total=d_mu + d_sigma, d_mu=d_mu, d_sigma=d_sigma)


def project_params(a: np.ndarray, p: GaussianParams) -> GaussianParams:
    """Pushforward of a Gaussian under the linear map x -> A x."""
    cov = a @ p.covariance @ a.T
    return GaussianParams(a @ p.mean, (cov + cov.T) / 2.0)


def kld_projected(a, p1: GaussianParams, p2: GaussianParams) -> float:
    """Divergence between the classes after projecting with the rows of ``a``.

    ``a`` is an r x d matrix of full row rank, as linalg.check_rows reads it
    (rows need not be orthonormal; the divergence depends only on the row
    space).  By data processing this never exceeds kld(p1, p2).  A
    near-singular projected covariance surfaces as NotPositiveDefinite.
    """
    a = linalg.check_rows(a, _check_classes(p1, p2))
    return kld(project_params(a, p1), project_params(a, p2))


def chernoff_information(p1: GaussianParams, p2: GaussianParams) -> float:
    """Chernoff information between two Gaussian classes.

    Maximizes over s in [0, 1] the exponent

        s(1-s)/2 (m2-m1)^T Ss^-1 (m2-m1) + 1/2 ln(|Ss| / (|S1|^s |S2|^(1-s)))

    with Ss = s S1 + (1-s) S2, by scipy's bounded Brent search (the exponent
    is concave in s) to an s tolerance of 1e-10.  The exponent is read off
    the class pair (projections._ClassPair), where S1 = I, S2 = diag(lambda)
    and m2 - m1 = m: 1/2 [s(1-s) sum m_i^2 / t_i + sum ln t_i - (1-s) sum ln lambda_i]
    with t = s + (1-s) lambda, O(d) per step.  Equals kld(p1, p2) / 4 when the
    covariances coincide, and 0 for identical classes.
    """
    from scipy.optimize import minimize_scalar  # imported here: klproj's import stays light

    from .projections import _ClassPair  # projections imports this module

    pair = _ClassPair(p1, p2)
    lam, msq = pair.eigenvalues, pair.eig_mean**2
    logdet2 = float(np.sum(np.log(lam)))

    def exponent(s: float) -> float:
        t = s + (1.0 - s) * lam
        return 0.5 * (s * (1.0 - s) * float(np.sum(msq / t)) + float(np.sum(np.log(t)))
                      - (1.0 - s) * logdet2)

    best = minimize_scalar(lambda s: -exponent(s), bounds=(0.0, 1.0), method="bounded",
                           options={"xatol": 1e-10})
    return _clamp_nonneg(-best.fun, "Chernoff information")


# ---------------------------------------------------------------------------
# per-direction scores
# ---------------------------------------------------------------------------


def g_score(lam):
    """Divergence contribution 0.5 (ln L - 1 + 1/L) of a variance ratio L: component_kld at m = 0.

    Zero exactly at L = 1, positive elsewhere, and asymmetric: shrinking
    directions score higher than growing ones at the same ratio of ratios
    (g(1/2) > g(2)).  Accepts scalars or arrays; L must be positive.
    """
    return component_kld(0.0, lam)


def component_kld(m, lam):
    """One-dimensional divergence 0.5 (ln L - 1 + (1 + m^2)/L).

    This is D(N(0,1) || N(m, L)): the divergence carried by a single
    whitened direction with projected mean offset ``m`` and variance ratio
    ``L``.  g_score(L) is its value at m = 0.  Accepts scalars or arrays.
    """
    m_arr = linalg._as_array(m, "mean offset")
    lam_arr = linalg._as_array(lam, "variance ratio")
    if np.any(lam_arr <= 0.0):
        raise NonPositiveInput("variance ratio must be strictly positive")
    out = 0.5 * (np.log(lam_arr) - 1.0 + (1.0 + m_arr**2) / lam_arr)
    scalar = (np.isscalar(m) or m_arr.ndim == 0) and (np.isscalar(lam) or lam_arr.ndim == 0)
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# density and estimation
# ---------------------------------------------------------------------------


def log_density(p: GaussianParams, x) -> np.ndarray | float:
    """Log density of N(mean, covariance) at one point or rows of points; NonFiniteInput on overflow."""
    single = np.ndim(x) == 1
    pts = linalg._as_points(np.atleast_2d(x), p.dim)
    with np.errstate(over="ignore", invalid="ignore"):  # what overflows is refused below
        y = solve_triangular(p.factor, (pts - p.mean).T, lower=True, check_finite=False)
        quad = np.sum(y * y, axis=0)
    if not np.all(np.isfinite(quad)):
        raise NonFiniteInput("squared distance of a point to the class mean overflows")
    out = -0.5 * (p.dim * _LOG_2PI + _chol_logdet(p.factor) + quad)
    return float(out[0]) if single else out


def estimate_params(data: LabeledDataset, class_id: int, ridge: float = 0.0) -> GaussianParams:
    """Sample mean and unbiased covariance of one class.

    With ridge > 0 the covariance is inflated to S + ridge * (tr S / d) * I
    before validation; a load that overflows is refused, naming the ridge.
    At least two samples are required to form the n-1 divisor (d+1 are
    needed for a generically nonsingular estimate); a degenerate estimate
    surfaces as NotPositiveDefinite.
    """
    if not 0.0 <= ridge < np.inf:  # NaN fails every comparison
        raise NonPositiveInput(f"ridge must be finite and >= 0, got {ridge}")
    mask = data.labels == class_id
    n_k = int(np.count_nonzero(mask))
    if n_k < 2:
        raise InsufficientSamples(
            f"class {class_id} has {n_k} samples; need at least 2 "
            f"(and d+1 = {data.dim + 1} for a nonsingular covariance)"
        )
    x = data.samples[mask]
    with np.errstate(over="ignore", invalid="ignore"):  # GaussianParams refuses what overflows
        mean = x.mean(axis=0)
        centered = x - mean
        cov = centered.T @ centered / (n_k - 1)
        if ridge > 0.0:
            trace = float(np.trace(cov))  # if finite, so is the diagonal until the load
            cov.flat[:: data.dim + 1] += ridge * (trace / data.dim)
            if np.isfinite(trace) and not np.all(np.isfinite(np.diag(cov))):
                raise NonFiniteInput(f"ridge {ridge:g} overflows the covariance load ridge * tr(S) / d")
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
