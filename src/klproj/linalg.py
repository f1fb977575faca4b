"""Dense symmetric linear algebra kernels.

Everything downstream (divergence evaluation, projection construction,
refinement) is built on the operations here: symmetric eigendecomposition
with a deterministic ordering, the one Cholesky kernel (LAPACK potrf, in
place when asked), SPD validation (one Cholesky; eigenvalues near the floor),
SPD inverse square root, the generalized eigenvectors of an SPD pencil (by
LAPACK), row orthonormalization, and principal angles between row spaces.
A class pair's whitened pencil is factored in ``projections._ClassPair``.
Inputs are validated; factors are trusted.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack

from .errors import DimensionMismatch, NonFiniteInput, NotPositiveDefinite, RankDeficient

# Relative floor (times the largest eigenvalue) under which a symmetric matrix
# is rejected as not positive definite: a unit-free rule, as KL divergence is.
SPD_RTOL = 1e-10

# Singular values below RANK_RTOL * sigma_max do not count toward numerical rank.
RANK_RTOL = 1e-10

# Allowed relative asymmetry before symmetrization; inputs are symmetrized
# as (M + M.T) / 2 regardless.
SYM_RTOL = 1e-8


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------


def _as_array(m, name: str) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(a)):
        raise NonFiniteInput(f"{name} contains NaN or infinite entries")
    return a


def _as_square(m, name: str) -> np.ndarray:
    a = _as_array(m, name)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def _as_points(x, dim: int | None = None) -> np.ndarray:
    """Finite points as the rows of an n x d matrix, d = ``dim`` when given."""
    pts = _as_array(x, "points")
    if pts.ndim != 2:
        raise DimensionMismatch(f"points must be an n x d matrix, got shape {pts.shape}")
    if dim is not None and pts.shape[1] != dim:
        raise DimensionMismatch(f"points have dimension {pts.shape[1]}, expected {dim}")
    return pts


def check_rows(a, dim: int) -> np.ndarray:
    """``a`` as a finite r x ``dim`` matrix of full row rank (r <= dim); a vector is one row.

    Raises NonFiniteInput, DimensionMismatch, or RankDeficient carrying the
    numerical_rank of rows that are numerically dependent.
    """
    a = np.atleast_2d(_as_array(a, "projection"))
    if a.ndim != 2 or a.shape[1] != dim:
        raise DimensionMismatch(f"projection must be an r x {dim} matrix, got shape {a.shape}")
    r = a.shape[0]
    if r > dim:
        raise DimensionMismatch(f"projection must have at most {dim} rows, got {r}")
    rank = numerical_rank(a)
    if rank < r:
        raise RankDeficient(f"projection rows are numerically dependent: rank {rank} < {r}", rank=rank)
    return a


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """M/2 + M^T/2: the bits of (M + M^T) / 2 wherever that sum neither overflows nor
    goes subnormal, and finite wherever M is."""
    return m / 2.0 + m.T / 2.0


def numerical_rank(a: np.ndarray) -> int:
    """Number of singular values above RANK_RTOL * sigma_max."""
    s = np.linalg.svd(np.atleast_2d(a), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_RTOL * s[0]))


# ---------------------------------------------------------------------------
# symmetric eigendecomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymEigen:
    """Eigendecomposition of a symmetric matrix, or of an SPD pencil B v = lambda C v.

    eigenvalues are sorted descending; eigenvectors[:, i] pairs with
    eigenvalues[i].  Ties keep the order produced by the underlying
    factorization (stable sort), so results are deterministic.  A pencil's
    unit eigenvectors are C-orthogonal but not, in general, orthonormal.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eig(m) -> SymEigen:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    The input is symmetrized as M/2 + M.T/2 before factorization, which
    also makes the call safe for matrices that are symmetric only up to
    roundoff.
    """
    return _descending(*np.linalg.eigh(_symmetrized(_as_square(m, "matrix"))))


def _descending(w: np.ndarray, v: np.ndarray) -> SymEigen:
    order = np.argsort(-w, kind="stable")
    return SymEigen(eigenvalues=w[order], eigenvectors=v[:, order])


def _reject_unless_spd(lo: float, hi: float, name: str) -> None:
    if lo <= SPD_RTOL * hi:
        raise NotPositiveDefinite(
            f"{name} is not positive definite: smallest eigenvalue {lo:.6e} "
            f"(largest {hi:.6e})"
        )


def spd_eigenvalues(m, name: str = "matrix") -> SymEigen:
    """Eigendecomposition of ``m`` after checking it is SPD.

    Rejects (rather than regularizes) matrices whose smallest eigenvalue is
    at or below SPD_RTOL * largest eigenvalue, reporting the offending
    eigenvalue.  The rule reads only their ratio, so a matrix and any
    positive multiple of it get one decision.
    """
    e = sym_eig(m)
    _reject_unless_spd(e.eigenvalues[-1], e.eigenvalues[0], name)
    return e


def assert_spd(m, name: str = "matrix") -> None:
    """Raise NotPositiveDefinite unless ``m`` is SPD per the spd_eigenvalues rule.

    Checks eigenvalues only: no eigenvectors are formed or kept.
    """
    w = np.linalg.eigvalsh(_symmetrized(_as_square(m, name)))
    _reject_unless_spd(w[0], w[-1], name)


def cholesky(m: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Lower Cholesky factor L of an exactly symmetric ``m``, Fortran-ordered; LinAlgError if none.

    potrf reads m.T, a C-ordered m's Fortran view: no transposing copy, and
    with ``overwrite`` a C-ordered m is factored in place.
    """
    l, info = lapack.dpotrf(m.T, lower=1, clean=1, overwrite_a=overwrite)
    if info != 0:
        raise np.linalg.LinAlgError(f"Cholesky factorization failed (potrf info {info})")
    return l


def certify_spd(m: np.ndarray, name: str = "matrix", scratch: np.ndarray | None = None) -> None:
    """assert_spd's decision for a symmetric ``m``, from one Cholesky when possible.

    hi = |m|_F (BLAS nrm2, which scales its sum of squares: no underflow at any
    scale) bounds the largest eigenvalue.  If m - 2 SPD_RTOL hi I
    has a Cholesky factor, the smallest eigenvalue clears assert_spd's floor
    by far more than rounding: accept.  Otherwise assert_spd decides, with
    its message.  The shifted copy is factored in place, in ``scratch`` if given.
    """
    hi = blas.dnrm2(m.ravel())
    shifted = np.empty_like(m) if scratch is None else scratch
    shifted[...] = m
    shifted.flat[:: m.shape[0] + 1] -= 2.0 * SPD_RTOL * hi
    try:
        cholesky(shifted, overwrite=True)
    except np.linalg.LinAlgError:
        assert_spd(m, name)


def spd_inv_sqrt(m) -> np.ndarray:
    """Symmetric inverse square root of an SPD matrix.

    Returns S with S @ m @ S = I; S is itself SPD and is returned exactly
    symmetric.
    """
    e = spd_eigenvalues(m, "matrix")
    s = (e.eigenvectors / np.sqrt(e.eigenvalues)) @ e.eigenvectors.T
    return _symmetrized(s)


# ---------------------------------------------------------------------------
# symmetric-definite generalized eigendecomposition
# ---------------------------------------------------------------------------


def generalized_eig(b, c) -> SymEigen:
    """Generalized eigendecomposition of the SPD pencil (B, C).

    Both matrices are validated, symmetrized and certified SPD, then solved by
    LAPACK (scipy.linalg.eigh(B, C)); the eigenvectors are rescaled to unit
    length.  Eigenvalues of (B, C) and (C, B) are reciprocal with collinear
    eigenvectors.
    """
    b = _as_square(b, "B")
    c = _as_square(c, "C")
    if b.shape != c.shape:
        raise DimensionMismatch(f"B and C must agree in shape, got {b.shape} and {c.shape}")
    b, c = _symmetrized(b), _symmetrized(c)
    certify_spd(b, "B")
    certify_spd(c, "C")
    e = _descending(*scipy.linalg.eigh(b, c, check_finite=False))
    return SymEigen(e.eigenvalues, e.eigenvectors / np.linalg.norm(e.eigenvectors, axis=0))


# ---------------------------------------------------------------------------
# row orthonormalization and principal angles
# ---------------------------------------------------------------------------


def orthonormalize_rows(a) -> np.ndarray:
    """Orthonormal basis of the row space of ``a``, as rows.

    The result spans the same row space (principal angles at the roundoff
    level) and is computed by QR on the transpose with the sign convention
    that makes the factorization deterministic: a single row comes back as
    itself normalized.  ``a`` passes check_rows at its own column count:
    finite, no more rows than columns, and of full row rank (else
    RankDeficient, with the detected rank).
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    q, rmat = np.linalg.qr(check_rows(a, a.shape[-1]).T)
    signs = np.sign(np.diag(rmat))
    signs[signs == 0.0] = 1.0
    return (q * signs).T


def principal_angles(a1, a2) -> np.ndarray:
    """Principal angles between the row spaces of two matrices.

    Mathematically these are arccos of the singular values of Q1.T @ Q2 for
    orthonormal bases Q1, Q2; computed with a per-angle sine/cosine split so
    each angle is resolved at full precision at both ends of [0, pi/2]
    (plain arccos loses small angles below the sqrt(machine-eps) floor, and
    a positional branch choice leaks that floor into small angles whenever
    small and large angles coexist).  Returned ascending, in [0, pi/2].
    """
    a1 = np.atleast_2d(_as_array(a1, "A1"))
    a2 = np.atleast_2d(_as_array(a2, "A2"))
    if a1.shape[1] != a2.shape[1]:
        raise DimensionMismatch(
            f"row spaces live in different ambient dimensions: {a1.shape} vs {a2.shape}"
        )
    q1 = scipy.linalg.orth(a1.T)
    q2 = scipy.linalg.orth(a2.T)
    if q1.shape[1] < q2.shape[1]:
        q1, q2 = q2, q1
    cross = q1.T @ q2
    # cosines descending <=> angles ascending
    cosines = np.clip(scipy.linalg.svdvals(cross), 0.0, 1.0)
    # sines of the same angles, ascending, from the orthogonal complement part
    residual = q2 - q1 @ cross
    sines = np.clip(np.sort(scipy.linalg.svdvals(residual)), 0.0, 1.0)
    small = cosines**2 >= 0.5
    return np.sort(np.where(small, np.arcsin(sines), np.arccos(cosines)))
