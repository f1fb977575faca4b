"""Dense symmetric linear algebra kernels.

Everything downstream (divergence evaluation, projection construction,
refinement) is built on the operations here: symmetric eigendecomposition
with a deterministic ordering, SPD validation (one Cholesky; eigenvalues near
the floor), SPD inverse square root, Cholesky whitening of a symmetric-definite
pencil (the code a class pair in ``projections`` is factored with, once) and
its generalized eigenvectors, row orthonormalization, and principal angles
between row spaces.  All routines work in float64 and validate their inputs.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NonFiniteInput, NotPositiveDefinite, RankDeficient

# Relative floor (times max(1, largest eigenvalue)) under which a symmetric
# matrix is rejected as not positive definite.
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


def _symmetrized(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2.0


def numerical_rank(a: np.ndarray, rtol: float = RANK_RTOL) -> int:
    """Number of singular values above rtol * sigma_max."""
    s = np.linalg.svd(np.atleast_2d(a), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))


# ---------------------------------------------------------------------------
# symmetric eigendecomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymEigen:
    """Eigendecomposition of a symmetric matrix.

    eigenvalues are sorted descending; eigenvectors[:, i] pairs with
    eigenvalues[i].  Ties keep the order produced by the underlying
    factorization (stable sort), so results are deterministic.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eig(m) -> SymEigen:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    The input is symmetrized as (M + M.T) / 2 before factorization, which
    also makes the call safe for matrices that are symmetric only up to
    roundoff.
    """
    return _descending(*np.linalg.eigh(_symmetrized(_as_square(m, "matrix"))))


def _descending(w: np.ndarray, v: np.ndarray) -> SymEigen:
    order = np.argsort(-w, kind="stable")
    return SymEigen(eigenvalues=w[order], eigenvectors=v[:, order])


def _reject_unless_spd(lo: float, hi: float, name: str) -> None:
    if lo <= SPD_RTOL * max(1.0, hi):
        raise NotPositiveDefinite(
            f"{name} is not positive definite: smallest eigenvalue {lo:.6e} "
            f"(largest {hi:.6e})"
        )


def spd_eigenvalues(m, name: str = "matrix") -> SymEigen:
    """Eigendecomposition of ``m`` after checking it is SPD.

    Rejects (rather than regularizes) matrices whose smallest eigenvalue is
    at or below SPD_RTOL * max(1, largest eigenvalue), reporting the
    offending eigenvalue.
    """
    e = sym_eig(_as_square(m, name))
    _reject_unless_spd(e.eigenvalues[-1], e.eigenvalues[0], name)
    return e


def assert_spd(m, name: str = "matrix") -> None:
    """Raise NotPositiveDefinite unless ``m`` is SPD per the spd_eigenvalues rule.

    Checks eigenvalues only: no eigenvectors are formed or kept.
    """
    w = np.linalg.eigvalsh(_symmetrized(_as_square(m, name)))
    _reject_unless_spd(w[0], w[-1], name)


def certify_spd(m: np.ndarray, name: str = "matrix") -> None:
    """assert_spd's decision for a symmetric ``m``, from one Cholesky when possible.

    hi = |m|_F bounds the largest eigenvalue.  If m - 2 SPD_RTOL max(1, hi) I
    has a Cholesky factor, the smallest eigenvalue clears assert_spd's floor
    by far more than rounding: accept.  Otherwise assert_spd decides, with
    its message.
    """
    hi = np.sqrt(np.vdot(m, m))
    shifted = m.copy()
    shifted.flat[:: m.shape[0] + 1] -= 2.0 * SPD_RTOL * max(1.0, hi)
    try:
        np.linalg.cholesky(shifted)
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


@dataclass(frozen=True)
class GenEigen:
    """Solution of B v = lambda C v for SPD B and C.

    eigenvalues are real, positive, and sorted descending; eigenvectors[:, i]
    has unit Euclidean norm.  The eigenvectors are C-orthogonal but not, in
    general, orthonormal.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


class WhitenedPencil:
    """The pencil (B, C) whitened once by the Cholesky factor C = L L^T.

    ``factor`` is L (the caller's, if it holds one) and ``eig`` (U, lambda)
    the eigendecomposition of the whitened L^-1 B L^-T (LAPACK sygst), the
    pencil's only d x d one.  The unit generalized eigenvectors, the
    normalized columns of L^-T U (``pencil``), are computed on first use.
    """

    def __init__(self, b, c, factor: np.ndarray | None = None):
        self.factor = np.linalg.cholesky(c) if factor is None else factor
        # sygst leaves L^-1 B L^-T in the lower triangle, the one eigh reads
        w, _ = scipy.linalg.lapack.dsygst(b, self.factor, itype=1, lower=1)
        self.eig = _descending(*np.linalg.eigh(w))

    def unwhiten(self, u: np.ndarray) -> np.ndarray:
        """L^-T u: whitened-frame directions (columns) as original-frame ones."""
        return scipy.linalg.solve_triangular(self.factor, u, lower=True, trans="T")

    @cached_property
    def pencil(self) -> GenEigen:
        vecs = self.unwhiten(self.eig.eigenvectors)
        return GenEigen(eigenvalues=self.eig.eigenvalues,
                        eigenvectors=vecs / np.linalg.norm(vecs, axis=0))


def generalized_eig(b, c) -> GenEigen:
    """Generalized eigendecomposition of the SPD pencil (B, C).

    Solved by Cholesky reduction (WhitenedPencil): with C = L L^T, the
    symmetric problem L^-1 B L^-T u = lambda u is factored and v = L^-T u is
    renormalized to unit length.  Eigenvalues of (B, C) and (C, B) are
    reciprocal with collinear eigenvectors.
    """
    b = _as_square(b, "B")
    c = _as_square(c, "C")
    if b.shape != c.shape:
        raise DimensionMismatch(f"B and C must agree in shape, got {b.shape} and {c.shape}")
    b, c = _symmetrized(b), _symmetrized(c)
    certify_spd(b, "B")
    certify_spd(c, "C")
    return WhitenedPencil(b, c).pencil


# ---------------------------------------------------------------------------
# row orthonormalization and principal angles
# ---------------------------------------------------------------------------


def orthonormalize_rows(a) -> np.ndarray:
    """Orthonormal basis of the row space of ``a``, as rows.

    The result spans the same row space (principal angles at the roundoff
    level) and is computed by QR on the transpose with the sign convention
    that makes the factorization deterministic: a single row comes back as
    itself normalized.  Raises RankDeficient (with the detected rank) when
    the rows are numerically dependent.
    """
    a = np.atleast_2d(_as_array(a, "matrix"))
    r, d = a.shape
    if r > d:
        raise DimensionMismatch(f"need rows <= columns, got shape {a.shape}")
    rank = numerical_rank(a)
    if rank < r:
        raise RankDeficient(
            f"rows are numerically dependent: rank {rank} < {r}", rank=rank
        )
    q, rmat = np.linalg.qr(a.T)
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
