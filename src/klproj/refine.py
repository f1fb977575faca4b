"""Gradient ascent on retained divergence, without orthogonality constraints.

The retained divergence f(A) = kld_projected(A, p1, p2) is differentiable in
the projection matrix A wherever both projected covariances stay positive
definite, and is invariant under row-space-preserving changes A -> T A, so
ascent explores subspaces even though it moves through matrices.  The
closed-form constructions are excellent starting points; ascent either
certifies them (no improvement) or squeezes out the remainder.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve

from .errors import NonPositiveInput, NotPositiveDefinite, NumericalError
from .gaussian import GaussianParams, _check_projection, _check_same_dim, kld, kld_projected
from .linalg import orthonormalize_rows
from .projections import FRAME_ORIGINAL, ProjectionResult
from .synth import rng_from_seed


# Adam's moment decay rates and the guard added to its step's denominator.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8
# A run plateaus once its gain over the last ``patience`` steps is at most
# this, relative to max(1, |objective|).
_REL_TOL = 1e-9


@dataclass(frozen=True)
class AscentOptions:
    """Adam step size and stopping rules.

    Stopping is plateau based: after ``patience`` iterations, the run
    converges once the objective gain over the last ``patience`` steps drops
    below ``_REL_TOL`` relative to the objective scale.  A run takes at least
    one step: ``max_iters`` must be >= 1.
    """

    learning_rate: float = 1e-2
    max_iters: int = 5000
    patience: int = 50

    def __post_init__(self):
        if self.max_iters < 1:
            raise NonPositiveInput(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class AscentTrace:
    """Objective path of one ascent run.

    ``iterates`` holds (iteration, objective) pairs; each objective is exactly
    kld_projected at that iterate, read off the same validated projected classes.
    ``final_matrix`` is the best-objective iterate encountered (so the final
    objective never falls below the initial one).  ``reason`` is "plateau",
    "max_iters", or "singular_boundary" when a step could not be shrunk back
    into the positive definite region.
    """

    iterates: list = field(repr=False)
    final_matrix: np.ndarray = field(repr=False)
    converged: bool = False
    iterations_run: int = 0
    reason: str = "max_iters"


def kld_gradient(a, p1: GaussianParams, p2: GaussianParams) -> np.ndarray:
    """Gradient of kld_projected with respect to the projection matrix.

    With M_k = A S_k A^T, delta = m2 - m1, and w = M2^-1 A delta:

        grad = M2^-1 A S2 - M1^-1 A S1 + M2^-1 A S1
               - M2^-1 M1 M2^-1 A S2 + w delta^T - w w^T A S2.

    The derivation mirrors the three terms of the divergence (log-determinant
    ratio, trace, Mahalanobis); central finite differences reproduce it to
    first order and serve as the ground truth in the test suite.  The M_k^-1
    solves read the factors of the projected classes that kld_projected validates.
    """
    return _value_and_gradient(_check_projection(a, _check_same_dim(p1, p2)), p1, p2)[1]


def _value_and_gradient(a: np.ndarray, p1: GaussianParams, p2: GaussianParams) -> tuple[float, np.ndarray]:
    """(kld_projected, kld_gradient) at a checked ``a``, from one pair of projected classes.

    No rank check: rank below RANK_RTOL fails the SPD floor, as cond(S) < 1e10.
    """
    as1 = a @ p1.covariance
    as2 = a @ p2.covariance
    m1 = as1 @ a.T
    m2 = as2 @ a.T
    q1 = GaussianParams(a @ p1.mean, (m1 + m1.T) / 2.0)
    q2 = GaussianParams(a @ p2.mean, (m2 + m2.T) / 2.0)
    c1, c2 = (q1.factor, True), (q2.factor, True)
    delta = p2.mean - p1.mean
    w = cho_solve(c2, a @ delta)
    x2 = cho_solve(c2, as2)
    return kld(q1, q2), (
        x2
        - cho_solve(c1, as1)
        + cho_solve(c2, as1)
        - cho_solve(c2, m1 @ x2)  # m1 unsymmetrized: symmetrizing moves the last bits
        + np.outer(w, delta)
        - np.outer(w, as2.T @ w)
    )


def finite_difference_gradient(a, p1: GaussianParams, p2: GaussianParams) -> np.ndarray:
    """Central-difference gradient of kld_projected, entry by entry, at step 1e-5."""
    h = 1e-5
    a = np.atleast_2d(np.asarray(a, dtype=float))
    grad = np.zeros_like(a)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            bump = np.zeros_like(a)
            bump[i, j] = h
            grad[i, j] = (
                kld_projected(a + bump, p1, p2) - kld_projected(a - bump, p1, p2)
            ) / (2.0 * h)
    return grad


def random_initial_matrix(r: int, d: int, seed: int) -> np.ndarray:
    """Standard normal r x d matrix with rows rescaled to unit norm."""
    a = rng_from_seed(seed).standard_normal((r, d))
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def gradient_ascent(
    a0,
    p1: GaussianParams,
    p2: GaussianParams,
    options: AscentOptions | None = None,
) -> AscentTrace:
    """Maximize retained divergence from a0 with Adam.

    ``a0`` is checked once, at entry; each candidate's objective and gradient
    share its one pair of validated projected classes.  A proposed update that
    pushes a projected covariance out of the positive definite cone (or the
    objective out of the finite range) is halved up to 20 times; if no scale of
    it is admissible the run stops with converged=False and reason
    "singular_boundary".  The returned final_matrix is the best iterate seen,
    so refinement never loses ground against its starting point.
    """
    opts = options or AscentOptions()
    a = _check_projection(a0, _check_same_dim(p1, p2))
    f, g = _value_and_gradient(a, p1, p2)
    best_f, best_a = f, a.copy()
    iterates = [(0, f)]
    m = np.zeros_like(a)
    v = np.zeros_like(a)
    reason = "max_iters"
    for t in range(1, opts.max_iters + 1):
        m = _BETA1 * m + (1.0 - _BETA1) * g
        v = _BETA2 * v + (1.0 - _BETA2) * g * g
        m_hat = m / (1.0 - _BETA1**t)
        v_hat = v / (1.0 - _BETA2**t)
        step = opts.learning_rate * m_hat / (np.sqrt(v_hat) + _EPS)

        for _ in range(21):
            try:
                f, g = _value_and_gradient(a + step, p1, p2)
            except (NotPositiveDefinite, NumericalError):
                f = np.nan
            if np.isfinite(f):
                break
            step = step / 2.0
        else:
            reason = "singular_boundary"
            break

        a = a + step
        iterates.append((t, f))
        if f > best_f:
            best_f, best_a = f, a.copy()
        if t >= opts.patience:
            anchor = iterates[t - opts.patience][1]
            if f - anchor <= _REL_TOL * max(1.0, abs(anchor)):
                reason = "plateau"
                break
    return AscentTrace(
        iterates=iterates,
        final_matrix=best_a,
        converged=reason == "plateau",
        iterations_run=t,
        reason=reason,
    )


def refine_fit(
    result: ProjectionResult,
    p1: GaussianParams,
    p2: GaussianParams,
    options: AscentOptions | None = None,
) -> tuple[ProjectionResult, AscentTrace]:
    """Refine a closed-form fit by ascent; the refined fit never retains less.

    The ascent starts from the fit's original-frame rows; its best iterate is
    orthonormalized and re-evaluated.  Rounding in that re-evaluation can land
    below the start, and then the start's rows and value are kept.  The result
    is tagged "<method>_refined", in the original frame, with the fit's warnings.
    """
    start = result.in_original_frame()
    trace = gradient_ascent(start, p1, p2, options)
    matrix = orthonormalize_rows(trace.final_matrix)
    value = kld_projected(matrix, p1, p2)
    if value < result.achieved_kld:
        matrix, value = start, result.achieved_kld
    refined = ProjectionResult(matrix, FRAME_ORIGINAL, f"{result.method}_refined", value,
                               warnings=result.warnings)
    return refined, trace
