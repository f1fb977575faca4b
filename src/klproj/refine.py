"""Monotone ascent on retained divergence, in the class pair's eigenframe.

A pair factored once (``projections._ClassPair``) maps x -> U^T L^-1 (x - m1):
class 1 becomes N(0, I) and class 2 N(m, diag(lambda)).  For orthonormal rows W
the retained divergence there is f(W) = 1/2 [tr M^-1 - r + log det M + b^T M^-1 b]
with M = W diag(lambda) W^T = R^T R and b = W m, read off R (``_frame_value``):
O(r^2 d), and M is SPD for every W.  f depends only on the row space, so ascent
moves on the Grassmannian (Edelman, Arias & Smith 1998; Absil, Mahony &
Sepulchre 2008): a Riemannian gradient step scaled by the Hessian's diagonal, a
QR retraction and Armijo backtracking.  No step size is set, no step loses
ground, and the run does not depend on the data's linear frame.  From a closed
form, ascent certifies it or improves it.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .errors import NonPositiveInput
from .gaussian import GaussianParams, _check_classes, kld_projected
from .linalg import check_rows, orthonormalize_rows
from .projections import FRAME_ORIGINAL, ProjectionResult, _ClassPair, _frame_value
from .synth import rng_from_seed


# A point is converged once the step's gain rate <g, step> is at most _GRAD_RTOL max(1, f).
_GRAD_RTOL = 1e-11
# Armijo's sufficient-gain fraction; a search halves the unit step up to 40 times, to 9e-13.
_ARMIJO, _HALVINGS = 1e-4, 40
# Hessian diagonal magnitudes are raised to at least this fraction of the largest.
_CURVATURE_RTOL = 1e-8
# A run plateaus once its last ``patience`` steps gain at most _REL_TOL max(1, f).
_REL_TOL = 1e-9


@dataclass(frozen=True)
class AscentOptions:
    """Stopping rules, each >= 1: an iteration cap and the plateau window ``patience``."""

    max_iters: int = 5000
    patience: int = 50

    def __post_init__(self):
        if self.max_iters < 1:
            raise NonPositiveInput(f"max_iters must be >= 1, got {self.max_iters}")
        if self.patience < 1:
            raise NonPositiveInput(f"patience must be >= 1, got {self.patience}")


@dataclass(frozen=True)
class AscentTrace:
    """Objective path of one ascent run.

    ``iterates`` holds (iteration, objective) pairs, nondecreasing: f in the
    pair's frame, kld_projected of the iterate up to rounding.  ``final_matrix``
    is the last and best iterate, in the original frame.  ``reason`` is
    "converged", "plateau" or "max_iters"; ``converged`` holds for the first.
    """

    iterates: list = field(repr=False)
    final_matrix: np.ndarray = field(repr=False)
    converged: bool = False
    iterations_run: int = 0
    reason: str = "max_iters"


def kld_gradient(a, p1: GaussianParams, p2: GaussianParams) -> np.ndarray:
    """Gradient of kld_projected in the projection matrix: the ascent's gradient, carried back.

    The pair's ``frame_rows`` gives A L U = R^T W, W orthonormal rows of the pair frame.
    _frame_point's f is invariant under W -> G W (G invertible), so its Riemannian
    gradient g is the full gradient at W, and grad = R^-1 g (L U)^T.  Defined for every
    full-row-rank A (it vanishes at r = d); one pair factorization, O(d^3), per call.
    """
    pair = _ClassPair(p1, p2)
    w, r = pair.frame_rows(check_rows(a, p1.dim))
    g = _frame_point(w, pair.eigenvalues, pair.eig_mean)[1]
    return solve_triangular(r, (pair.factor @ pair.combine(g.T)).T, check_finite=False)


def _frame_point(w: np.ndarray, lam: np.ndarray, m: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(f, Riemannian gradient g, ascent step) at orthonormal rows ``w`` of the pair frame.

    With f, M^-1 = R^-1 R^-T and c = M^-1 b from M = R^T R (``_frame_value``) and
    K = M^-1 - M^-2 - c c^T, f's gradient is G = K W diag(lambda) + c m^T and g = G - (G W^T) W.  With K = V diag(kappa) V^T and S = G W^T (= K M + c b^T),
    |s_i - kappa_i lambda_j|, s = diag(V^T S V), is the Riemannian Hessian's diagonal in the
    rotated rows V^T W, up to sign; the step divides V^T g by it, rotates back and projects.
    """
    f, rinv, t = _frame_value(w, lam, m)
    minv, c = rinv @ rinv.T, rinv @ t
    k = minv - minv @ minv - np.outer(c, c)
    grad = k @ (w * lam) + np.outer(c, m)
    gw = grad @ w.T
    g = grad - gw @ w
    kappa, v = np.linalg.eigh(k)
    curv = np.abs(np.einsum("ji,jk,ki->i", v, gw, v)[:, None] - kappa[:, None] * lam)
    # a Hessian diagonal that is 0 throughout means a flat objective: leave g unscaled
    step = v @ ((v.T @ g) / np.maximum(curv, _CURVATURE_RTOL * curv.max() or 1.0))
    return f, g, step - (step @ w.T) @ w


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
    """Maximize retained divergence from a0 by monotone ascent in the pair's frame.

    ``a0`` is checked once and the pair factored once.  The run stops
    "converged" once the scaled step's gain rate <g, step> is at most
    1e-11 max(1, f); "plateau" when no halving of the step gains, or the last
    ``patience`` steps gained at most 1e-9 max(1, f); else "max_iters".
    """
    a = check_rows(a0, _check_classes(p1, p2))
    return _ascend(_ClassPair(p1, p2), a, options)


def _ascend(pair: _ClassPair, a: np.ndarray, options: AscentOptions | None) -> AscentTrace:
    opts, lam, m = options or AscentOptions(), pair.eigenvalues, pair.eig_mean
    w = pair.frame_rows(a)[0]
    f, g, step = _frame_point(w, lam, m)
    iterates, reason = [(0, f)], "max_iters"
    for t in range(1, opts.max_iters + 1):
        rate = float(np.sum(g * step))
        if rate <= _GRAD_RTOL * max(1.0, f):
            reason = "converged"
            break
        for size in 0.5 ** np.arange(_HALVINGS + 1):
            trial = np.linalg.qr((w + size * step).T)[0].T
            point = _frame_point(trial, lam, m)
            if point[0] >= f + _ARMIJO * size * rate:
                break
        else:
            reason = "plateau"
            break
        w, (f, g, step) = trial, point
        iterates.append((t, f))
        if t >= opts.patience and f - iterates[t - opts.patience][1] <= _REL_TOL * max(1.0, f):
            reason = "plateau"
            break
    # W y = W U^T L^-1 (x - m1): original-frame rows (L^-T U W^T)^T
    final = pair.unwhiten(pair.combine(w.T)).T
    return AscentTrace(iterates, final, reason == "converged", len(iterates) - 1, reason)


def refine_fit(
    pair: _ClassPair,
    result: ProjectionResult,
    options: AscentOptions | None = None,
) -> tuple[ProjectionResult, AscentTrace]:
    """Refine a closed-form fit of ``pair``'s classes by ascent; the refined fit never retains less.

    The ascent runs in the caller's pair from the fit's original-frame rows.  The
    result holds its best iterate, orthonormalized, and the ascent's value there,
    or the start's rows and value where rounding puts that below the fit's.  It
    is tagged "<method>_refined", in the original frame, with the fit's warnings.
    """
    start = result.in_original_frame()
    trace = _ascend(pair, start, options)
    matrix, value = orthonormalize_rows(trace.final_matrix), trace.iterates[-1][1]
    if value < result.achieved_kld:
        matrix, value = start, result.achieved_kld
    refined = ProjectionResult(matrix, FRAME_ORIGINAL, f"{result.method}_refined", value,
                               warnings=result.warnings)
    return refined, trace
