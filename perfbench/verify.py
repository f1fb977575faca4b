"""Output checks, computed apart from klproj or from a property the method must have.

Nothing here calls klproj.  Each check takes plain arrays or parsed
artifacts and returns a list of messages, one per violation; an empty list
means the output passed.
"""

import numpy as np

# Relative agreement required between a reported divergence and the
# independent recomputation, and the slack allowed on bounds that hold
# exactly in exact arithmetic (data processing, nondecreasing sweeps, a
# refinement that never loses ground: klproj recomputes the refined value
# from re-orthonormalized rows, which can land a rounding error below the
# initial value).
RTOL = 1e-8


def gaussian_kl(m1, s1, m2, s2):
    """D(N(m1, S1) || N(m2, S2)) in nats, from slogdet and solve."""
    sign1, logdet1 = np.linalg.slogdet(s1)
    sign2, logdet2 = np.linalg.slogdet(s2)
    if sign1 <= 0 or sign2 <= 0:
        raise ValueError("covariance is not positive definite")
    delta = m2 - m1
    trace = np.trace(np.linalg.solve(s2, s1))
    quad = delta @ np.linalg.solve(s2, delta)
    return float(0.5 * (logdet2 - logdet1 - len(m1) + trace + quad))


def projected_kl(a, m1, s1, m2, s2):
    """Divergence between the classes pushed through x -> A x."""
    a = np.atleast_2d(a)
    return gaussian_kl(a @ m1, a @ s1 @ a.T, a @ m2, a @ s2 @ a.T)


def agree(what, value, reference, rtol=RTOL):
    """A violation unless ``value`` matches ``reference`` to relative ``rtol``."""
    if not abs(value - reference) <= rtol * abs(reference):
        return [f"{what}: reported {value!r}, independent {reference!r}"]
    return []


def _within_full(what, retained, full):
    if not retained <= full * (1.0 + RTOL):
        return [f"{what}: retained {retained!r} exceeds full divergence {full!r}"]
    return []


def check_fit(what, rows, achieved, full, pair, full_ref, require_full=False):
    """A closed-form fit: orthonormal rows, retained and full divergence recomputed."""
    problems = []
    rows = np.atleast_2d(rows)
    ortho = float(np.max(np.abs(rows @ rows.T - np.eye(rows.shape[0]))))
    if not ortho <= 1e-8:
        problems.append(f"{what}: rows are not orthonormal (max |A A^T - I| = {ortho:.3e})")
    retained = projected_kl(rows, *pair)
    problems += agree(f"{what} achieved_kld", achieved, retained)
    problems += agree(f"{what} full kld", full, full_ref)
    problems += _within_full(what, retained, full_ref)
    if require_full and not retained >= full_ref * (1.0 - RTOL):
        problems.append(f"{what}: r >= t but retains only {retained / full_ref:.10f} of the divergence")
    return problems


def check_ascent(what, objectives, final_matrix, pair, full_ref):
    """One ascent run: never loses ground, final matrix scores the best objective."""
    problems = []
    best = max(objectives)
    if not best >= objectives[0]:
        problems.append(f"{what}: best objective {best!r} below the start {objectives[0]!r}")
    problems += agree(f"{what} best objective", best, projected_kl(final_matrix, *pair))
    problems += _within_full(what, best, full_ref)
    return problems


def check_sample_means(samples, labels, params):
    """Each class's sample mean lies within 5 standard errors of its mean, per coordinate."""
    problems = []
    for label, (mean, cov) in enumerate(params, start=1):
        x = samples[labels == label]
        se = np.sqrt(np.diag(cov) / len(x))
        z = float(np.max(np.abs(x.mean(axis=0) - mean) / se))
        if not z <= 5.0:
            problems.append(f"class {label}: sample mean is {z:.2f} standard errors from its mean")
    return problems


def check_projection_record(what, record, pair, full_ref):
    """A fit artifact: achieved_kld and full_kld recomputed; refinement never loses ground."""
    rows = np.array(record.get("matrix_original") or record["matrix"], dtype=float)
    problems = agree(f"{what} achieved_kld", record["achieved_kld"], projected_kl(rows, *pair))
    problems += agree(f"{what} full_kld", record["full_kld"], full_ref)
    refinement = record.get("refinement")
    if refinement and not refinement["refined_kld"] >= refinement["initial_kld"] * (1.0 - RTOL):
        problems.append(f"{what}: refined_kld {refinement['refined_kld']!r} "
                        f"< initial_kld {refinement['initial_kld']!r}")
    return problems


def check_sweep(rows, full, full_ref, t):
    """Sweep rows: bounded by the full divergence, nondecreasing, alg2 exact at r = t."""
    problems = agree("sweep full_kld", full, full_ref)
    by_method = {}
    for method, r, value in rows:
        problems += _within_full(f"sweep {method} r={r}", value, full_ref)
        by_method.setdefault(method, []).append((r, value))
    for method in ("alg1", "alg2", "lol"):
        pairs = sorted(by_method.get(method, []))
        if not pairs:
            problems.append(f"sweep has no {method} rows")
        for (r_lo, v_lo), (r_hi, v_hi) in zip(pairs, pairs[1:]):
            if not v_hi >= v_lo - RTOL * full_ref:
                problems.append(f"sweep {method} decreases from r={r_lo} ({v_lo!r}) to r={r_hi} ({v_hi!r})")
    at_t = dict(by_method.get("alg2", [])).get(t)
    if at_t is None:
        problems.append(f"sweep has no alg2 row at r={t}")
    else:
        problems += agree(f"sweep alg2 at r={t}", at_t, full_ref)
    return problems


def qda_accuracy(train_x, train_y, test_x, test_y, a):
    """Test accuracy of a Gaussian plug-in (QDA) classifier fit in the space x -> A x."""
    z_train, z_test = train_x @ a.T, test_x @ a.T
    labels = np.unique(train_y)
    scores = []
    for label in labels:
        z = z_train[train_y == label]
        mean = z.mean(axis=0)
        cov = np.atleast_2d(np.cov(z, rowvar=False))
        centered = z_test - mean
        quad = np.sum(centered * np.linalg.solve(cov, centered.T).T, axis=1)
        logdet = np.linalg.slogdet(cov)[1]
        scores.append(np.log(len(z) / len(train_y)) - 0.5 * (logdet + quad))
    predicted = labels[np.argmax(np.column_stack(scores), axis=1)]
    return float(np.mean(predicted == test_y))


def check_accuracy(what, reported, independent, n_test):
    if not abs(reported - independent) <= 1.0 / n_test + 1e-12:
        return [f"{what}: accuracy {reported!r}, independent QDA {independent!r}"]
    return []


def check_grid_mass(grid):
    """Each class's density integrates to 1 within 1e-3 over the grid (trapezoid rule).

    ``grid`` is the density CSV as an array of rows (x, y, class, density),
    x outer and y inner, one block per class.
    """
    problems = []
    for label in (1, 2):
        block = grid[grid[:, 2] == label]
        xs, ys = np.unique(block[:, 0]), np.unique(block[:, 1])
        if len(xs) * len(ys) != len(block):
            problems.append(f"density grid class {label} is not a full {len(xs)} x {len(ys)} grid")
            continue
        values = block[:, 3].reshape(len(xs), len(ys))
        mass = float(np.trapezoid(np.trapezoid(values, ys, axis=1), xs))
        if not abs(mass - 1.0) <= 1e-3:
            problems.append(f"density grid class {label} has mass {mass!r}")
    return problems


def check_identical(first, later):
    """Artifact digests of a later pass equal those of the first pass."""
    problems = []
    for path in sorted(set(first) | set(later)):
        if first.get(path) != later.get(path):
            problems.append(f"artifact {path} differs between passes")
    return problems
