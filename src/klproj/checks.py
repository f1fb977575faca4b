"""Executable verification suite for the library's core guarantees.

Every check is deterministic (all randomness flows from frozen seeds) and
returns (passed, detail).  ``run`` times a check, names its result after the
function and turns a raise into a failed result, so the whole suite always
reports one line per guarantee.  ``klproj check`` prints the results; the
test suite asserts them one by one.

The two qualitative reproductions (the channel pipeline and the sampled
classification comparison) pin master seeds 2 and 1; the instance builders
derive every sub-seed from those, so the reported margins are stable.
"""

from __future__ import annotations

import contextlib
import io
import math
import tempfile
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
import scipy.linalg

from .evaluate import SweepTable, pairwise_preservation, plugin_classifier_train, sweep_r, sweep_violations
from .gaussian import (
    GaussianParams,
    LabeledDataset,
    chernoff_information,
    estimate_params,
    g_score,
    kld,
    kld_split,
)
from .linalg import orthonormalize_rows, principal_angles
from .projections import (
    _ranked,
    equal_mean_order_check,
    lol_projection,
    mean_first_projection,
    multiclass_lda,
    whitened_component_projection,
)
from .refine import AscentOptions, finite_difference_gradient, gradient_ascent, kld_gradient
from .synth import ChannelSpec, SpdSpec, embed_channel, random_class_params, random_spd, rng_from_seed, sample, sub_seeds


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check."""

    name: str
    passed: bool
    detail: str
    elapsed_s: float


def run(check) -> CheckResult:
    """Run one check, timed and named after its function; a raise is a failed result."""
    start = time.perf_counter()
    try:
        passed, detail = check()
    except Exception as exc:  # noqa: BLE001 - a crash is a failed check
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CheckResult(check.__name__, bool(passed), detail, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# frozen qualitative instances (shared by several checks)
# ---------------------------------------------------------------------------

# Target D_mu / D_sigma ratios for the two divergence regimes.  The mean
# rescaling below hits them exactly, and they sit decisively on either side
# of the r = 2 selection threshold (ratio 1).
_REGIME_TARGETS = {"mean_heavy": 6.0, "cov_heavy": 0.03}


def _rescale_means(p1: GaussianParams, p2: GaussianParams, target_ratio: float,
                   split=None) -> tuple[GaussianParams, GaussianParams]:
    """Scale both means by the factor that sets D_mu / D_sigma of ``split`` (default: the pair's)."""
    split = kld_split(p1, p2) if split is None else split
    c = math.sqrt(target_ratio / (split.d_mu / split.d_sigma))
    return GaussianParams(c * p1.mean, p1.covariance), GaussianParams(c * p2.mean, p2.covariance)


@lru_cache(maxsize=None)
def _channel_instance(regime: str) -> tuple[GaussianParams, GaussianParams]:
    """10-dim signal pair embedded into 100 dims through a fixed channel.

    The signal means are rescaled so the embedded pair lands exactly on the
    requested divergence regime; the channel and noise stay fixed, so the
    rescaling moves D_mu and nothing else.
    """
    target = _REGIME_TARGETS[regime]
    ss = sub_seeds(2, 4)
    sig1 = random_class_params(10, 0.1, 10.0, 1.0, ss[0])
    sig2 = random_class_params(10, 0.1, 10.0, 1.0, ss[1])
    chan = ChannelSpec(t=10, d=100, noise_var=1.0, seed=ss[2])
    x1, x2, _ = embed_channel(sig1, sig2, chan)
    sig1, sig2 = _rescale_means(sig1, sig2, target, kld_split(x1, x2))
    x1, x2, _ = embed_channel(sig1, sig2, chan)
    return x1, x2


@lru_cache(maxsize=None)
def _classification_instance(
    regime: str,
) -> tuple[GaussianParams, GaussianParams, LabeledDataset, LabeledDataset]:
    """6-dim class pair with 10000 train / 1000 test samples per class.

    The wide eigenvalue range [0.05, 20] keeps the raw mean-difference
    direction poorly aligned with the divergence-optimal one, which is what
    separates the baseline from the divergence-aware fits.
    """
    ss = sub_seeds(1, 8)
    p1 = random_class_params(6, 0.05, 20.0, 1.0, ss[0])
    p2 = random_class_params(6, 0.05, 20.0, 1.0, ss[1])
    p1, p2 = _rescale_means(p1, p2, _REGIME_TARGETS[regime])
    train, test = (LabeledDataset(np.vstack([sample(p1, n, ss[k]), sample(p2, n, ss[k + 1])]),
                                  np.repeat([1, 2], n)) for n, k in ((10000, 2), (1000, 4)))
    return p1, p2, train, test


# ---------------------------------------------------------------------------
# exact-identity checks
# ---------------------------------------------------------------------------


def equal_covariance_full_recovery() -> tuple[bool, str]:
    """One mean-first direction is exact when the covariances coincide."""
    seeds = sub_seeds(101, 300)
    worst = 0.0
    for i in range(100):
        cov = random_spd(SpdSpec(dim=20, eig_min=0.1, eig_max=10.0, seed=seeds[3 * i]))
        mu1 = rng_from_seed(seeds[3 * i + 1]).standard_normal(20)
        mu2 = rng_from_seed(seeds[3 * i + 2]).standard_normal(20)
        p1, p2 = GaussianParams(mu1, cov), GaussianParams(mu2, cov)
        full = kld(p1, p2)
        achieved = mean_first_projection(p1, p2, 1).achieved_kld
        worst = max(worst, abs(achieved - full) / full)
    return worst < 1e-8, f"max rel err {worst:.2e} over 100 instances (d=20, r=1), tol 1e-8"


def component_score_additivity() -> tuple[bool, str]:
    """The d whitened component divergences sum to the full divergence."""
    seeds = sub_seeds(102, 201)
    dims = rng_from_seed(seeds[200]).integers(2, 51, size=100)
    worst = 0.0
    for i in range(100):
        d = int(dims[i])
        p1 = random_class_params(d, 0.1, 10.0, 1.0, seeds[2 * i])
        p2 = random_class_params(d, 0.1, 10.0, 1.0, seeds[2 * i + 1])
        full = kld(p1, p2)
        total = whitened_component_projection(p1, p2, d).achieved_kld
        worst = max(worst, abs(total - full) / full)
    return worst < 1e-8, f"max rel err {worst:.2e} over 100 instances (2 <= d <= 50), tol 1e-8"


def equal_means_subspace_agreement() -> tuple[bool, str]:
    """With equal means the whitened fit spans the top-g directions of scipy's eigh(c2, c1)."""
    seeds = sub_seeds(103, 150)
    worst = 0.0
    for i in range(50):
        mean = rng_from_seed(seeds[3 * i]).standard_normal(20)
        c1 = random_spd(SpdSpec(dim=20, eig_min=0.1, eig_max=10.0, seed=seeds[3 * i + 1]))
        c2 = random_spd(SpdSpec(dim=20, eig_min=0.1, eig_max=10.0, seed=seeds[3 * i + 2]))
        p1, p2 = GaussianParams(mean, c1), GaussianParams(mean, c2)
        lam, vecs = scipy.linalg.eigh(c2, c1)
        order = _ranked(g_score(lam), lam)
        for r in (1, 3, 5):
            res = whitened_component_projection(p1, p2, r)
            reference = orthonormalize_rows(vecs[:, order[:r]].T)
            angle = principal_angles(res.matrix_original, reference).max()
            worst = max(worst, float(angle))
    return worst < 1e-8, f"max principal angle {worst:.2e} rad over 50 instances x r in (1,3,5), tol 1e-8"


def divergence_order_invariance() -> tuple[bool, str]:
    """One-sided pencil spectra make both divergence orders pick one subspace.

    Covariances ordered as S2 = S1 + positive (semi)definite put every pencil
    eigenvalue above 1, where the two orders rank directions identically; a
    constructed spectrum straddling 1 is kept as a negative control that the
    agreement is a property of the ordering, not of the comparison.
    """
    seeds = sub_seeds(104, 150)
    worst = 0.0
    for i in range(50):
        c1 = random_spd(SpdSpec(dim=20, eig_min=0.1, eig_max=10.0, seed=seeds[3 * i]))
        bump = rng_from_seed(seeds[3 * i + 1]).standard_normal((20, 20))
        c2 = c1 + (bump @ bump.T) / 20.0
        mean = rng_from_seed(seeds[3 * i + 2]).standard_normal(20)
        p1, p2 = GaussianParams(mean, c1), GaussianParams(mean, c2)
        for r in (1, 3, 5):
            _, _, angle = equal_mean_order_check(p1, p2, r)
            worst = max(worst, angle)
    control1 = GaussianParams(np.zeros(2), np.eye(2))
    control2 = GaussianParams(np.zeros(2), np.diag([4.0, 0.2]))
    _, _, control_angle = equal_mean_order_check(control1, control2, 1)
    return worst < 1e-8 and control_angle > 0.1, (
        f"max angle {worst:.2e} rad over 50 ordered instances (tol 1e-8); "
        f"straddling control disagrees at {control_angle:.3f} rad (> 0.1)")


def multiclass_pairwise_preservation() -> tuple[bool, str]:
    """K-1 common-covariance directions preserve every pairwise divergence."""
    seeds = sub_seeds(105, 120)
    worst_ratio = 0.0
    worst_angle = 0.0
    for i in range(20):
        sigma = random_spd(SpdSpec(dim=30, eig_min=0.1, eig_max=10.0, seed=seeds[6 * i]))
        means = [
            rng_from_seed(seeds[6 * i + 1 + k]).standard_normal(30) for k in range(5)
        ]
        params = [GaussianParams(mu, sigma) for mu in means]
        res = multiclass_lda(params)
        ratios = pairwise_preservation(params, res.matrix)
        off_diag = np.abs(ratios - 1.0)[~np.eye(5, dtype=bool)]
        worst_ratio = max(worst_ratio, float(off_diag.max()))
        target = np.vstack([np.linalg.solve(sigma, mu - means[0]) for mu in means[1:]])
        angle = principal_angles(res.matrix, orthonormalize_rows(target)).max()
        worst_angle = max(worst_angle, float(angle))
    return worst_ratio < 1e-8 and worst_angle < 1e-8, (
        f"max |ratio - 1| {worst_ratio:.2e}, max angle to the solved-means span "
        f"{worst_angle:.2e} rad over 20 instances (K=5, d=30), tol 1e-8")


# ---------------------------------------------------------------------------
# sweep bounds
# ---------------------------------------------------------------------------


def _sweep_violations(table: SweepTable, d: int) -> tuple[float, float, float]:
    """(worst monotonicity drop, worst bound excess, worst rel err at r=d).

    Gradient-refined rows join the upper-bound scan but not the
    monotonicity scan: each refined value is anchored to its own closed-form
    start, not to the refined value at the previous rank.
    """
    excesses, drops = sweep_violations(table.rows, table.full_kld)
    end_errs = [abs(value - table.full_kld) / table.full_kld for method, r, value in table.rows
                if r == d and method != "lda" and not method.endswith("_refined")]
    drop = max([0.0] + [size for size, _ in drops])
    excess = max([0.0] + [size for size, _ in excesses])
    return drop, excess, max(end_errs, default=math.inf)


def sweep_bounds_and_monotonicity() -> tuple[bool, str]:
    """Retained divergence grows with rank, stays bounded, and closes at r=d.

    Sweeps cover every instance family the other checks exercise: equal
    covariances, generic pairs, equal means, ordered covariances, a common
    covariance multiclass pair, both frozen channel regimes, and both
    frozen sampled-estimate regimes (plus one gradient-refined sweep).
    """
    sweeps: list[tuple[int, SweepTable]] = []

    seeds = sub_seeds(106, 3)
    cov = random_spd(SpdSpec(dim=20, eig_min=0.1, eig_max=10.0, seed=seeds[0]))
    p1 = GaussianParams(rng_from_seed(seeds[1]).standard_normal(20), cov)
    p2 = GaussianParams(rng_from_seed(seeds[2]).standard_normal(20), cov)
    sweeps.append((20, sweep_r(p1, p2, ["alg1", "alg2", "lda", "lol"], [1, 2, 5, 10, 20])))

    seeds = sub_seeds(116, 2)
    p1 = random_class_params(17, 0.1, 10.0, 1.0, seeds[0])
    p2 = random_class_params(17, 0.1, 10.0, 1.0, seeds[1])
    sweeps.append((17, sweep_r(p1, p2, ["alg1", "alg2", "lda", "lol"], [1, 3, 8, 17])))

    seeds = sub_seeds(126, 3)
    mean = rng_from_seed(seeds[0]).standard_normal(20)
    c1 = random_spd(SpdSpec(dim=20, eig_min=0.1, eig_max=10.0, seed=seeds[1]))
    c2 = random_spd(SpdSpec(dim=20, eig_min=0.1, eig_max=10.0, seed=seeds[2]))
    equal_mean_pair = (GaussianParams(mean, c1), GaussianParams(mean, c2))
    sweeps.append((20, sweep_r(*equal_mean_pair, ["alg1", "alg2", "lol"], [1, 3, 5, 20])))

    seeds = sub_seeds(136, 2)
    c1 = random_spd(SpdSpec(dim=20, eig_min=0.1, eig_max=10.0, seed=seeds[0]))
    bump = rng_from_seed(seeds[1]).standard_normal((20, 20))
    ordered_pair = (
        GaussianParams(np.zeros(20), c1),
        GaussianParams(np.zeros(20), c1 + (bump @ bump.T) / 20.0),
    )
    sweeps.append((20, sweep_r(*ordered_pair, ["alg1", "alg2", "lol"], [1, 3, 5, 20])))

    seeds = sub_seeds(146, 4)
    sigma = random_spd(SpdSpec(dim=10, eig_min=0.1, eig_max=10.0, seed=seeds[0]))
    k_means = [rng_from_seed(seeds[1 + k]).standard_normal(10) for k in range(3)]
    common_pair = (GaussianParams(k_means[0], sigma), GaussianParams(k_means[1], sigma))
    sweeps.append((10, sweep_r(*common_pair, ["alg1", "alg2", "lda", "lol"], [1, 2, 5, 10])))

    for regime in _REGIME_TARGETS:
        x1, x2 = _channel_instance(regime)
        sweeps.append((100, sweep_r(x1, x2, ["alg1", "alg2", "lol"], [1, 2, 3, 10, 100])))

    estimated = {}
    for regime in _REGIME_TARGETS:
        _, _, train, _ = _classification_instance(regime)
        e1 = estimate_params(train, 1)
        e2 = estimate_params(train, 2)
        estimated[regime] = (e1, e2)
        sweeps.append((6, sweep_r(e1, e2, ["alg1", "alg2", "lda", "lol"], range(1, 7))))
    e1, e2 = estimated["cov_heavy"]
    sweeps.append(
        (6, sweep_r(e1, e2, ["alg1", "alg2"], [1, 3, 6], refine=True,
                    options=AscentOptions(max_iters=200)))
    )

    drop = excess = 0.0
    end_err = 0.0
    for d, table in sweeps:
        vd, ve, vr = _sweep_violations(table, d)
        drop, excess, end_err = max(drop, vd), max(excess, ve), max(end_err, vr)
    return drop <= 1e-10 and excess <= 1e-8 and end_err < 1e-8, (
        f"{len(sweeps)} sweeps: worst rank-to-rank drop {drop:.2e} (tol 1e-10), "
        f"worst excess over full {excess:.2e} (tol 1e-8), "
        f"worst r=d rel err {end_err:.2e} (tol 1e-8)")


# ---------------------------------------------------------------------------
# gradient and qualitative reproductions
# ---------------------------------------------------------------------------


def gradient_finite_difference_agreement() -> tuple[bool, str]:
    """The assembled gradient matches central finite differences."""
    seeds = sub_seeds(107, 41)
    rng = rng_from_seed(seeds[40])
    worst = 0.0
    for i in range(20):
        d = int(rng.integers(2, 9))
        r = int(rng.integers(1, min(4, d) + 1))
        p1 = random_class_params(d, 0.2, 5.0, 1.0, seeds[2 * i])
        p2 = random_class_params(d, 0.2, 5.0, 1.0, seeds[2 * i + 1])
        a = rng.standard_normal((r, d))
        grad = kld_gradient(a, p1, p2)
        numeric = finite_difference_gradient(a, p1, p2)
        err = np.max(np.abs(grad - numeric) / np.maximum(1.0, np.abs(numeric)))
        worst = max(worst, float(err))
    return worst < 1e-5, f"max rel err {worst:.2e} over 20 instances (d <= 8, r <= 4), tol 1e-5"


def channel_regime_orderings() -> tuple[bool, str]:
    """Frozen channel pipeline: regime orderings and vanishing refinement.

    Mean-heavy regime: the mean-first fit beats the whitened fit at r=1.
    Covariance-heavy regime: the whitened fit is at least as good for
    r in {1,2,3}.  In both, gradient refinement never loses ground and its
    r=10 gain is below 0.1% of the full divergence.  At r in {1,2,3} every
    ascent converges, and the ascents from the two closed forms reach the
    same value within 1e-9 of the full divergence.
    """
    notes = []
    ok = True

    x1, x2 = _channel_instance("mean_heavy")
    split = kld_split(x1, x2)
    ok &= split.d_mu / split.d_sigma > 4.0
    lead = mean_first_projection(x1, x2, 1).achieved_kld
    trail = whitened_component_projection(x1, x2, 1).achieved_kld
    ok &= lead > trail
    notes.append(f"mean-heavy r=1: {lead:.1f} > {trail:.1f}")

    y1, y2 = _channel_instance("cov_heavy")
    split = kld_split(y1, y2)
    ok &= split.d_mu / split.d_sigma < 0.05
    pairs = []
    for r in (1, 2, 3):
        low = mean_first_projection(y1, y2, r).achieved_kld
        high = whitened_component_projection(y1, y2, r).achieved_kld
        ok &= high >= low
        pairs.append(f"{high:.1f}>={low:.1f}")
    notes.append("cov-heavy r=1..3: " + " ".join(pairs))

    # Improvement is read off the ascent's own objective trace: recorded
    # start vs recorded best.  Re-evaluating the returned matrix can differ
    # in the last couple of bits (BLAS rounding depends on buffer alignment),
    # which would turn an exact >= 0 guarantee into a ~1e-13 coin flip.
    options = AscentOptions(max_iters=1200)
    min_gain = math.inf
    worst_tail = worst_spread = 0.0
    converged = True
    for pair in ((x1, x2), (y1, y2)):
        full = kld(*pair)
        for r in (1, 2, 3, 10):
            traces = [gradient_ascent(fit(*pair, r).in_original_frame(), *pair, options)
                      for fit in (mean_first_projection, whitened_component_projection)]
            best = [max(f for _, f in trace.iterates) for trace in traces]
            gains = [b - trace.iterates[0][1] for b, trace in zip(best, traces)]
            min_gain = min(min_gain, *gains)
            if r == 10:
                worst_tail = max(worst_tail, max(gains) / full)
            else:
                converged &= all(trace.converged for trace in traces)
                worst_spread = max(worst_spread, abs(best[0] - best[1]) / full)
    ok &= min_gain >= 0.0 and worst_tail < 1e-3 and converged and worst_spread <= 1e-9
    notes.append(
        f"refinement: min gain {min_gain:.1e} (>= 0), worst r=10 gain {worst_tail:.2e} of full "
        f"(< 1e-3); r<=3: all converged {converged}, the two starts' bests {worst_spread:.1e} "
        f"of full apart (<= 1e-9)"
    )
    return ok, "; ".join(notes)


def classification_ordering_vs_baseline() -> tuple[bool, str]:
    """Frozen sampled comparison: divergence fits beat the pooled baseline.

    Parameters are estimated from 10000 training samples per class; in both
    regimes the mean-first and whitened fits each retain at least 10x the
    baseline's divergence at r=2 and strictly beat its plug-in accuracy on
    1000 held-out samples per class.
    """
    notes = []
    ok = True
    for regime in ("mean_heavy", "cov_heavy"):
        _, _, train, test = _classification_instance(regime)
        e1 = estimate_params(train, 1)
        e2 = estimate_params(train, 2)
        fits = {
            "alg1": mean_first_projection(e1, e2, 2),
            "alg2": whitened_component_projection(e1, e2, 2),
            "lol": lol_projection(e1, e2, 2),
        }
        scores = {}
        for tag, res in fits.items():
            model = plugin_classifier_train(train, res.in_original_frame())
            scores[tag] = (res.achieved_kld, model.score(test))
        base_kld, base_acc = scores["lol"]
        for tag in ("alg1", "alg2"):
            fit_kld, fit_acc = scores[tag]
            ok &= fit_kld >= 10.0 * base_kld
            ok &= fit_acc > base_acc
        notes.append(
            f"{regime}: kld {scores['alg1'][0]:.1f}/{scores['alg2'][0]:.1f} "
            f"vs {base_kld:.2f} (x10 required); acc {scores['alg1'][1]:.3f}/"
            f"{scores['alg2'][1]:.3f} vs {base_acc:.3f}"
        )
    return ok, "; ".join(notes)


def chernoff_kld_ratio_equal_covariance() -> tuple[bool, str]:
    """With equal covariances the Chernoff information is a quarter of the KLD."""
    seeds = sub_seeds(110, 150)
    worst = 0.0
    for i in range(50):
        cov = random_spd(SpdSpec(dim=15, eig_min=0.1, eig_max=10.0, seed=seeds[3 * i]))
        mu1 = rng_from_seed(seeds[3 * i + 1]).standard_normal(15)
        mu2 = rng_from_seed(seeds[3 * i + 2]).standard_normal(15)
        p1, p2 = GaussianParams(mu1, cov), GaussianParams(mu2, cov)
        target = kld(p1, p2) / 4.0
        worst = max(worst, abs(chernoff_information(p1, p2) - target) / target)
    return worst < 1e-6, f"max rel err {worst:.2e} over 50 instances (d=15), tol 1e-6"


def cli_rerun_determinism() -> tuple[bool, str]:
    """Rerunning every command with identical flags reproduces identical bytes."""
    from . import cli

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        chan, direct = str(base / "chan"), str(base / "direct")

        def pipeline() -> int:
            rc = 0
            quiet = io.StringIO()
            with contextlib.redirect_stdout(quiet):
                rc |= cli.main([
                    "gen", "--d", "12", "--t", "4", "--noise-var", "1.0",
                    "--seed", "7", "--out-dir", chan,
                ])
                rc |= cli.main([
                    "fit", "--params", f"{chan}/params_class1.json",
                    f"{chan}/params_class2.json", "--r", "2", "--method", "auto",
                    "--mode", "rule", "--refine", "--max-iters", "300",
                    "--out", f"{chan}/projection.json",
                ])
                rc |= cli.main([
                    "eval", "--projection", f"{chan}/projection.json",
                    "--params", f"{chan}/params_class1.json",
                    f"{chan}/params_class2.json", "--sweep-r", "1..6",
                    "--methods", "alg1,alg2,lol", "--density-grid",
                    "--resolution", "25", "--out-dir", chan,
                ])
                rc |= cli.main([
                    "gen", "--d", "5", "--classes", "2", "--n", "200",
                    "--n-test", "80", "--eig-min", "0.5", "--eig-max", "4.0",
                    "--seed", "3", "--out-dir", direct,
                ])
                rc |= cli.main([
                    "fit", "--dataset", f"{direct}/dataset.csv", "--r", "2",
                    "--method", "alg2", "--out", f"{direct}/projection.json",
                ])
                rc |= cli.main([
                    "eval", "--projection", f"{direct}/projection.json",
                    "--dataset", f"{direct}/dataset.csv", "--classify",
                    "--train", f"{direct}/dataset.csv",
                    "--test", f"{direct}/test.csv", "--scatter",
                    "--out-dir", direct,
                ])
            return rc

        def snapshot() -> dict:
            return {
                str(p.relative_to(base)): p.read_bytes()
                for p in sorted(base.rglob("*"))
                if p.is_file()
            }

        rc1 = pipeline()
        first = snapshot()
        rc2 = pipeline()
        second = snapshot()

    same = set(first) == set(second) and all(first[k] == second[k] for k in first)
    changed = sorted(
        set(first) ^ set(second)
        | {k for k in set(first) & set(second) if first[k] != second[k]}
    )
    passed = rc1 == 0 and rc2 == 0 and same
    detail = (
        f"{len(first)} artifacts byte-identical across reruns"
        if same
        else f"artifacts differ between reruns: {', '.join(changed[:6])}"
    )
    if rc1 != 0 or rc2 != 0:
        detail += f" (exit codes {rc1}, {rc2})"
    return passed, detail


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

ALL_CHECKS = (
    equal_covariance_full_recovery,
    component_score_additivity,
    equal_means_subspace_agreement,
    divergence_order_invariance,
    multiclass_pairwise_preservation,
    sweep_bounds_and_monotonicity,
    gradient_finite_difference_agreement,
    channel_regime_orderings,
    classification_ordering_vs_baseline,
    chernoff_kld_ratio_equal_covariance,
    cli_rerun_determinism,
)


def run_all() -> list[CheckResult]:
    """Run every check in ALL_CHECKS, one result each."""
    return [run(check) for check in ALL_CHECKS]
