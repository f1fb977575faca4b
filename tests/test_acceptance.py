"""End-to-end acceptance gates, one test per verification criterion.

Each test runs one named check from klproj.checks, prints its PASS/FAIL line
with the measured values, and asserts both the outcome and the runtime
budget where one applies.  Tolerances live inside the checks themselves so
the command line ``check`` subcommand enforces exactly the same gates.
"""

from klproj import checks


def _gate(check, budget_s=None):
    result = checks.run(check)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name} ({result.elapsed_s:.2f} s): {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"
    if budget_s is not None:
        assert result.elapsed_s < budget_s, (
            f"{result.name} took {result.elapsed_s:.2f} s (budget {budget_s} s)"
        )


def test_criterion_01_equal_covariance_full_recovery():
    # one discriminant direction retains the full divergence; 100 instances,
    # rel tol 1e-8, under 5 s
    _gate(checks.equal_covariance_full_recovery, budget_s=5.0)


def test_criterion_02_component_score_additivity():
    # whitened component scores sum to the full divergence at r = d
    _gate(checks.component_score_additivity)


def test_criterion_03_equal_means_subspace_agreement():
    # equal-means construction matches the top-score pencil subspace
    _gate(checks.equal_means_subspace_agreement)


def test_criterion_04_divergence_order_invariance():
    # ordered covariances: both divergence orders select one subspace;
    # straddling spectrum control must disagree
    _gate(checks.divergence_order_invariance)


def test_criterion_05_multiclass_pairwise_preservation():
    # shared-covariance multiclass reduction preserves every pairwise
    # divergence and spans the solved-means subspace
    _gate(checks.multiclass_pairwise_preservation)


def test_criterion_06_sweep_bounds_and_monotonicity():
    # retained divergence is nondecreasing in r, bounded by the full value,
    # and exact at r = d
    _gate(checks.sweep_bounds_and_monotonicity)


def test_criterion_07_gradient_finite_difference_agreement():
    # analytic gradient vs central differences, rel tol 1e-5, under 10 s
    _gate(checks.gradient_finite_difference_agreement, budget_s=10.0)


def test_criterion_08_channel_regime_orderings():
    # seeded channel pipeline: method orderings per regime and refinement
    # guarantees, under 5 minutes
    _gate(checks.channel_regime_orderings, budget_s=300.0)


def test_criterion_09_classification_ordering_vs_baseline():
    # divergence-aware projections beat the mean-plus-PCs baseline by 10x
    # retained divergence and strictly in accuracy, under 2 minutes
    _gate(checks.classification_ordering_vs_baseline, budget_s=120.0)


def test_criterion_10_chernoff_kld_ratio_equal_covariance():
    # equal-covariance Chernoff information equals a quarter of the
    # divergence, rel tol 1e-6
    _gate(checks.chernoff_kld_ratio_equal_covariance)


def test_criterion_11_cli_rerun_determinism():
    # rerunning the seeded pipeline reproduces every artifact byte for byte
    _gate(checks.cli_rerun_determinism)
