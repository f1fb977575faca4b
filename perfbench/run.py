"""klproj benchmark: closed-form fits at d=1000 and the gen/fit/eval CLI at d=400.

Run from the repository root:

    python3 perfbench/run.py --workload closed-form-d1000 --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all          # every workload, each in its own process

Each workload is a closed loop with one caller: an operation starts when the
previous one returns.  A run sets up three times (instance generation and one
untimed warm-up operation), then makes whole rounds of the workload's
operation mix until the next round would end past ``--seconds``, checking
every output.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` each operation runs
twice, untraced and then under the span recorder, and the run reports
per-layer metrics plus the tracing overhead.  Lines before the last one give
the environment and every metric by name and unit.  ``refine-d100`` (Adam
refinement at d=100) is not listed in BENCHMARK.json.
"""

import os
import sys
import time

START = time.perf_counter()
# BLAS is pinned to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import statistics
import subprocess
from pathlib import Path

# The workloads BENCHMARK.json lists.  refine-d100 is left out of it, since its
# interpreter-bound time drifts with the machine's speed more than the others
# (see README.md); it runs by name and under ``--workload all``.
WORKLOADS = ("closed-form-d1000", "cli-d400")
EXTRA_WORKLOADS = ("refine-d100",)

# Per-layer metrics on the result line of a traced run.  Every metric the
# recorder computes appears on the detail line; this list leaves out the
# times of layers and functions that some workload never calls, since a time
# that reads 0 on every run of a workload carries nothing.
PER_LAYER = (
    "cli.calls", "fileio.calls", "synth.calls", "evaluate.calls", "refine.calls",
    "projections.calls", "gaussian.calls", "linalg.calls", "lapack.calls",
    "gaussian.self_s", "linalg.self_s", "lapack.self_s",
    "gaussian.GaussianParams.calls", "gaussian.GaussianParams.s",
    "gaussian.kld_projected.calls", "gaussian.kld_projected.s",
    "refine.kld_gradient.calls", "refine.accepted_per_eval",
    "linalg.generalized_eig.calls", "linalg.spd_inv_sqrt.calls", "linalg.sym_eig.calls",
    "linalg.numerical_rank.calls",
    "lapack.eigh.calls", "lapack.eigh.s", "lapack.cholesky.calls", "lapack.svd.calls",
    "lapack.qr.calls", "lapack.eigh_per_job", "lapack.gflop_computed",
    "projections.mean_first_projection.calls", "projections.whitened_component_projection.calls",
    "projections.select_regime.calls", "projections.lol_projection.calls",
    "fileio.bytes_written", "fileio.bytes_read",
    "trace.overhead_pct",
)

SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + EXTRA_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=55.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def run_all(args):
    """Each workload in its own process, so set-up time and peak memory are its own."""
    worst = 0
    for name in WORKLOADS + EXTRA_WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(child.stdout)
        sys.stdout.flush()
        last = (child.stdout.strip().splitlines() or [""])[-1]
        ok = child.returncode == 0 and last.startswith("{") and json.loads(last)["correct"]
        worst = max(worst, 0 if ok else 1)
    return worst


class Phase:
    """Timings, per-operation stats and check outcomes of consecutive rounds."""

    def __init__(self):
        self.records = []     # (kind, seconds)
        self.stats = []
        self.first_stats = {}
        self.rounds = 0
        self.problems = []
        self.attempted = 0
        self.failed = 0

    @property
    def times(self):
        return [s for _, s in self.records]

    def times_of(self, kind):
        return [s for k, s in self.records if k == kind]

    def op_p50(self):
        return statistics.median(self.times)

    def round_s(self):
        """One round's time: the run's total operation time over its rounds.

        The machine's speed drifts over tens of seconds, so an average over
        the whole run is steadier than a median of a few per-operation times.
        """
        return sum(self.times) / self.rounds


def timed(op, phase, span):
    """Run one operation, record its wall time, and check its output."""
    phase.attempted += 1
    t0 = time.perf_counter()
    try:
        with span:
            out = op.run()
    except Exception as exc:  # a failed operation is counted, and the loop goes on
        phase.failed += 1
        print(f"failed: {op.kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return
    phase.records.append((op.kind, time.perf_counter() - t0))
    problems, stats = op.check(out)
    phase.problems += problems
    phase.stats.append(stats)
    first = phase.first_stats.setdefault(op.kind, stats)
    if first != stats:
        phase.problems.append(f"{op.kind}: output differs between rounds: {first} vs {stats}")


def measure(workload, seconds, min_rounds, recorder=None):
    """Whole rounds until the next would end past ``seconds``; checks every output.

    With a recorder, each operation runs twice back to back, untraced and
    then traced, so that drift in machine speed cancels from the overhead.
    Returns the untraced phase, and the traced one when there is a recorder.
    """
    phases = [Phase()] if recorder is None else [Phase(), Phase()]
    begin = time.perf_counter()
    rounds = 0
    while True:
        workload.begin_round()
        for op in workload.ops:
            timed(op, phases[0], contextlib.nullcontext())
            if recorder is not None:
                recorder.install()
                try:
                    timed(op, phases[1], recorder.operation(op.kind))
                finally:
                    recorder.uninstall()
        rounds += 1
        for phase in phases:
            phase.rounds = rounds
        phases[0].problems += workload.end_round()
        spent = time.perf_counter() - begin
        if rounds >= min_rounds and spent + spent / rounds > seconds:
            return phases


def environment():
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                    "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    src = Path.cwd() / "src"
    if not (src / "klproj" / "__init__.py").is_file():
        print("error: src/klproj not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads  # imports numpy, scipy and klproj: part of set-up

    import_s = time.perf_counter() - START
    workload = {"closed-form-d1000": workloads.ClosedForm, "refine-d100": workloads.Refine,
                "cli-d400": workloads.Cli}[args.workload]()
    try:
        return run(args, workload, import_s)
    finally:
        workload.close()


def run(args, workload, import_s):
    import klproj
    import spans

    # Set-up is repeated and its median taken; imports happen once per process.
    repeats = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.generate(args.seed)
        workload.warm_up()
        repeats.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(repeats)
    workload.prepare_checks()

    info = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
            "klproj": klproj.__file__, "environment": environment()}
    if not args.trace:
        phases = measure(workload, args.seconds, workload.min_rounds)
        phase = phases[0]
        retained, retained_n = workload.retained_frac(phase)
        detail = {
            "setup_s": (setup_s, "s", len(repeats)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
            "round_s": (phase.round_s(), "s", phase.rounds),
            "retained_frac": (retained, "1", retained_n),
            **workload.detail(phase),
        }
        names = ("setup_s", "peak_rss_mb", "round_s", "retained_frac")
    else:
        recorder = spans.Recorder()
        phases = measure(workload, args.seconds, 1, recorder)
        untraced, traced = phases
        layers = spans.layer_metrics(recorder, traced.rounds, len(workload.ops), workload.d)
        overhead = 100.0 * (traced.round_s() / untraced.round_s() - 1.0)
        layers["trace.overhead_pct"] = (overhead, "%")
        detail = {name: (value, unit, traced.rounds) for name, (value, unit) in layers.items()}
        trace_path = Path(".bench_out") / f"trace-{workload.name}-seed{args.seed}.csv"
        trace_path.parent.mkdir(exist_ok=True)
        recorder.write(trace_path)
        info["trace_file"] = str(trace_path)
        info["spans"] = len(recorder.name)
        info["untraced_round_s"] = untraced.round_s()
        info["traced_round_s"] = traced.round_s()
        names = PER_LAYER

    problems = [p for phase in phases for p in phase.problems]
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    info["rounds"] = phases[0].rounds
    info["metrics"] = {name: {"value": v, "unit": u, "samples": n} for name, (v, u, n) in detail.items()}
    print(json.dumps(info))
    for name, (value, unit, samples) in detail.items():
        print(f"{workload.name} {name} = {value:.6g} {unit} ({samples} samples)")
    result = {
        "correct": not problems,
        "attempted": sum(phase.attempted for phase in phases),
        "failed": sum(phase.failed for phase in phases),
        "metrics": {name: {"value": detail[name][0], "unit": detail[name][1]} for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
