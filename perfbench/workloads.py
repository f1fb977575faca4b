"""The three benchmark workloads.

Each workload builds its inputs from the seed, lists one round of
operations, and checks every output with ``verify``.  Operations call klproj
through module attributes (``klproj.fit_auto``, ``cli.main``) at call time,
so the traced run's wrappers see every call.
"""

import contextlib
import hashlib
import io
import json
import math
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import klproj
from klproj import cli

import verify


@dataclass(frozen=True)
class Op:
    """One operation: ``run`` is timed, ``check`` maps its output to (problems, stats)."""

    kind: str
    run: Callable
    check: Callable


def sub_seeds(seed, n):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n, dtype=np.uint64)]


def channel_pair(d, t, ratio, seeds):
    """Channel pair whose signal means are rescaled to put d_mu / d_sigma at ``ratio``.

    Scaling both signal means by c scales d_mu by c^2 and leaves d_sigma
    alone, which is how klproj's own acceptance checks fix the regime.
    """
    sig1 = klproj.random_class_params(t, 0.1, 10.0, 1.0, seeds[0])
    sig2 = klproj.random_class_params(t, 0.1, 10.0, 1.0, seeds[1])
    chan = klproj.ChannelSpec(t=t, d=d, noise_var=1.0, seed=seeds[2])
    x1, x2, _ = klproj.embed_channel(sig1, sig2, chan)
    split = klproj.kld_split(x1, x2)
    c = math.sqrt(ratio / (split.d_mu / split.d_sigma))
    scaled = [klproj.GaussianParams(c * s.mean, s.covariance) for s in (sig1, sig2)]
    x1, x2, _ = klproj.embed_channel(scaled[0], scaled[1], chan)
    return x1, x2


def proportional_pair(d, ratio, seeds):
    """S2 = 2 S1 with the mean offset scaled to put d_mu / d_sigma at ``ratio``."""
    s1 = klproj.random_spd(klproj.SpdSpec(d, 0.1, 10.0, seeds[0]))
    offset = klproj.rng_from_seed(seeds[1]).standard_normal(d)
    p1 = klproj.GaussianParams(np.zeros(d), s1)
    split = klproj.kld_split(p1, klproj.GaussianParams(offset, 2.0 * s1))
    c = math.sqrt(ratio / (split.d_mu / split.d_sigma))
    return p1, klproj.GaussianParams(c * offset, 2.0 * s1)


def raw(pair):
    p1, p2 = pair
    return p1.mean, p1.covariance, p2.mean, p2.covariance


def median(values):
    return statistics.median(values) if values else float("nan")


class Workload:
    """Defaults for workloads without per-round set-up or artifacts."""

    min_rounds = 1

    def prepare_checks(self):
        pass

    def begin_round(self):
        pass

    def end_round(self):
        return []

    def close(self):
        pass

    def retained_frac(self, phase):
        """Mean retained share of the full divergence over one round's operations, and their count."""
        values = [stats["retained"] for stats in phase.first_stats.values()]
        return sum(values) / len(values), len(values)


class ClosedForm(Workload):
    """One fit job: validate both classes from raw arrays, fit_auto, then kld."""

    name = "closed-form-d1000"
    d, t = 1000, 20
    ranks = (1, 2, 5, 20)

    def generate(self, seed):
        self.pairs = self.ops = None  # frees the previous set-up's arrays first
        ss = sub_seeds(seed, 8)
        self.pairs = {
            "mean_heavy": raw(channel_pair(self.d, self.t, 6.0, ss[0:3])),
            "cov_heavy": raw(channel_pair(self.d, self.t, 0.03, ss[3:6])),
            "proportional": raw(proportional_pair(self.d, 0.5, ss[6:8])),
        }
        self.ops = [Op(f"{family}/r{r}", self._job(family, r), self._checker(family, r))
                    for family in self.pairs for r in self.ranks]

    def warm_up(self):
        self.ops[0].run()

    def prepare_checks(self):
        self.full_ref = {family: verify.gaussian_kl(*pair) for family, pair in self.pairs.items()}

    def _job(self, family, r):
        m1, s1, m2, s2 = self.pairs[family]

        def run():
            p1 = klproj.GaussianParams(m1, s1)
            p2 = klproj.GaussianParams(m2, s2)
            return klproj.fit_auto(p1, p2, r), klproj.kld(p1, p2)
        return run

    def _checker(self, family, r):
        def check(out):
            result, full = out
            problems = verify.check_fit(
                f"{family} r={r} ({result.method})", result.in_original_frame(),
                result.achieved_kld, full, self.pairs[family], self.full_ref[family],
                require_full=family != "proportional" and r >= self.t)
            return problems, {"retained": result.achieved_kld / full, "method": result.method}
        return check

    def detail(self, phase):
        return {"fit_job_p50_s": (phase.op_p50(), "s", len(phase.times))}


class Refine(Workload):
    """One Adam run of a fixed iteration budget from a closed-form or random start."""

    name = "refine-d100"
    d, t = 100, 10
    ranks = (3, 10)
    budget = 500

    def generate(self, seed):
        ss = sub_seeds(seed, 8)
        # patience beyond the budget disables the plateau stop: every run
        # does exactly `budget` iterations, whatever the seed.
        options = klproj.AscentOptions(max_iters=self.budget, patience=self.budget + 1)
        self.pairs = {
            "mean_heavy": channel_pair(self.d, self.t, 6.0, ss[0:3]),
            "cov_heavy": channel_pair(self.d, self.t, 0.03, ss[3:6]),
        }
        self.ops = []
        for family, (p1, p2) in self.pairs.items():
            for r in self.ranks:
                starts = {
                    "alg1": klproj.mean_first_projection(p1, p2, r).in_original_frame(),
                    "alg2": klproj.whitened_component_projection(p1, p2, r).in_original_frame(),
                    "random0": klproj.random_initial_matrix(r, self.d, ss[6]),
                    "random1": klproj.random_initial_matrix(r, self.d, ss[7]),
                }
                for start, a0 in starts.items():
                    kind = f"{family}/r{r}/{start}"
                    run = (lambda a0=a0, p1=p1, p2=p2: klproj.gradient_ascent(a0, p1, p2, options))
                    self.ops.append(Op(kind, run, self._checker(kind, family)))
        self.full = {family: klproj.kld(p1, p2) for family, (p1, p2) in self.pairs.items()}

    def warm_up(self):
        self.ops[0].run()

    def prepare_checks(self):
        self.full_ref = {family: verify.gaussian_kl(*raw(pair)) for family, pair in self.pairs.items()}

    def _checker(self, kind, family):
        def check(trace):
            objectives = [f for _, f in trace.iterates]
            problems = verify.check_ascent(kind, objectives, trace.final_matrix,
                                           raw(self.pairs[family]), self.full_ref[family])
            problems += verify.agree(f"{kind} full kld", self.full[family], self.full_ref[family])
            return problems, {"retained": max(objectives) / self.full[family],
                              "iterations": trace.iterations_run}
        return check

    def detail(self, phase):
        iterations = sum(stats["iterations"] for stats in phase.stats)
        return {
            "ascent_iters_per_s": (iterations / sum(phase.times), "1/s", len(phase.times)),
            "ascent_run_p50_s": (phase.op_p50(), "s", len(phase.times)),
        }


def tree_digests(root):
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def read_csv_array(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class Cli(Workload):
    """One CLI command through klproj.cli.main, in a fresh directory each pass."""

    name = "cli-d400"
    d, t, n, n_test = 400, 20, 2000, 1000
    # The determinism check compares whole passes, so a run makes at least two.
    min_rounds = 2

    def __init__(self):
        # A fixed relative path keeps the checkout the only place the run
        # writes to, and passes klproj the same path strings (which its
        # artifacts record) in every pass and every run.
        self.work = Path(".bench_out") / self.name

    def generate(self, seed):
        self.dir = self.work / "pass"
        # run() raises on a nonzero exit; the artifacts are checked per pass.
        self.ops = [Op(kind, self._command(argv), lambda code: ([], {}))
                    for kind, argv in self.commands(self.dir, seed, self.d, self.t, self.n, self.n_test)]
        self.first_digests = None

    @staticmethod
    def commands(w, seed, d, t, n, n_test):
        """The six commands of one pass in directory ``w``; the sweep runs r = 1..t."""
        params = [str(w / "params_class1.json"), str(w / "params_class2.json")]
        fit_ds, fit_ref = str(w / "fit_dataset.json"), str(w / "fit_refine.json")
        return [
            ("gen", ["gen", "--d", str(d), "--t", str(t), "--n", str(n), "--n-test", str(n_test),
                     "--seed", str(seed), "--out-dir", str(w)]),
            ("fit_dataset", ["fit", "--dataset", str(w / "dataset.csv"), "--method", "alg2",
                             "--r", "5", "--out", fit_ds]),
            ("fit_refine", ["fit", "--params", *params, "--r", "2", "--refine", "--out", fit_ref]),
            ("eval_sweep", ["eval", "--projection", fit_ds, "--params", *params,
                            "--sweep-r", f"1..{t}", "--methods", "alg1,alg2,lol",
                            "--out-dir", str(w / "sweep")]),
            ("eval_classify", ["eval", "--projection", fit_ds, fit_ref, "--params", *params,
                               "--classify", "--train", str(w / "dataset.csv"),
                               "--test", str(w / "test.csv"), "--out-dir", str(w / "classify")]),
            ("eval_grid", ["eval", "--projection", fit_ref, "--params", *params,
                           "--density-grid", "--out-dir", str(w / "grid")]),
        ]

    @staticmethod
    def _command(argv):
        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"klproj {argv[0]} exited with code {code}")
            return code
        return run

    def warm_up(self):
        """A miniature pass (d=24, t=4) that loads every code path once."""
        w = self.work / "warm"
        w.mkdir(parents=True, exist_ok=True)
        for _, argv in self.commands(w, 1, 24, 4, 200, 100):
            self._command(argv)()
        shutil.rmtree(w)

    def begin_round(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def end_round(self):
        digests = tree_digests(self.dir)
        if self.first_digests is not None:
            return verify.check_identical(self.first_digests, digests)
        self.first_digests = digests
        return self.check_artifacts(self.dir)

    def check_artifacts(self, w):
        """Every artifact of one pass against independent computations."""
        def load(name):
            return json.loads((w / name).read_text())

        params = [(np.array(rec["mean"]), np.array(rec["covariance"]))
                  for rec in (load("params_class1.json"), load("params_class2.json"))]
        pair = (params[0][0], params[0][1], params[1][0], params[1][1])
        full_ref = verify.gaussian_kl(*pair)
        train, test = read_csv_array(w / "dataset.csv"), read_csv_array(w / "test.csv")
        x, y = train[:, :-1], train[:, -1].astype(int)
        problems = verify.check_sample_means(x, y, params)

        estimated = [(x[y == k].mean(axis=0), np.cov(x[y == k], rowvar=False)) for k in (1, 2)]
        est_pair = (estimated[0][0], estimated[0][1], estimated[1][0], estimated[1][1])
        fits = {"fit_dataset.json": load("fit_dataset.json"), "fit_refine.json": load("fit_refine.json")}
        problems += verify.check_projection_record(
            "fit --dataset", fits["fit_dataset.json"], est_pair, verify.gaussian_kl(*est_pair))
        problems += verify.check_projection_record(
            "fit --params --refine", fits["fit_refine.json"], pair, full_ref)

        with open(w / "sweep" / "sweep.csv", encoding="utf-8") as handle:
            rows = [(m, int(r), float(v)) for m, r, v in
                    (line.strip().split(",") for line in handle.readlines()[1:])]
        sweep_full = json.loads((w / "sweep" / "sweep.config.json").read_text())["config"]["full_kld"]
        problems += verify.check_sweep(rows, sweep_full, full_ref, self.t)

        results = load("classify/classification.json")["results"]
        tx, ty = test[:, :-1], test[:, -1].astype(int)
        accuracies = []
        for entry in results:
            if entry["method"] == "full":
                a = np.eye(x.shape[1])
            else:
                record = fits[entry["file"]]
                a = np.array(record.get("matrix_original") or record["matrix"])
                accuracies.append(entry["accuracy"])
            independent = verify.qda_accuracy(x, y, tx, ty, a)
            problems += verify.check_accuracy(f"classify {entry.get('file', 'full')}",
                                              entry["accuracy"], independent, len(ty))
        problems += verify.check_grid_mass(read_csv_array(w / "grid" / "density_grid.csv"))

        # The retained share averages the two fits and the sweep's 60 fits.
        retained = [rec["achieved_kld"] / rec["full_kld"] for rec in fits.values()]
        retained += [value / sweep_full for _, _, value in rows]
        self.outcome = {"retained": (sum(retained) / len(retained), len(retained)),
                        "test_accuracy": sum(accuracies) / len(accuracies)}
        return problems

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def retained_frac(self, phase):
        return self.outcome["retained"]

    def detail(self, phase):
        out = {}
        for kind in ("gen", "fit_dataset", "fit_refine", "eval_sweep", "eval_classify", "eval_grid"):
            times = phase.times_of(kind)
            out[f"{kind}_s"] = (median(times), "s", len(times))
        out["test_accuracy"] = (self.outcome["test_accuracy"], "1", 1)
        return out
