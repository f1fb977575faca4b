"""In-memory span recorder for the traced benchmark run.

``Recorder.install`` replaces every binding of the functions listed in
``TRACED`` (in every loaded ``klproj`` module that holds one), the methods
in ``TRACED_METHODS``, and ``numpy.linalg.eigh/cholesky/svd/qr`` with
wrappers that record a span: name, start, end and parent.  Spans are kept in
flat arrays and written out once, when the run ends.  A span is recorded only
while the benchmark has a traced operation open, so the benchmark's own
checks never show up in the trace.

A layer's self time is the summed duration of its spans minus the part of
each span that its child spans cover.
"""

import collections
import contextlib
import functools
import os
import sys
import time
from array import array

import numpy as np

# Layers in the order they are reported; "lapack" is the numpy factorizations.
LAYERS = ("cli", "fileio", "synth", "evaluate", "refine", "projections", "gaussian", "linalg", "lapack")

# Public functions wrapped per module.  Per-element helpers such as
# fileio.format_float are left out: they run once per CSV cell, and a span
# each would cost more than the work they measure.
TRACED = {
    "cli": ("main",),
    "fileio": (
        "write_json", "read_json", "write_csv", "read_csv", "dataset_to_csv",
        "dataset_from_csv", "dumps_json", "params_to_dict", "params_from_dict",
        "projection_to_dict", "projection_from_dict",
    ),
    "synth": ("sample", "embed_channel", "random_class_params", "random_spd"),
    "evaluate": ("sweep_r", "plugin_classifier_train", "density_grid", "pairwise_preservation"),
    "refine": ("gradient_ascent", "kld_gradient", "random_initial_matrix", "finite_difference_gradient"),
    "projections": (
        "fit_auto", "select_regime", "regime_recommendation", "mean_first_projection",
        "whitened_component_projection", "lol_projection", "lda_direction",
        "multiclass_lda", "equal_mean_order_check",
    ),
    "gaussian": (
        "kld", "kld_split", "kld_projected", "project_params", "estimate_params",
        "pooled_covariance", "log_density", "component_kld", "g_score", "chernoff_information",
    ),
    "linalg": (
        "sym_eig", "spd_eigenvalues", "assert_spd", "spd_inv_sqrt", "generalized_eig",
        "orthonormalize_rows", "principal_angles", "numerical_rank",
    ),
}

# (module, class, method, span name); __post_init__ spans are the validation
# a construction runs.
TRACED_METHODS = (
    ("gaussian", "GaussianParams", "__post_init__", "gaussian.GaussianParams"),
    ("gaussian", "LabeledDataset", "__post_init__", "gaussian.LabeledDataset"),
    ("evaluate", "PluginClassifier", "predict", "evaluate.PluginClassifier.predict"),
    ("evaluate", "PluginClassifier", "score", "evaluate.PluginClassifier.score"),
)

LAPACK = ("eigh", "cholesky", "svd", "qr")


def lapack_flops(kind, args, kwargs):
    """Standard operation counts (Golub & Van Loan) from the input's shape."""
    shape = np.shape(args[0])
    if kind in ("eigh", "cholesky"):
        n = shape[-1]
        return 9.0 * n**3 if kind == "eigh" else n**3 / 3.0
    m, n = max(shape[-2:]), min(shape[-2:])
    if kind == "qr":
        return 4.0 * m * n**2 - 4.0 * n**3 / 3.0
    if kwargs.get("compute_uv", len(args) < 3 or args[2]):
        return 4.0 * m**2 * n + 8.0 * m * n**2 + 9.0 * n**3
    return 4.0 * m * n**2 - 4.0 * n**3 / 3.0


class Recorder:
    """Spans and counters of one traced phase."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.armed = False
        self.counters = collections.Counter()
        self._restore = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.stack.pop()
        self.end[idx] = time.perf_counter()

    @contextlib.contextmanager
    def operation(self, kind):
        """Root span around one benchmark operation; arms the wrappers."""
        idx = self._open(self._id("bench." + kind))
        self.armed = True
        try:
            yield
        finally:
            self.armed = False
            self._close(idx)

    def wrap(self, name, fn, after=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.armed:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _count(self, key, value_of):
        def after(args, kwargs, result):
            self.counters[key] += value_of(args, kwargs, result)
        return after

    def _lapack_after(self, kind):
        def after(args, kwargs, result):
            self.counters["lapack.flop"] += lapack_flops(kind, args, kwargs)
            self.counters[f"lapack.{kind}.n{np.shape(args[0])[-1]}"] += 1
        return after

    def _hook(self, name):
        size = lambda args, kwargs, result: os.path.getsize(args[0])
        if name in ("fileio.write_json", "fileio.write_csv"):
            return self._count("fileio.bytes_written", size)
        if name in ("fileio.read_json", "fileio.read_csv"):
            return self._count("fileio.bytes_read", size)
        if name == "refine.gradient_ascent":
            return self._count("refine.iterations", lambda a, k, result: result.iterations_run)
        return None

    def install(self):
        """Wrap every binding of the traced functions; undone by uninstall."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "klproj" or key.startswith("klproj."))]
        for layer, fnames in TRACED.items():
            home = sys.modules[f"klproj.{layer}"]
            for fname in fnames:
                original = getattr(home, fname)
                name = f"{layer}.{fname}"
                wrapper = self.wrap(name, original, self._hook(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        for layer, cls_name, method, name in TRACED_METHODS:
            cls = getattr(sys.modules[f"klproj.{layer}"], cls_name)
            self._patch(cls, method, self.wrap(name, cls.__dict__[method]))
        for kind in LAPACK:
            original = getattr(np.linalg, kind)
            self._patch(np.linalg, kind, self.wrap(f"lapack.{kind}", original, self._lapack_after(kind)))

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
        return name, parent, start, dur, dur - child

    def write(self, path):
        """All spans as CSV: index, parent index, name, start and end in seconds."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("span,parent,name,start_s,end_s\n")
            for i, (nid, par, s, e) in enumerate(zip(self.name, self.parent, self.start, self.end)):
                out.write(f"{i},{par},{self.names[nid]},{s!r},{e!r}\n")


def layer_metrics(rec, rounds, ops_per_round, dim):
    """Per-layer metrics of one traced phase, each per round of operations.

    Returns {name: (value, unit)}.  ``dim`` is the workload's d, for the
    count of d x d eigendecompositions per operation.
    """
    name, parent, _, dur, self_s = rec.arrays()
    n_names = len(rec.names)
    calls = np.bincount(name, minlength=n_names)
    total = np.bincount(name, weights=dur, minlength=n_names)
    own = np.bincount(name, weights=self_s, minlength=n_names)
    ids = rec._ids
    out = {}
    for layer in LAYERS:
        members = [i for nm, i in ids.items() if nm.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = (float(calls[members].sum()) / rounds, "count")
        out[f"{layer}.self_s"] = (float(own[members].sum()) / rounds, "s")
    traced_names = [f"{layer}.{f}" for layer, fs in TRACED.items() for f in fs]
    traced_names += [entry[3] for entry in TRACED_METHODS] + [f"lapack.{k}" for k in LAPACK]
    for nm in traced_names:
        i = ids.get(nm)
        out[f"{nm}.calls"] = (float(calls[i]) / rounds if i is not None else 0.0, "count")
        out[f"{nm}.s"] = (float(total[i]) / rounds if i is not None else 0.0, "s")

    ascent = ids.get("refine.gradient_ascent")
    evals = ids.get("gaussian.kld_projected")
    inner = 0
    if ascent is not None and evals is not None:
        has_parent = parent >= 0
        inner = int(np.count_nonzero((name == evals) & has_parent
                                     & (name[np.where(has_parent, parent, 0)] == ascent)))
    iterations = rec.counters["refine.iterations"]
    out["refine.accepted_per_eval"] = (iterations / inner if inner else 0.0, "ratio")
    ops = rounds * ops_per_round
    out["lapack.eigh_per_job"] = (rec.counters[f"lapack.eigh.n{dim}"] / ops, "count")
    out["lapack.gflop_computed"] = (rec.counters["lapack.flop"] / 1e9 / rounds, "GFLOP")
    out["fileio.bytes_written"] = (rec.counters["fileio.bytes_written"] / rounds, "B")
    out["fileio.bytes_read"] = (rec.counters["fileio.bytes_read"] / rounds, "B")
    return out
