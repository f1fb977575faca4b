"""Command line front end for reproducible generate / fit / evaluate runs.

Subcommands:

* ``gen``     draw Gaussian class parameters (optionally pushed through a
              random linear channel) and seeded datasets
* ``fit``     fit a projection to parameter files or to a labeled dataset
* ``eval``    sweep retained divergence over r, classify, or grid-evaluate
              stored projections
* ``regime``  report the divergence split and the recommended method
* ``check``   run the built-in verification suite

All randomness flows from ``--seed``; every artifact embeds the config that
produced it, so any output is reproducible from its own config block.  Exit
codes: 0 success, 2 invalid input, 3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DimensionMismatch, KlprojError, NonPositiveInput
from .gaussian import (
    GaussianParams,
    LabeledDataset,
    estimate_params,
    project_params,
)
from .linalg import check_rows
from .projections import FITS, FRAME_WHITENED, _auto, _ClassPair, multiclass_lda, select_regime
from .refine import AscentOptions, refine_fit
from .evaluate import MAX_RESOLUTION, density_grid, pairwise_preservation, plugin_classifier_train, sweep_r
from .synth import ChannelSpec, embed_channel, random_class_params, sample, sub_seeds
from . import fileio


def _write_json(path: Path, record: dict) -> None:
    fileio.write_json(path, record)
    print(f"wrote {path}")


def _write_csv(path: Path, header: list, columns, config: dict) -> None:
    fileio.write_csv(path, header, columns)
    print(f"wrote {path}")
    _write_json(path.with_suffix(".config.json"), {"kind": "config", "config": config})


def _read_record(path, parse):
    """``parse`` of a JSON file's record; every typed error building the record names the
    file, keeping its type and exit code."""
    record = fileio.read_json(path)
    try:
        return parse(record)
    except KlprojError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _config(args) -> dict:
    """The config block of a command: its arguments minus outputs and handler."""
    config = {k: v for k, v in vars(args).items() if k not in ("func", "out", "out_dir")}
    config["version"] = __version__
    if "params" in config:
        config["params"] = list(args.params or [])
    return config


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.classes < 2:
        raise DimensionMismatch(f"--classes must be at least 2, got {args.classes}")
    if min(args.n, args.n_test) < 0:
        raise NonPositiveInput(f"--n and --n-test must be >= 0, got {args.n} and {args.n_test}")
    out = Path(args.out_dir)
    config = _config(args)
    channel = None  # channel.json's record: the directory is made once every input is valid

    if args.t is not None:
        if args.classes != 2:
            raise ValueError("channel generation is two-class; drop --classes or use 2")
        seeds = sub_seeds(args.seed, 7)
        config["sub_seeds"] = {"signal_params": seeds[0:2], "channel": seeds[2],
                               "train": seeds[3:5], "test": seeds[5:7]}
        sig1 = random_class_params(args.t, args.eig_min, args.eig_max, args.mean_scale, seeds[0])
        sig2 = random_class_params(args.t, args.eig_min, args.eig_max, args.mean_scale, seeds[1])
        chan = ChannelSpec(t=args.t, d=args.d, noise_var=args.noise_var, seed=seeds[2])
        p1, p2, h = embed_channel(sig1, sig2, chan)
        classes = [p1, p2]
        train_seeds, test_seeds = seeds[3:5], seeds[5:7]
        channel = {
            "kind": "channel",
            "t": args.t,
            "d": args.d,
            "noise_var": args.noise_var,
            "matrix": h.tolist(),
            "signal_class1": fileio.params_to_dict(sig1),
            "signal_class2": fileio.params_to_dict(sig2),
            "config": config,
        }
    else:
        k = args.classes
        seeds = sub_seeds(args.seed, 3 * k)
        config["sub_seeds"] = {"class_params": seeds[0:k], "train": seeds[k : 2 * k],
                               "test": seeds[2 * k : 3 * k]}
        classes = [
            random_class_params(args.d, args.eig_min, args.eig_max, args.mean_scale, seeds[i])
            for i in range(k)
        ]
        train_seeds, test_seeds = seeds[k : 2 * k], seeds[2 * k : 3 * k]

    out.mkdir(parents=True, exist_ok=True)
    if channel is not None:
        _write_json(out / "channel.json", channel)
    for i, p in enumerate(classes, start=1):
        _write_json(out / f"params_class{i}.json", fileio.params_to_dict(p, config=config))

    for name, count, per_class_seeds in (
        ("dataset.csv", args.n, train_seeds),
        ("test.csv", args.n_test, test_seeds),
    ):
        if count <= 0:
            continue
        labels = np.repeat(np.arange(1, len(classes) + 1), count)
        # unnamed, the blocks go once stacked and the stack once the dataset has copied it
        data = LabeledDataset(
            np.vstack([sample(p, count, s) for p, s in zip(classes, per_class_seeds)]), labels)
        fileio.dataset_to_csv(out / name, data)
        print(f"wrote {out / name}")
        _write_json((out / name).with_suffix(".config.json"), {"kind": "config", "config": config})
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _load_classes(args) -> list[GaussianParams]:
    """Class parameters from --params files or estimated from --dataset (reversed by
    --swap, where the command has it)."""
    if args.params and args.dataset:
        raise ValueError("pass either --params or --dataset, not both")
    if args.params:
        plist = [_read_record(p, fileio.params_from_dict) for p in args.params]
    elif args.dataset:
        data = fileio.dataset_from_csv(args.dataset)
        plist = [estimate_params(data, int(lab), args.ridge) for lab in data.class_labels]
    else:
        raise ValueError("one of --params or --dataset is required")
    return plist[::-1] if getattr(args, "swap", False) else plist


def _load_pair(args) -> list[GaussianParams]:
    """``_load_classes`` for the commands that compare exactly 2 classes."""
    plist = _load_classes(args)
    if len(plist) != 2:
        raise ValueError(f"{args.command} compares exactly 2 classes, got {len(plist)}")
    return plist


def cmd_fit(args) -> int:
    plist = (_load_classes if args.method == "mclda" else _load_pair)(args)
    config = _config(args)
    extras: dict = {}

    if args.method == "mclda":
        if args.refine:
            raise ValueError("refinement applies to two-class projections only")
        result = multiclass_lda(plist, r=args.r)
        extras["pairwise_preservation"] = pairwise_preservation(plist, result.matrix).tolist()
    else:
        if args.r is None:
            raise ValueError(f"--r is required for method {args.method!r}")
        if args.method == "lda" and args.r != 1:
            raise ValueError("lda produces a single direction; use --r 1")
        pair = _ClassPair(*plist)
        result = _auto(pair, args.r, args.mode) if args.method == "auto" else FITS[args.method](pair, args.r)
        extras["full_kld"] = pair.split.total
        extras["regime"] = asdict(pair.regime(result.r))
        if args.refine:
            opts = AscentOptions() if args.max_iters is None else AscentOptions(
                max_iters=args.max_iters
            )
            refined, trace = refine_fit(pair, result, opts)
            extras["refinement"] = {
                "initial_kld": result.achieved_kld,
                "refined_kld": refined.achieved_kld,
                "iterations": trace.iterations_run,
                "converged": trace.converged,
                "reason": trace.reason,
            }
            result = refined

    _write_json(Path(args.out), fileio.projection_to_dict(result, config=config, **extras))
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _parse_sweep_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"--sweep-r wants a range like 1..5, got {text!r}")
    return range(int(lo), int(hi) + 1)


def cmd_eval(args) -> int:
    out = Path(args.out_dir)
    writes = []  # (writer, arguments): the directory is made once every artifact is computed
    projections = [_read_record(f, fileio.projection_from_dict) for f in args.projection]
    p1, p2 = _load_pair(args)
    config = _config(args)

    if args.sweep_r:
        methods = [m.strip() for m in args.methods.split(",") if m.strip()]
        table = sweep_r(p1, p2, methods, _parse_sweep_range(args.sweep_r), refine=args.refine)
        sidecar_cfg = dict(config, full_kld=table.full_kld)
        columns = list(zip(*table.rows)) or [(), (), ()]  # lda alone at r > 1 has no rows
        writes.append((_write_csv, (out / "sweep.csv", ["method", "r", "kld"], columns,
                                    sidecar_cfg)))

    if args.classify:
        if not (args.train and args.test):
            raise ValueError("--classify needs --train and --test datasets")
        train = fileio.dataset_from_csv(args.train)
        test = fileio.dataset_from_csv(args.test)
        full = plugin_classifier_train(train, np.eye(train.dim)).score(test)
        records = [{"method": "full", "r": train.dim, "accuracy": full}]
        records += [{"file": Path(fname).name, "method": proj.method, "r": proj.r,
                     "accuracy": plugin_classifier_train(train, proj.in_original_frame()).score(test)}
                    for fname, proj in zip(args.projection, projections)]
        record = {"kind": "classification", "results": records, "config": config}
        writes.append((_write_json, (out / "classification.json", record)))

    if args.density_grid:
        planar = [(f, p) for f, p in zip(args.projection, projections) if p.r == 2]
        if not planar:
            raise ValueError("--density-grid needs a projection with exactly 2 rows")
        for index, (fname, proj) in enumerate(planar, start=1):
            if proj.frame == FRAME_WHITENED:
                # derived from the original rows: the 2 x 2 pair along its whitened axes
                a = check_rows(proj.matrix_original, p1.dim)
                planar_pair = _ClassPair(project_params(a, p1), project_params(a, p2))
                grid = density_grid(np.eye(2), *planar_pair.whitened_axes(),
                                    resolution=args.resolution)
            else:
                grid = density_grid(proj.matrix, p1, p2, resolution=args.resolution)
            # class outer, x middle, y inner: values[i, j] sits at (x_axis[i], y_axis[j])
            nx, ny = len(grid.x_axis), len(grid.y_axis)
            columns = [
                np.tile(np.repeat(grid.x_axis, ny), 2),
                np.tile(grid.y_axis, 2 * nx),
                np.repeat([1, 2], nx * ny),
                np.concatenate([grid.values_class1.ravel(), grid.values_class2.ravel()]),
            ]
            name = "density_grid.csv" if len(planar) == 1 else f"density_grid_{index}.csv"
            sidecar_cfg = dict(
                config,
                projection_file=Path(fname).name,
                frame=proj.frame,
                contour_levels=list(grid.contour_levels()),
                peaks=[grid.peak_class1, grid.peak_class2],
            )
            writes.append((_write_csv, (out / name, ["x", "y", "class", "density"], columns,
                                        sidecar_cfg)))

    if args.scatter:
        source = args.test or args.train or args.dataset
        if source is None:
            raise ValueError("--scatter needs a dataset (--dataset, --train, or --test)")
        data = fileio.dataset_from_csv(source)
        planar = [(f, p) for f, p in zip(args.projection, projections) if p.r == 2]
        if not planar:
            raise ValueError("--scatter needs a projection with exactly 2 rows")
        for index, (fname, proj) in enumerate(planar, start=1):
            pts = data.samples @ check_rows(proj.in_original_frame(), data.dim).T
            name = "scatter.csv" if len(planar) == 1 else f"scatter_{index}.csv"
            sidecar_cfg = dict(config, projection_file=Path(fname).name, source=Path(source).name)
            writes.append((_write_csv, (out / name, ["x", "y", "class"],
                                        [pts[:, 0], pts[:, 1], data.labels], sidecar_cfg)))

    out.mkdir(parents=True, exist_ok=True)
    for write, arguments in writes:
        write(*arguments)
    return 0


# ---------------------------------------------------------------------------
# regime / check
# ---------------------------------------------------------------------------


def cmd_regime(args) -> int:
    plist = _load_pair(args)
    config = _config(args)
    record = {"kind": "regime", **asdict(select_regime(*plist, args.r)), "config": config}
    if args.out:
        _write_json(Path(args.out), record)
    else:
        print(fileio.dumps_json(record))
    return 0


def cmd_check(args) -> int:
    from . import checks

    results = checks.run_all()
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name} ({res.elapsed_s:.2f} s): {res.detail}")
    failed = [res for res in results if not res.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 3


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def _add_class_source(sub) -> None:
    sub.add_argument("--params", nargs="+", metavar="FILE",
                     help="class parameter JSON files, one per class")
    sub.add_argument("--dataset", metavar="CSV",
                     help="labeled dataset CSV; class parameters are estimated")
    sub.add_argument("--ridge", type=float, default=0.0,
                     help="diagonal loading fraction for covariance estimates")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klproj",
        description="Divergence-preserving linear dimension reduction for Gaussian classes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate class parameters and datasets")
    gen.add_argument("--d", type=int, required=True, help="observed dimension")
    gen.add_argument("--t", type=int, help="signal dimension; enables channel embedding")
    gen.add_argument("--noise-var", type=float, default=1.0, help="channel noise variance")
    gen.add_argument("--classes", type=int, default=2, help="number of classes")
    gen.add_argument("--n", type=int, default=0, help="training samples per class")
    gen.add_argument("--n-test", type=int, default=0, help="test samples per class")
    gen.add_argument("--eig-min", type=float, default=0.1, help="smallest covariance eigenvalue")
    gen.add_argument("--eig-max", type=float, default=10.0, help="largest covariance eigenvalue")
    gen.add_argument("--mean-scale", type=float, default=1.0, help="class mean scale")
    gen.add_argument("--seed", type=int, required=True, help="master seed (required)")
    gen.add_argument("--out-dir", default=".", help="output directory")
    gen.set_defaults(func=cmd_gen)

    fit = sub.add_parser("fit", help="fit a projection")
    _add_class_source(fit)
    fit.add_argument("--r", type=int, default=None, help="projection rank")
    fit.add_argument("--method", default="auto",
                     choices=["auto", *FITS, "mclda"])
    fit.add_argument("--mode", default="rule", choices=["rule", "compare"],
                     help="how --method auto picks between alg1 and alg2")
    fit.add_argument("--refine", action="store_true", help="gradient-refine the fit")
    fit.add_argument("--max-iters", type=int, default=None, help="refinement iteration cap")
    fit.add_argument("--swap", action="store_true", help="swap class roles")
    fit.add_argument("--out", required=True, help="projection JSON output path")
    fit.set_defaults(func=cmd_fit)

    ev = sub.add_parser("eval", help="evaluate stored projections")
    ev.add_argument("--projection", nargs="+", required=True, metavar="FILE",
                    help="projection JSON files")
    _add_class_source(ev)
    ev.add_argument("--sweep-r", default=None, metavar="A..B",
                    help="sweep projection rank over an inclusive range")
    ev.add_argument("--methods", default="alg1,alg2,lol",
                    help="comma-separated method tags for the sweep")
    ev.add_argument("--refine", action="store_true",
                    help="add gradient-refined rows to the sweep")
    ev.add_argument("--classify", action="store_true",
                    help="train a plug-in classifier per projection")
    ev.add_argument("--train", metavar="CSV", help="training dataset for --classify")
    ev.add_argument("--test", metavar="CSV", help="test dataset for --classify")
    ev.add_argument("--density-grid", action="store_true",
                    help="tabulate both projected class densities on a grid")
    ev.add_argument("--resolution", type=int, default=200,
                    help=f"grid resolution per axis, 2 to {MAX_RESOLUTION}")
    ev.add_argument("--scatter", action="store_true", help="project dataset samples to 2-D")
    ev.add_argument("--out-dir", required=True, help="output directory")
    ev.set_defaults(func=cmd_eval)

    reg = sub.add_parser("regime", help="report the divergence split at a given rank")
    _add_class_source(reg)
    reg.add_argument("--r", type=int, required=True, help="projection rank")
    reg.add_argument("--swap", action="store_true", help="swap class roles")
    reg.add_argument("--out", default=None, help="write JSON here instead of stdout")
    reg.set_defaults(func=cmd_regime)

    chk = sub.add_parser("check", help="run the built-in verification suite")
    chk.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.func(args)
    except KlprojError as exc:
        _error_line(exc.code, str(exc))
        return exc.exit_code
    except ValueError as exc:
        _error_line("InvalidArguments", str(exc))
        return 2
    except OSError as exc:
        _error_line("IOError", str(exc))
        return 4


def _error_line(code: str, message: str) -> None:
    print(json.dumps({"error": code, "message": message}, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
