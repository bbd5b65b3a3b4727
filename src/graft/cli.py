"""Command-line entry point: synth, ingest, transfer, baseline, eval, sweep.

Every subcommand writes exactly the files named by its --out flags, keeps all
randomness behind --seed, and is byte-reproducible given identical flags, the
same numpy/scipy builds and the same BLAS thread count.
Exit codes: 0 success, 1 pipeline/file error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import product
from pathlib import Path

from . import evalkit, synthbench
from .config import CONFIG_KEYS, TransferConfig, _parse_value, build_config, parse_config_file
from .errors import GraftError
from .hetgraph import read_graph, write_graph
from .ingest import accumulate, read_events, snapshot_series
from .transfer import run_transfer, write_report

log = logging.getLogger(__name__)

SWEEP_CSV_VERSION = "# sweep_csv v1"
METHODS = ("transfer", "nt", "dt", "rw")

# each sweep axis: the SynthSpec field or config key it varies, and the
# paper-protocol values of the generator knobs it holds fixed
_SWEEP_AXES = {
    "size": ("n_source", {"n_target": 900, "dynamic_factor": 0.1, "maturity": 0.5}),
    "dynfactor": ("dynamic_factor", {"n_source": 1200, "n_target": 600, "maturity": 0.5}),
    "maturity": ("maturity", {"n_source": 1200, "n_target": 600, "dynamic_factor": 0.2}),
    "mu": ("mu", {"n_source": 1200, "n_target": 600, "dynamic_factor": 0.2, "maturity": 0.5}),
}
_SPEC_FIELDS = dataclasses.fields(synthbench.SynthSpec)


def _config_value(key: str):
    def parse(text: str):
        try:
            return _parse_value(key, text)
        except GraftError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0  # rejected below like any count under 1
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.set_defaults(usage_error=parser.error)
    group = parser.add_argument_group("pipeline configuration")
    group.add_argument("--config", default=None, help="key=value config file; explicit flags win")
    for key in CONFIG_KEYS:
        group.add_argument(
            f"--{key.replace('_', '-')}",
            dest=f"cfg_{key}",
            type=_config_value(key),
            default=argparse.SUPPRESS,
            metavar="V",
            help=f"override config key {key}",
        )


def _build_config_from_args(args: argparse.Namespace, cell_keys: tuple = ()) -> TransferConfig:
    """Defaults overlaid by the --config file, then by flags; setting a ``cell_keys`` key is a usage error."""
    file_overrides = {}
    config_path = getattr(args, "config", None)
    if config_path:
        # a file that cannot be read, decoded or parsed is bad input (exit 1)
        try:
            file_overrides = parse_config_file(Path(config_path).read_text(encoding="utf-8"))
        except (GraftError, UnicodeDecodeError) as exc:
            raise GraftError(f"{config_path}: {exc}") from None
    flag_overrides = {
        key: getattr(args, f"cfg_{key}")
        for key in CONFIG_KEYS
        if hasattr(args, f"cfg_{key}")
    }
    for key, owner in cell_keys:
        if key in file_overrides or key in flag_overrides:
            args.usage_error(f"sweep takes {key} from {owner}; do not set it by flag or config file")
    try:
        return build_config(file_overrides, flag_overrides)
    except GraftError as exc:  # a value out of range is a usage error, like a malformed flag
        args.usage_error(str(exc))


def _cmd_synth(args) -> int:
    try:
        spec = synthbench.SynthSpec(**{f.name: getattr(args, f.name) for f in _SPEC_FIELDS})
    except GraftError as exc:  # a value out of range is a usage error, like a malformed flag
        args.usage_error(str(exc))
    gs, gt_truth, gt_hat = synthbench.generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_graph(gs, out / "source.graph")
    write_graph(gt_truth, out / "target_truth.graph")
    write_graph(gt_hat, out / "target_partial.graph")
    meta = {"spec": spec.to_dict(), "measured": synthbench.measured_stats(gs, gt_truth, gt_hat)}
    (out / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return 0


def _cmd_ingest(args) -> int:
    events = read_events(args.events)
    if args.window is None:
        write_graph(accumulate(events), args.out)
        return 0
    snaps = snapshot_series(events, args.window)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for k, snap in enumerate(snaps):  # as many digits as the last index, so names sort in time order
        write_graph(snap, out / f"snapshot_{k:0{max(4, len(str(len(snaps) - 1)))}d}.graph")
    return 0


def _cmd_transfer(args) -> int:
    config = _build_config_from_args(args)
    source = read_graph(args.source)
    target = read_graph(args.target)
    graph, report = run_transfer(source, target, config)
    write_graph(graph, args.out)
    if args.report:
        write_report(report, args.report)
    return 0


def _estimate(method: str, source, target, config):
    """The target estimate of one of ``METHODS``; nt reads neither source nor config."""
    if method == "nt":
        return evalkit.baseline_nt(target)
    if method == "dt":
        return evalkit.baseline_dt(source, target)
    if method == "rw":
        return evalkit.baseline_random_walk(source, target, config)
    return run_transfer(source, target, config)[0]


def _cmd_baseline(args) -> int:
    if args.method != "nt" and not args.source:
        args.usage_error(f"method {args.method!r} requires --source")
    if args.method == "nt" and args.source:
        args.usage_error("method 'nt' reads no --source")
    config = None
    if args.method == "rw":
        config = _build_config_from_args(args)
    elif args.config or any(hasattr(args, f"cfg_{key}") for key in CONFIG_KEYS):
        args.usage_error(f"method {args.method!r} reads no pipeline configuration; only rw takes --config or its flags")
    target = read_graph(args.target)
    source = read_graph(args.source) if args.source else None
    write_graph(_estimate(args.method, source, target, config), args.out)
    return 0


def _cmd_eval(args) -> int:
    result = evalkit.score(read_graph(args.estimate), read_graph(args.truth))
    text = json.dumps(result.to_dict(), sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


def _sweep_cell(cell: tuple) -> list:
    """One (axis, value, method, seed) run; returns a CSV row. Worker-safe."""
    axis, value, method, seed, config_dict = cell
    varied, fixed = _SWEEP_AXES[axis]
    knobs = {**fixed, varied: value, "seed": seed}
    try:
        spec = synthbench.SynthSpec(**{f.name: knobs[f.name] for f in _SPEC_FIELDS if f.name in knobs})
        gs, gt_truth, gt_hat = synthbench.generate(spec)
        config = TransferConfig(**{**config_dict, **{k: v for k, v in knobs.items() if k in CONFIG_KEYS}})
        result = evalkit.score(_estimate(method, gs, gt_hat, config), gt_truth)
    except GraftError as exc:
        return [axis, value, method, seed, "", "", "", f"error: {exc}"]
    return [
        axis, value, method, seed,
        f"{result.entity_f1:.6f}", f"{result.edge_f1:.6f}", f"{result.combined_f1:.6f}", "ok",
    ]


def _split(text: str, what: str, parse=str) -> list:
    """The non-empty comma-separated items of ``text``, each through ``parse``."""
    try:
        items = [parse(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise GraftError(f"bad {what}: {exc}") from None
    if not items:
        raise GraftError(f"no {what} given")
    return items


def _cmd_sweep(args) -> int:
    try:
        methods = _split(args.methods, "methods")
        for m in methods:
            if m not in METHODS:
                raise GraftError(f"unknown method {m!r}; choose from {', '.join(METHODS)}")
        seeds = _split(args.seeds, "seeds", int)
        values = _split(args.values, "axis values", int if args.axis == "size" else float)
    except GraftError as exc:  # a malformed grid is a usage error, like a malformed flag
        args.usage_error(str(exc))
    # each cell sets these (key, owner) itself, so a value given here would go unread
    cell_keys = (("seed", "--seeds"), (_SWEEP_AXES[args.axis][0], f"the {args.axis} axis"))
    config_dict = _build_config_from_args(args, cell_keys).to_dict()
    cells = [(args.axis, *key, config_dict) for key in sorted(product(values, methods, seeds))]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    else:
        rows = [_sweep_cell(cell) for cell in cells]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(SWEEP_CSV_VERSION + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["axis", "value", "method", "seed", "entity_f1", "edge_f1", "combined_f1", "status"])
        writer.writerows(rows)
    failures = sum(1 for row in rows if row[-1] != "ok")
    if failures:
        log.error("%d of %d sweep rows failed", failures, len(rows))
        return 1
    return 0


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graft",
        description="Dependency-graph transfer toolkit: generate benchmarks, "
        "ingest event streams, run the transfer pipeline, and evaluate results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic benchmark instance")
    for f in _SPEC_FIELDS:
        required = f.default is dataclasses.MISSING
        p.add_argument(
            f"--{f.name.replace('_', '-')}",
            type=int if f.type == "int" else float,
            required=required,
            default=None if required else f.default,
        )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth, usage_error=p.error)

    p = sub.add_parser("ingest", help="build a graph from a JSONL event stream")
    p.add_argument("--events", required=True)
    p.add_argument("--window", type=_positive_int, help="snapshot window in ms; makes --out a directory")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("transfer", help="run the full transfer pipeline")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None, help="also write the run report JSON here")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_transfer)

    p = sub.add_parser("baseline", help="run a baseline method")
    p.add_argument("--method", required=True, choices=["nt", "dt", "rw"])
    p.add_argument("--source", default=None)
    p.add_argument("--target", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("eval", help="score an estimated graph against a ground truth")
    p.add_argument("--estimate", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", default=None, help="also write the JSON result here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="grid of synthetic runs, written as CSV")
    p.add_argument("--axis", required=True, choices=sorted(_SWEEP_AXES))
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--methods", required=True, help=f"comma-separated subset of: {', '.join(METHODS)}")
    p.add_argument("--seeds", default="0", help="comma-separated generator seeds")
    p.add_argument("--jobs", type=_positive_int, default=1, help="worker processes (default 1: serial)")
    p.add_argument("--out", required=True, help="output CSV path")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_sweep)
    return parser


def _setup_logging() -> None:
    level = os.environ.get("GRAFT_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        level=levels.get(level, logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = _make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraftError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
