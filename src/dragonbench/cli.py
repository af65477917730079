"""Command-line entry points.

Subcommands: generate (synthetic data to CSV), train (fit one model and
save a checkpoint), estimate (apply the estimator suite to a checkpoint
plus a CSV), bench (replicated experiment, optionally a method grid),
sweep-subsample and sweep-trim.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .bench import (
    ARCH_ORACLE,
    DEFAULT_BASELINE,
    DEFAULT_TRUNCATION_LEVELS,
    ExperimentConfig,
    emit_report,
    emit_sweep_report,
    format_summary,
    format_truncation_table,
    make_dataset,
    run_experiment,
    run_grid,
    subsample_sweep,
    truncation_sweep,
)
from .datagen import load_csv, write_csv
from .errors import PACKAGE_ERRORS, ConfigError
from .estimators import apply_estimators
from .models import ARCH_DRAGONNET, ARCHITECTURES, load_checkpoint, save_checkpoint
from .schema import config_values, plain
from .train import TrainConfig, train_architecture


def _parse_pair(text: str, sep: str = ",") -> tuple[float, float]:
    parts = text.split(sep)
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'low{sep}high', got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_rates(text: str) -> list[float]:
    return [float(r) for r in text.split(",")]


def _parse_levels(text: str) -> list[tuple[float, float]]:
    return [_parse_pair(chunk, ":") for chunk in text.split(",")]


def _load_config(args) -> ExperimentConfig:
    with open(args.config) as fh, config_values(f"config file {args.config}"):
        cfg = ExperimentConfig.from_dict(json.load(fh))
    overrides = {}
    for name in ("architecture", "treg", "alpha", "beta", "trim", "replications", "workers"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "seed", None) is not None:
        overrides["base_seed"] = args.seed
    if getattr(args, "estimators", None):
        overrides["estimators"] = tuple(args.estimators.split(","))
    return replace(cfg, **overrides) if overrides else cfg


def _add_bench_flags(sub):
    sub.add_argument("--config", required=True, help="experiment config JSON")
    sub.add_argument("--arch", dest="architecture", choices=[*ARCHITECTURES, ARCH_ORACLE])
    sub.add_argument("--treg", dest="treg", action="store_const", const=True)
    sub.add_argument("--no-treg", dest="treg", action="store_const", const=False)
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--beta", type=float)
    sub.add_argument("--replications", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--workers", type=int)
    sub.add_argument("--estimators", help="comma-separated subset of Q,AIPTW,TMLE,TREG")
    sub.add_argument("--out-dir", help="write summary.csv and runs.json here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dragonbench")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate", help="draw a synthetic dataset and write CSV")
    gen.add_argument("--dgp", required=True, help="generator spec as JSON, e.g. '{\"kind\": \"lin\", \"n\": 1000, \"p\": 10}'")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    tr = subs.add_parser("train", help="fit one model on a CSV and save a checkpoint")
    tr.add_argument("--data", required=True)
    tr.add_argument("--arch", default="dragonnet", choices=ARCHITECTURES)
    tr.add_argument("--alpha", type=float, default=1.0)
    tr.add_argument("--beta", type=float, default=0.0)
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--out", required=True, help="checkpoint path")

    est = subs.add_parser("estimate", help="apply the estimator suite to a checkpoint")
    est.add_argument("--checkpoint", required=True)
    est.add_argument("--data", required=True)
    est.add_argument("--trim", type=_parse_pair, default=(0.01, 0.99), metavar="LOW,HIGH")
    est.add_argument("--estimators", help="comma-separated subset of Q,AIPTW,TMLE,TREG")

    bench = subs.add_parser("bench", help="replicated experiment (one method or a grid)")
    _add_bench_flags(bench)
    bench.add_argument("--grid", action="store_true", help="run the tarnet/dragonnet x treg grid")
    bench.add_argument("--baseline", help=f"grid method to compare with (default {DEFAULT_BASELINE})")

    sub_sweep = subs.add_parser("sweep-subsample", help="re-run at nested subsample rates")
    _add_bench_flags(sub_sweep)
    for sub in (bench, sub_sweep):  # sweep-trim sets the trim per level
        sub.add_argument("--trim", type=_parse_pair, metavar="LOW,HIGH")
    sub_sweep.add_argument("--rates", required=True, type=_parse_rates, help="comma-separated rates in (0, 1]")

    trim_sweep = subs.add_parser("sweep-trim", help="re-estimate under several trim levels")
    _add_bench_flags(trim_sweep)
    trim_sweep.add_argument(
        "--levels",
        type=_parse_levels,
        default=list(DEFAULT_TRUNCATION_LEVELS),
        help="comma-separated low:high pairs",
    )
    return parser


def _cmd_generate(args) -> int:
    with config_values("--dgp"):
        dgp = json.loads(args.dgp)
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    dataset = make_dataset(dgp, np.random.default_rng(args.seed), 0)
    write_csv(dataset, args.out)
    print(f"wrote {dataset.n} rows x {dataset.p} covariates to {args.out}")
    return 0


def _cmd_train(args) -> int:
    dataset = load_csv(args.data)
    cfg = TrainConfig(alpha=args.alpha, beta=args.beta, seed=args.seed)
    if args.epochs is not None:
        cfg = replace(cfg, epochs=args.epochs)
    model = train_architecture(args.arch, dataset, cfg)
    save_checkpoint(model, args.out)
    trace = model.metadata["train_loss_trace"]
    if trace:
        last = trace[-1]
        print(f"epochs run: {len(trace)} (best {model.metadata['best_epoch']})")
        print(f"final training loss: total={last['total']:.6f} outcome={last['outcome']:.6f} xent={last['xent']:.6f}")
    else:
        print("epochs run: 0")
    if model.treg:
        print(f"epsilon_hat: {model.epsilon_hat:.6g}")
    print(f"checkpoint written to {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    model = load_checkpoint(args.checkpoint)
    dataset = load_csv(args.data)
    tags = tuple(args.estimators.split(",")) if args.estimators else None
    reports = apply_estimators(
        model, dataset.X, dataset.t.astype(np.float64), dataset.y, args.trim, tags
    )
    truth = dataset.sample_ate
    for tag, report in reports.items():
        line = plain(report)
        if truth is not None:
            line["abs_err"] = abs(report.psi_hat - truth)
        print(json.dumps(line))
    return 0


def _cmd_bench(args) -> int:
    if args.grid and (args.architecture is not None or args.treg is not None):
        flag = "--arch" if args.architecture is not None else ("--treg" if args.treg else "--no-treg")
        raise ConfigError(f"{flag} cannot be combined with --grid, which sets it per method")
    if not args.grid and args.baseline is not None:
        raise ConfigError("--baseline needs --grid")
    if args.grid:  # the grid sets both per method; a treg base config may list TREG
        args.architecture, args.treg = ARCH_DRAGONNET, True
    cfg = _load_config(args)
    if args.grid:
        result = run_grid(cfg, baseline=DEFAULT_BASELINE if args.baseline is None else args.baseline)
    else:
        result = run_experiment(cfg)
    print(format_summary(result))
    if args.out_dir:
        paths = emit_report(result, args.out_dir)
        print(f"report written to {paths['summary']} and {paths['runs']}")
    return 0


def _cmd_sweep_subsample(args) -> int:
    cfg = _load_config(args)
    sweep = subsample_sweep(cfg, args.rates)
    for rate, result in sweep.items():
        print(f"rate {rate}:")
        print(format_summary(result))
        print()
    if args.out_dir:
        paths = emit_sweep_report(sweep, args.out_dir, "subsample")
        print(f"sweep written to {paths['csv']} and {paths['json']}")
    return 0


def _cmd_sweep_trim(args) -> int:
    cfg = _load_config(args)
    sweep = truncation_sweep(cfg, args.levels)
    print(format_truncation_table(sweep))
    if args.out_dir:
        paths = emit_sweep_report(sweep, args.out_dir, "trim")
        print(f"sweep written to {paths['csv']} and {paths['json']}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "estimate": _cmd_estimate,
    "bench": _cmd_bench,
    "sweep-subsample": _cmd_sweep_subsample,
    "sweep-trim": _cmd_sweep_trim,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (*PACKAGE_ERRORS, OSError) as err:  # OSError: a file that cannot be read or written
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
