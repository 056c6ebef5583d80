"""Command-line front end.

`pipeline` executes the whole reduction experiment from a JSON config;
the stage subcommands (generate, weigh, cluster, reduce, simulate, compare)
read and write the documented file formats in a shared work directory so
pipelines can be composed or resumed. Exit codes: 0 success, 1 config
error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import report_to_json
from .errors import ConfigError, FcmReduceError
from .pipeline import (
    PipelineConfig,
    config_from_dict,
    load_config,
    run_pipeline,
    run_sweep,
    stage_cluster_files,
    stage_compare_files,
    stage_generate_files,
    stage_reduce_files,
    stage_simulate_files,
    stage_weigh_files,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON pipeline config file")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--metric", help="override the similarity metric")
    parser.add_argument("--algorithm", help="override the community algorithm")
    parser.add_argument("--topology", help="override the topology kind")
    parser.add_argument("--out", help="output / work directory", default="out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcmreduce",
        description="Reduce hybrid agent/FCM populations by merging agents who think alike.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pipeline", help="run the full reduction pipeline")
    _add_common(p)
    p.add_argument(
        "--sweep", action="store_true",
        help="run every metric x algorithm x topology cell and emit sweep.csv",
    )

    for name, help_text in (
        ("generate", "build the population, topology, and channels"),
        ("weigh", "weight social ties with the configured metric"),
        ("cluster", "detect communities on the weighted ties"),
        ("reduce", "select representatives and contract the model"),
        ("compare", "compute the fidelity report from two distributions"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)

    p = sub.add_parser("simulate", help="run the output distribution for a model")
    _add_common(p)
    p.add_argument(
        "--model", choices=("original", "reduced"), default="original",
        help="which model to simulate",
    )

    sub.choices["compare"].add_argument("--original", help="original distribution CSV")
    sub.choices["compare"].add_argument("--simplified", help="simplified distribution CSV")
    return parser


def _resolve_config(args) -> PipelineConfig:
    overrides = {
        "seed": args.seed,
        "metric": args.metric,
        "algorithm": args.algorithm,
        "topology": args.topology,
    }
    if args.config:
        return load_config(args.config, **overrides)
    return config_from_dict({}, **overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "pipeline":
            if args.sweep:
                rows = run_sweep(cfg, args.out)
                print(f"sweep complete: {len(rows)} cells -> {args.out}/sweep.csv")
            else:
                result = run_pipeline(cfg, out_dir=args.out)
                print(report_to_json(result.report))
        elif args.command == "generate":
            stage_generate_files(cfg, args.out)
            print(f"wrote population.json and topology.csv to {args.out}")
        elif args.command == "weigh":
            stage_weigh_files(cfg, args.out)
            print(f"wrote ties.csv to {args.out}")
        elif args.command == "cluster":
            stage_cluster_files(cfg, args.out)
            print(f"wrote partition.csv to {args.out}")
        elif args.command == "reduce":
            stage_reduce_files(cfg, args.out)
            print(f"wrote reduced model and provenance to {args.out}")
        elif args.command == "simulate":
            stage_simulate_files(cfg, args.out, model=args.model)
            print(f"wrote distribution_{args.model}.csv to {args.out}")
        elif args.command == "compare":
            report = stage_compare_files(
                cfg, args.out,
                original_path=args.original, simplified_path=args.simplified,
            )
            print(report_to_json(report))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (FcmReduceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
