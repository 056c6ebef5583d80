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
from .errors import ConfigError, FcmReduceError, number_text
from .pipeline import (
    MODELS,
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


def integer(text: str) -> int:
    return int(number_text(text))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON pipeline config file")
    parser.add_argument("--seed", type=integer, help="override the master seed")
    parser.add_argument("--metric", help="override the similarity metric")
    parser.add_argument("--algorithm", help="override the community algorithm")
    parser.add_argument("--topology", help="override the topology kind")
    parser.add_argument("--out", help="output / work directory", default="out")


def _pipeline(cfg: PipelineConfig, args) -> str:
    if args.sweep:
        rows = run_sweep(cfg, args.out)
        return f"sweep complete: {len(rows)} cells -> {args.out}/sweep.csv"
    return report_to_json(run_pipeline(cfg, out_dir=args.out).report)


# command -> (help, extra flags, runner). A runner takes the resolved config
# and the parsed arguments, and returns the text to print or the names of the
# files it wrote. It names its stage function in its body, so the name is
# looked up in this module at call time and a wrapper patched in here (as
# perfbench/layers.py does) sees the call.
COMMANDS = {
    "pipeline": ("run the full reduction pipeline", {"--sweep": {
        "action": "store_true",
        "help": "run every metric x algorithm x topology cell and emit sweep.csv",
    }}, _pipeline),
    "generate": ("build the population, topology, and channels", {},
                 lambda cfg, a: stage_generate_files(cfg, a.out)),
    "weigh": ("weight social ties with the configured metric", {},
              lambda cfg, a: stage_weigh_files(cfg, a.out)),
    "cluster": ("detect communities on the weighted ties", {},
                lambda cfg, a: stage_cluster_files(cfg, a.out)),
    "reduce": ("select representatives and contract the model", {},
               lambda cfg, a: stage_reduce_files(cfg, a.out)),
    "compare": ("compute the fidelity report from two distributions", {
        "--original": {"help": "original distribution CSV"},
        "--simplified": {"help": "simplified distribution CSV"},
    }, lambda cfg, a: report_to_json(stage_compare_files(
        cfg, a.out, original_path=a.original, simplified_path=a.simplified,
    ))),
    "simulate": ("run the output distribution for a model", {"--model": {
        "choices": MODELS, "default": "original",
        "help": "which model to simulate",
    }}, lambda cfg, a: stage_simulate_files(cfg, a.out, model=a.model)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcmreduce",
        description="Reduce hybrid agent/FCM populations by merging agents who think alike.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
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
        out = COMMANDS[args.command][2](_resolve_config(args), args)
        print(out if isinstance(out, str) else f"wrote {', '.join(out)} to {args.out}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (FcmReduceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
