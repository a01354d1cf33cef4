"""Command-line entry points.

Subcommands: gen-data, segment, prompts, stage1, stage2, eval, gradcheck.
Run configuration flags mirror RunConfig field names; a `--config` file with
`key = value` lines supplies defaults that explicit flags override.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .data import read_indoor_jsonl, read_trajectory_jsonl, trajectory_record, write_indoor_jsonl, write_trajectory_jsonl
from .errors import NavPromptError, ParameterError
from .training import (
    RunConfig,
    coerce_field,
    evaluate_retrieval,
    load_checkpoint,
    parse_config_file,
    precompute_viewpoint_features,
    prepare_trajectories,
    run_stage1,
    run_stage2,
    stage1_gradient_report,
    stage2_gradient_report,
)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_runconfig_flags(parser: argparse.ArgumentParser) -> None:
    # values stay strings here; _build_runconfig coerces them as a config file's are
    for field in dataclasses.fields(RunConfig):
        parser.add_argument(_flag(field.name), dest=field.name, default=None)


def _build_runconfig(args: argparse.Namespace, required: tuple[str, ...] = ()) -> RunConfig:
    """The RunConfig of the ``--config`` file overridden by flags; each ``required`` field must be set in one."""
    values = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for field in dataclasses.fields(RunConfig):
        given = getattr(args, field.name, None)
        if given is not None:
            try:
                values[field.name] = coerce_field(field.name, given)
            except ParameterError as exc:
                raise ParameterError(f"{_flag(field.name)}: {exc}") from None
    for name in required:
        if name not in values:
            raise ParameterError(f"{args.command} requires {_flag(name)} or '{name} = ...' in its --config file")
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def _cmd_gen_data(args) -> int:
    cfg = _build_runconfig(args, required=("seed",))
    if args.kind == "indoor":
        samples = cfg.indoor_dataset()
        write_indoor_jsonl(samples, args.output)
    else:
        samples = cfg.trajectory_dataset()
        write_trajectory_jsonl(samples, args.output)
    print(f"wrote {len(samples)} {args.kind} records to {args.output}")
    return 0


def _cmd_segment(args) -> int:
    samples = read_trajectory_jsonl(args.input)
    with open(args.output, "w", encoding="utf-8") as fh:
        for s in samples:
            record = trajectory_record(s)
            record["aligned_ranges"] = record["chunk_view"]
            fh.write(json.dumps(record, allow_nan=False))
            fh.write("\n")
    print(f"segmented {len(samples)} records into {args.output}")
    return 0


def _cmd_prompts(args) -> int:
    for s in read_trajectory_jsonl(args.input):
        print(json.dumps(dataclasses.asdict(s.prompt_set()), allow_nan=False))
    return 0


def _cmd_stage1(args) -> int:
    cfg = _build_runconfig(args)
    dataset = read_indoor_jsonl(args.data) if args.data else None
    result = run_stage1(cfg, dataset=dataset)
    print(json.dumps({"metrics": result.metrics, "checkpoint": result.checkpoint_path}, indent=2, allow_nan=False))
    return 0


def _cmd_stage2(args) -> int:
    cfg = _build_runconfig(args)
    dataset = read_trajectory_jsonl(args.data) if args.data else None
    result = run_stage2(cfg, args.stage1_ckpt, dataset=dataset)
    printable = dict(result.metrics)
    printable.pop("epoch_total_loss", None)
    print(json.dumps({"metrics": printable, "checkpoint": result.checkpoint_path}, indent=2, allow_nan=False))
    return 0


def _cmd_eval(args) -> int:
    store, enc, vocab, config = load_checkpoint(args.ckpt, "stage2")
    dataset = read_trajectory_jsonl(args.data)
    features = precompute_viewpoint_features(dataset, store, enc)
    prepared = prepare_trajectories(dataset, vocab, enc, features)
    metrics = evaluate_retrieval(store, enc, prepared, mode=config["ablation"])
    print(json.dumps(metrics, indent=2, allow_nan=False))
    return 0


def _cmd_gradcheck(args) -> int:
    if not 0 < args.tolerance < np.inf:
        raise ParameterError(f"--tolerance must be finite and above 0, got {args.tolerance}")
    ok = True
    for stage, label, check in (("1", "stage1 cross-entropy", stage1_gradient_report),
                                ("2", "stage2 weighted alignment loss", stage2_gradient_report)):
        if args.stage in (stage, "both"):
            report = check(eps=args.eps)
            worst = max(report.per_param, key=report.per_param.get)
            print(f"{label}: worst {worst} {report.per_param[worst]:.2e} of its gradient scale")
            ok &= report.max_rel_error < args.tolerance
    print("gradcheck:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="navprompt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--kind", choices=("indoor", "trajectories"), required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--config")
    _add_runconfig_flags(p)
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("segment", help="split instructions and align sub-paths")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=_cmd_segment)

    p = sub.add_parser("prompts", help="print context prompt sets per record")
    p.add_argument("--input", required=True)
    p.set_defaults(fn=_cmd_prompts)

    p = sub.add_parser("stage1", help="prompt tuning on the frozen backbone")
    p.add_argument("--config")
    p.add_argument("--data", help="indoor JSONL (generated when omitted)")
    _add_runconfig_flags(p)
    p.set_defaults(fn=_cmd_stage1)

    p = sub.add_parser("stage2", help="contrastive prompt alignment")
    p.add_argument("--config")
    p.add_argument("--stage1-ckpt", required=True, help="the stage1_checkpoint.json that stage 1 wrote")
    p.add_argument("--data", help="trajectory JSONL (generated when omitted)")
    _add_runconfig_flags(p)
    p.set_defaults(fn=_cmd_stage2)

    p = sub.add_parser("eval", help="retrieval metrics for a stage-2 checkpoint, in the mode it trained")
    p.add_argument("--ckpt", required=True, help="the stage2_checkpoint.json that stage 2 wrote")
    p.add_argument("--data", required=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference verification of both stage losses")
    p.add_argument("--stage", choices=("1", "2", "both"), default="both")
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(fn=_cmd_gradcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NavPromptError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
