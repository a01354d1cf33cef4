"""One benchmark process: prepare a workload's inputs, or make one run of it.

    python3 bench/child.py prep --workload W --seed N --workdir DIR --out FILE
    python3 bench/child.py run  --workload W --seed N --workdir DIR --out FILE --t0 T [--trace]

``run.py`` starts a fresh process for every run, so peak memory and garbage
collector state belong to that run alone.  ``--t0`` is the parent's
``time.monotonic()`` just before the process was started, so ``setup_s`` and
``wall_s`` include interpreter start and imports.  The result is one JSON
object written to ``--out``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

import navprompt.data as data  # noqa: E402
import navprompt.training as training  # noqa: E402
from probe import Probe  # noqa: E402

# Epochs per run.  Widths, dataset shapes and batch sizes stay at the RunConfig
# defaults, because they set the per-op shapes that optimisations target.
STAGE1_EPOCHS = 1
STAGE2_EPOCHS = 1
PREP_STAGE1_EPOCHS = 1
# Shrunken shapes used only by the coverage self-test.
SMALL = {"indoor_samples_per_class": 3, "trajectory_count": 12}


def run_config(seed: int, out_dir: str, small: bool = False) -> training.RunConfig:
    cfg = training.RunConfig(seed=seed, out_dir=out_dir, stage1_epochs=STAGE1_EPOCHS,
                             stage2_epochs=STAGE2_EPOCHS, ablation="full")
    return dataclasses.replace(cfg, **SMALL) if small else cfg


def prepare(workload: str, seed: int, workdir: str, small: bool = False) -> dict:
    """Generate the run's inputs from the seed; stage 2 also gets a stage-1 checkpoint."""
    cfg = run_config(seed, workdir, small)
    if workload == "stage1":
        data.write_indoor_jsonl(data.gen_indoor_dataset(
            num_classes=cfg.num_classes, samples_per_class=cfg.indoor_samples_per_class,
            noise=cfg.indoor_noise, seed=seed, num_patches=cfg.num_patches, feature_dim=cfg.feature_dim,
        ), os.path.join(workdir, "indoor.jsonl"))
    elif workload == "stage2-full":
        data.write_trajectory_jsonl(data.gen_trajectory_dataset(
            count=cfg.trajectory_count, subpaths_range=(cfg.subpaths_min, cfg.subpaths_max),
            viewpoints_range=(cfg.viewpoints_min, cfg.viewpoints_max), seed=seed,
            feature_dim=cfg.feature_dim, noise=cfg.viewpoint_noise, duplicate_prob=cfg.duplicate_prob,
        ), os.path.join(workdir, "trajectories.jsonl"))
        training.run_stage1(dataclasses.replace(cfg, stage1_epochs=PREP_STAGE1_EPOCHS))
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "python": platform.python_version()}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _csv_column(path: str, column: str) -> list[float]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [float(row[column]) for row in csv.DictReader(fh)]


def execute(workload: str, seed: int, workdir: str, out_dir: str, small: bool = False) -> dict:
    """Drive the package through its public entry point; return what to check."""
    cfg = run_config(seed, out_dir, small)
    if workload == "stage1":
        dataset = data.read_indoor_jsonl(os.path.join(workdir, "indoor.jsonl"))
        result = training.run_stage1(cfg, dataset=dataset)
        losses = _csv_column(result.csv_path, "train_loss")
        info = {"val_accuracy": result.metrics["val_accuracy"]}
    else:
        dataset = data.read_trajectory_jsonl(os.path.join(workdir, "trajectories.jsonl"))
        result = training.run_stage2(cfg, os.path.join(workdir, "stage1_checkpoint.json"), dataset=dataset)
        losses = _csv_column(result.csv_path, "total")
        info = {"subpair_accuracy": result.metrics["retrieval"]["subpair_accuracy"]}
    digest = hashlib.sha256((_sha256(result.csv_path) + _sha256(result.checkpoint_path)).encode()).hexdigest()
    return {"digest": digest, "finite": bool(losses) and all(map(math.isfinite, losses)), **info}


def _peak_rss_mb() -> float:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_once(workload: str, seed: int, workdir: str, out_dir: str, t0: float, trace: bool,
             spans_path: str | None = None) -> dict:
    probe = Probe(trace=trace).install()
    try:
        outputs = execute(workload, seed, workdir, out_dir)
        done = time.monotonic()
    finally:
        probe.uninstall()
    starts, ends = probe.step_starts, probe.step_ends
    if not starts or len(starts) != len(ends):
        raise RuntimeError(f"step clocks unbalanced: {len(starts)} starts, {len(ends)} ends")
    result = {
        "setup_s": starts[0] - t0,
        "wall_s": done - t0,
        "step_s": [e - s for s, e in zip(starts, ends)],
        "items": probe.step_items,
        "peak_rss_mb": _peak_rss_mb(),
        "outputs": outputs,
    }
    if trace:
        result["per_layer"] = probe.layer_metrics()
        if spans_path:
            probe.write_spans(spans_path)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("prep", "run"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t0", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    if args.mode == "prep":
        result = prepare(args.workload, args.seed, args.workdir)
    else:
        stem = os.path.splitext(args.out)[0]
        result = run_once(args.workload, args.seed, args.workdir, stem, args.t0, args.trace,
                          spans_path=stem + "-spans.tsv")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
