"""What the benchmark measures: workloads, metrics, and the manifest self-check.

Standard library only, because the orchestrator imports it before any child
process (and before numpy) exists.  ``BENCHMARK.json`` at the repository root
is checked against the tables below before anything is timed, so the manifest
and the code cannot drift apart.
"""

from __future__ import annotations

import json
import re

WORKLOADS = ("stage1", "stage2-full")

END_TO_END = ("setup_s", "wall_s", "items_per_s", "step_ms_p50", "step_ms_p90", "peak_rss_mb")

# name -> (unit, workloads that must record at least one call for it).
# The coverage self-test in test_bench.py enforces the second column.
PER_LAYER: dict[str, tuple[str, tuple[str, ...]]] = {
    "data.read_s": ("s", WORKLOADS),
    "prompts.prepare_s": ("s", ("stage2-full",)),
    "training.ckpt_load_s": ("s", ("stage2-full",)),
    "training.precompute_s": ("s", ("stage2-full",)),
    "training.ckpt_save_s": ("s", WORKLOADS),
    "training.ckpt_bytes": ("bytes", WORKLOADS),
    "training.fwd_s": ("s", WORKLOADS),
    "training.step_other_s": ("s", WORKLOADS),
    "training.eval_s": ("s", WORKLOADS),
    "encoders.visual.fwd_s": ("s", ("stage1",)),
    "encoders.visual.rows": ("count", ("stage1",)),
    "encoders.text.fwd_s": ("s", ("stage2-full",)),
    "encoders.text.rows": ("count", ("stage2-full",)),
    "encoders.text.tokens": ("count", ("stage2-full",)),
    "encoders.text.dedup_ratio": ("ratio", ("stage2-full",)),
    "encoders.cross.fwd_s": ("s", ("stage2-full",)),
    "encoders.head.fwd_s": ("s", ("stage1",)),
    "alignment.pairwise_s": ("s", ("stage2-full",)),
    "alignment.pairwise_calls": ("1/step", ("stage2-full",)),
    "alignment.total_s": ("s", ("stage2-full",)),
    "optim.backward_s": ("s", WORKLOADS),
    "optim.step_s": ("s", WORKLOADS),
    "tensor.linear_s": ("s", WORKLOADS),
    "tensor.matmul_s": ("s", WORKLOADS),
    "tensor.softmax_s": ("s", WORKLOADS),
    "tensor.layer_norm_s": ("s", WORKLOADS),
    "tensor.gelu_s": ("s", WORKLOADS),
    "tensor.concat_s": ("s", WORKLOADS),
    "tensor.nodes_per_step": ("count", WORKLOADS),
    "tensor.gc_s": ("s", WORKLOADS),
    "tensor.gc_freed": ("count", WORKLOADS),
    "trace.overhead_s": ("s", WORKLOADS),
}

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
_PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
_TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


class ManifestError(Exception):
    """BENCHMARK.json is malformed or disagrees with this benchmark's code."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ManifestError(message)


def _check_entries(entries, keys: set, lo: int, hi: int, what: str) -> list[dict]:
    _require(isinstance(entries, list) and lo <= len(entries) <= hi, f"{what}: need {lo} to {hi} entries")
    for e in entries:
        _require(isinstance(e, dict) and set(e) == keys, f"{what}: each entry has exactly the keys {sorted(keys)}")
        _require(isinstance(e["name"], str) and _NAME.fullmatch(e["name"]) is not None,
                 f"{what}: bad name {e['name']!r}")
        if "unit" in keys:
            _require(isinstance(e["unit"], str) and _UNIT.fullmatch(e["unit"]) is not None,
                     f"{what}: bad unit {e['unit']!r}")
            _require(e["better"] in ("lower", "higher"), f"{what}: 'better' must be lower or higher")
        if "why" in keys:
            _require(isinstance(e["why"], str) and 0 < len(e["why"]) <= 200 and "\n" not in e["why"],
                     f"{what}: 'why' must be one line of at most 200 characters")
        if "bound" in keys:
            _require(isinstance(e["bound"], (int, float)) and 0 < e["bound"] <= 0.25,
                     f"{what}: bound of {e['name']} must lie in (0, 0.25]")
    return entries


def check_manifest(path: str) -> dict:
    """Parse and validate BENCHMARK.json; raise ManifestError on any breach."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ManifestError(f"cannot read {path}: {exc}") from exc
    _require(len(raw) <= 64 * 1024, "manifest exceeds 64 KiB")
    try:
        m = json.loads(raw)
    except ValueError as exc:
        raise ManifestError(f"manifest is not JSON: {exc}") from exc
    _require(isinstance(m, dict) and set(m) == _TOP_KEYS, f"manifest needs exactly the keys {sorted(_TOP_KEYS)}")

    cmd = m["command"]
    _require(isinstance(cmd, list) and 1 <= len(cmd) <= 32
             and all(isinstance(c, str) and 0 < len(c) <= 200 for c in cmd), "command: 1 to 32 strings")
    _require(not any(c.startswith("/") or ".." in c.split("/") for c in cmd), "command leaves the repository")
    paths = m["paths"]
    _require(isinstance(paths, list) and 1 <= len(paths) <= 16, "paths: 1 to 16 entries")
    for p in paths:
        _require(isinstance(p, str) and _PATH.fullmatch(p) is not None and not p.startswith("/")
                 and ".." not in p.split("/"), f"paths: bad entry {p!r}")
    rs = m["run_seconds"]
    _require(isinstance(rs, int) and not isinstance(rs, bool) and 1 <= rs <= 60, "run_seconds: whole number 1..60")

    workloads = _check_entries(m["workloads"], {"name", "why"}, 2, 8, "workloads")
    e2e = _check_entries(m["end_to_end"], {"name", "unit", "better", "bound"}, 1, 16, "end_to_end")
    layers = _check_entries(m["per_layer"], {"name", "unit", "better"}, 1, 128, "per_layer")
    names = [e["name"] for e in workloads + e2e + layers]
    _require(len(names) == len(set(names)), "a name is used more than once")

    _require(tuple(e["name"] for e in workloads) == WORKLOADS, f"workloads must be {list(WORKLOADS)}")
    _require(tuple(e["name"] for e in e2e) == END_TO_END, f"end_to_end must be {list(END_TO_END)}")
    setup = next(e for e in e2e if e["name"] == "setup_s")
    _require(setup["unit"] == "s" and setup["better"] == "lower", "setup_s must be in s, lower is better")
    _require(setup["bound"] == max(e["bound"] for e in e2e), "setup_s must carry the largest bound")
    _require({e["name"]: e["unit"] for e in layers} == {k: v[0] for k, v in PER_LAYER.items()},
             "per_layer names or units disagree with spec.PER_LAYER")
    return m


def check_output(manifest: dict, metrics: dict, trace: bool) -> None:
    """Every metric the manifest declares for this mode appears, and nothing else."""
    declared = {e["name"]: e["unit"] for e in manifest["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in metrics.items()}
    _require(got == declared, f"run output {sorted(got)} does not match the manifest {sorted(declared)}")
    for name, entry in metrics.items():
        value = entry["value"]
        _require(isinstance(value, (int, float)) and value == value and abs(value) != float("inf"),
                 f"metric {name} is not a finite number: {value!r}")
