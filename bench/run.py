"""navprompt benchmark: run one workload in fresh processes and print one JSON line.

    python3 bench/run.py --workload stage1 --seed 1 --seconds 60 --trace 0

Run from the repository root.  The manifest (BENCHMARK.json) is checked before
anything is timed.  Inputs are generated from ``--seed`` by an untimed
preparation process.  Then runs of the workload, each in a fresh child process
and one at a time, repeat while another one fits in ``--seconds`` (at least
two, so that every run's outputs can be compared with the first's).
``--trace 1`` alternates untraced and traced runs and reports the per-layer
metrics of the traced ones plus the tracing overhead.

A run fails when its process raises, when it logs a non-finite loss, or when
its stage CSV log and checkpoint differ by sha256 from the first run of the
invocation (the bitwise-determinism contract).  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the line before
it, starting with ``#``, records the machine, the output digests and
accuracies.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from spec import WORKLOADS, ManifestError, check_manifest, check_output

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
MIN_RUNS = 2
HARD_LIMIT_S = 170.0  # the whole invocation must end within 180 s


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _child_env(nproc: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def _spawn(argv: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess | None:
    """Run a child to completion; None when it overran the invocation's time."""
    try:
        return subprocess.run([sys.executable, CHILD, *argv], env=env, cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
        return None


def _read(path: str) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _deciles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=10, method="inclusive")


def _judge(run: dict, reference: dict | None) -> str | None:
    """The reason a run's outputs are wrong, or None when they are correct."""
    out = run["outputs"]
    if not out["finite"]:
        return "non-finite loss"
    if reference is not None and out["digest"] != reference["outputs"]["digest"]:
        return "outputs differ from the first run"
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S

    try:
        manifest = check_manifest(os.path.join(ROOT, "BENCHMARK.json"))
    except ManifestError as exc:
        print(f"bench: manifest check failed: {exc}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "navprompt", "__init__.py")):
        print("bench: src/navprompt not found; run from a full checkout", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    machine = {"nproc": nproc, "cpu": _cpu_model(), "loadavg": os.getloadavg()}
    env = _child_env(nproc)
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir]

    prep_out = os.path.join(workdir, "prep.json")
    proc = _spawn(["prep", *common, "--out", prep_out], env, deadline)
    versions = _read(prep_out) if proc is not None and proc.returncode == 0 else None
    if versions is None:
        print("bench: input preparation failed\n" + (proc.stderr if proc else "timed out"), file=sys.stderr)
        return 1
    machine.update(versions)

    measure_end = time.monotonic() + args.seconds
    runs: list[tuple[bool, dict | None]] = []  # (traced, result or None when failed)
    outputs: list[dict] = []
    failures: list[str] = []
    durations: list[float] = []
    while len(runs) < MIN_RUNS or time.monotonic() + statistics.median(durations) <= measure_end:
        traced = bool(args.trace) and len(runs) % 2 == 1
        out = os.path.join(workdir, f"run-{len(runs)}.json")
        t0 = time.monotonic()
        proc = _spawn(["run", *common, "--out", out, "--t0", repr(t0), *(["--trace"] if traced else [])],
                      env, deadline)
        durations.append(time.monotonic() - t0)
        run = _read(out) if proc is not None and proc.returncode == 0 else None
        if run is None:
            tail = proc.stderr.strip().splitlines()[-1:] if proc is not None else ["overran the time limit"]
            reason = f"process failed: {' '.join(tail) or proc.returncode}"
        else:
            outputs.append(run["outputs"])
            reference = next((r for _, r in runs if r is not None), None)
            reason = _judge(run, reference)
            if reason is None and reference is not None:
                # bit-identical to the reference run's CSV log and checkpoint,
                # which are kept; this keeps disk use flat over many runs
                shutil.rmtree(os.path.splitext(out)[0], ignore_errors=True)
        if reason is not None:
            failures.append(f"run {len(runs)}: {reason}")
        runs.append((traced, run if reason is None else None))
        if time.monotonic() + max(durations) > deadline:
            break

    plain = [r for traced, r in runs if r is not None and not traced]
    with_trace = [r for traced, r in runs if r is not None and traced]
    if not plain or (args.trace and not with_trace):
        print("bench: no successful run to report\n" + "\n".join(failures), file=sys.stderr)
        return 1

    if args.trace:
        names = with_trace[0]["per_layer"]
        values = {k: statistics.median(r["per_layer"][k] for r in with_trace) for k in names}
        values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in with_trace)
                                      - statistics.median(r["wall_s"] for r in plain))
        units = {e["name"]: e["unit"] for e in manifest["per_layer"]}
    else:
        # Per-run figures are medians over runs, so a run slowed by the host's
        # other tenants moves no metric.  Step percentiles are taken over the
        # steps of all runs together: a stage-2 run has only 23 steps, too few
        # for a p90 on its own.
        steps = [t for r in plain for t in r["step_s"]]

        def over_runs(stat) -> float:
            return statistics.median(stat(r) for r in plain)

        values = {
            "setup_s": over_runs(lambda r: r["setup_s"]),
            "wall_s": over_runs(lambda r: r["wall_s"]),
            "items_per_s": over_runs(lambda r: sum(r["items"]) / sum(r["step_s"])),
            "step_ms_p50": 1e3 * _deciles(steps)[4],
            "step_ms_p90": 1e3 * _deciles(steps)[8],
            "peak_rss_mb": over_runs(lambda r: r["peak_rss_mb"]),
        }
        units = {e["name"]: e["unit"] for e in manifest["end_to_end"]}
    metrics = {k: {"value": v, "unit": units.get(k, "?")} for k, v in values.items()}
    try:
        check_output(manifest, metrics, bool(args.trace))
    except ManifestError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    info = {
        "workload": args.workload, "seed": args.seed, "machine": machine,
        "runs": len(runs), "traced_runs": len(with_trace),
        "steps_per_run": [len(r["step_s"]) for r in plain],
        "outputs": outputs,
        "failures": failures,
        "elapsed_s": time.monotonic() - started,
    }
    print("# " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": len(runs), "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
