"""Self-tests of the benchmark: manifest check, span coverage, wrapper removal.

    python3 -m pytest bench/test_bench.py -q

A rename under ``src/`` would otherwise silently zero a layer, so every
per-layer metric must record at least one call on each workload that
``spec.PER_LAYER`` maps it to, at shrunken input sizes.
"""

from __future__ import annotations

import gc
import inspect
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import child  # noqa: E402  (puts src/ on the path)
import navprompt.data  # noqa: E402
import navprompt.encoders  # noqa: E402
import navprompt.optim  # noqa: E402
import navprompt.training  # noqa: E402
from probe import Probe  # noqa: E402
from spec import END_TO_END, PER_LAYER, WORKLOADS, ManifestError, check_manifest, check_output  # noqa: E402

MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
_OWNERS = (navprompt.data, navprompt.encoders, navprompt.optim, navprompt.training, navprompt.optim.Optimizer)


def _leftover_wrappers() -> list[str]:
    left = [f"{getattr(o, '__name__', o)}.{name}" for o in _OWNERS for name, value in vars(o).items()
            if inspect.isfunction(value) and value.__module__ == "probe"]
    left += [repr(cb) for cb in gc.callbacks if isinstance(getattr(cb, "__self__", None), Probe)]
    return left


def test_manifest_matches_code():
    manifest = check_manifest(MANIFEST)
    assert [e["name"] for e in manifest["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("edit", [
    lambda m: m["workloads"][0].update(name="stage 1"),
    lambda m: m["end_to_end"][0].update(bound=0.3),
    lambda m: m["per_layer"].pop(),
    lambda m: m.update(run_seconds=61),
    lambda m: m.update(extra=1),
])
def test_manifest_rejects_breaches(tmp_path, edit):
    with open(MANIFEST, encoding="utf-8") as fh:
        manifest = json.load(fh)
    edit(manifest)
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps(manifest))
    with pytest.raises(ManifestError):
        check_manifest(str(path))


def test_output_check_names_missing_metrics():
    manifest = check_manifest(MANIFEST)
    full = {e["name"]: {"value": 1.0, "unit": e["unit"]} for e in manifest["end_to_end"]}
    check_output(manifest, full, trace=False)
    del full[END_TO_END[-1]]
    with pytest.raises(ManifestError):
        check_output(manifest, full, trace=False)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_span_coverage_and_cleanup(tmp_path, workload, trace):
    child.prepare(workload, 3, str(tmp_path), small=True)
    probe = Probe(trace=trace).install()
    try:
        outputs = child.execute(workload, 3, str(tmp_path), str(tmp_path / "out"), small=True)
    finally:
        probe.uninstall()
    assert _leftover_wrappers() == []
    assert outputs["finite"]
    assert probe.step_starts and len(probe.step_starts) == len(probe.step_ends) == len(probe.step_items)
    assert all(e > s for s, e in zip(probe.step_starts, probe.step_ends))
    if not trace:
        assert probe.names == [] and not probe.counts
        return
    metrics = probe.layer_metrics()
    assert set(metrics) | {"trace.overhead_s"} == set(PER_LAYER)
    silent = [name for name, (_, mapped) in PER_LAYER.items()
              if workload in mapped and name != "trace.overhead_s" and not metrics[name] > 0]
    assert silent == []


def test_refuses_without_the_package(tmp_path):
    shutil.copy(MANIFEST, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "stage1", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
