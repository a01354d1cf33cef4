"""Golden runs: pinned digests of stage 1 and of stage 2 in every ablation mode.

One subprocess, started with ``OPENBLAS_NUM_THREADS=1`` so the setting holds
before numpy loads, trains stage 1 and then stage 2 in each ``ABLATION_TERMS``
mode for 2 epochs at the default widths on small datasets.  The test compares
the sha256 of each CSV log and summary, each checkpoint's ``sha256`` field
(config, frozen set and tensors) and each stage-2 retrieval dict with the
pins below.

The pins hold for one numpy/BLAS build and CPU dispatch set, at one BLAS
thread; on another build the test skips.  A change that alters results
updates ``PINNED_RUNS`` from the values a failing run prints.

    cd EMPTY_DIR && python3 /path/to/tests/test_golden.py   # the subprocess: runs there, prints digests
"""

from __future__ import annotations

import hashlib
import json
import os
import pprint
import subprocess
import sys

import numpy as np
import pytest

PINNED_BUILD = "numpy 2.4.6; scipy-openblas 0.3.31.188.0; cpu X86_V3,X86_V4,AVX512_ICL,AVX512_SPR"
PINNED_RUNS = {"stage1": {"checkpoint": "184da0c67d6913ec1649dce48cdd1571a83adfef2fdd891f6504d47f40c4a496",
            "csv": "92a5c15b51b1362089d492ef07e9cd20f8cf36b055ce100e371b1f576dcb51e0",
            "summary": "2720a3ced690dbfa5ec3a1730802f8850d93c1717b209d8bbdc98efe9a1b231f"},
 "stage2-cnt": {"checkpoint": "9a3a242e4ee2238db9bdb618ed3e243bacd781c008f2dfa19a9bb977c2ea5702",
                "csv": "f38e94f5ed1d93301372f81c8fbd1646277d86d92bf136a6bad990340de6b4af",
                "retrieval": {"count_accuracy": 0.3333333333333333,
                              "subpair_accuracy": 0.3333333333333333,
                              "trajectory_accuracy": 0.3333333333333333},
                "summary": "9076ffeed56b009e4660b2c9bba53218df1e46b273e0288916ebbc821d7e0eb9"},
 "stage2-cnt_ind": {"checkpoint": "0e5cda0152fe596720fe5be41978a4260a4378035cf0a1fe6bf600f125271051",
                    "csv": "9bf6a3fa051401793f30980601c9675446294789eec50dc9eb9d7a4f716f97b8",
                    "retrieval": {"count_accuracy": 0.3333333333333333,
                                  "subpair_accuracy": 0.3333333333333333,
                                  "trajectory_accuracy": 0.0},
                    "summary": "c6a81f2efeb3703071e607481b7f38800ecec636104202eb98ff804b8c34647c"},
 "stage2-full": {"checkpoint": "ddb5ffb05b8414a9fc7640d2c7ad0a9a2f89fbecb2c62e8782442f58566b59a0",
                 "csv": "3b31dd1003222bc118a87cd86c7d43beba49bb01ff9a63439ee4cbaf091f4069",
                 "retrieval": {"count_accuracy": 0.3333333333333333,
                               "subpair_accuracy": 0.3333333333333333,
                               "trajectory_accuracy": 0.3333333333333333},
                 "summary": "714c966a73931574aff990797312798db21c09a0dfb3336d898f1884c56d67ac"},
 "stage2-sub_only": {"checkpoint": "cbffe732e03b83bebb2d6a1f92ccea33a8e2a5546013980581997c59e05f84bf",
                     "csv": "52d0a4662de4d16bd20f82d337dbe12a7d078d98489164d5430d79ea5116bca5",
                     "retrieval": {"count_accuracy": None,
                                   "subpair_accuracy": 0.4444444444444444,
                                   "trajectory_accuracy": 0.0},
                     "summary": "9e7bfe75cbbda08660177c2700563390fa01b324c1df8b618aec817c6b1cc9a8"}}

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def numeric_build() -> str:
    """The numpy version, its BLAS build and the CPU features numpy dispatches to."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        from numpy._core import _multiarray_umath as umath
        cpu = ",".join(k for k in umath.__cpu_dispatch__ if umath.__cpu_features__.get(k)) or "baseline"
    except (ImportError, AttributeError):
        cpu = "unknown"
    return f"numpy {np.__version__}; {blas.get('name')} {blas.get('version')}; cpu {cpu}"


def golden_runs() -> dict:
    """Train every golden run into the working directory and digest its outputs."""
    from navprompt.alignment import ABLATION_TERMS
    from navprompt.training import RunConfig, run_stage1, run_stage2

    def file_sha(path):
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def checkpoint_sha(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["sha256"]

    base = dict(seed=0, indoor_samples_per_class=10, trajectory_count=60, stage1_epochs=2, stage2_epochs=2)
    s1 = run_stage1(RunConfig(out_dir="stage1", **base))
    runs = {"stage1": {"csv": file_sha(s1.csv_path), "summary": file_sha(s1.summary_path),
                       "checkpoint": checkpoint_sha(s1.checkpoint_path)}}
    for mode in ABLATION_TERMS:
        s2 = run_stage2(RunConfig(out_dir=mode, ablation=mode, **base), s1.checkpoint_path)
        runs[f"stage2-{mode}"] = {"csv": file_sha(s2.csv_path), "summary": file_sha(s2.summary_path),
                                  "checkpoint": checkpoint_sha(s2.checkpoint_path),
                                  "retrieval": s2.metrics["retrieval"]}
    return runs


def test_golden_runs(tmp_path):
    build = numeric_build()
    if build != PINNED_BUILD:
        pytest.skip(f"pins hold for {PINNED_BUILD}; this host has {build}")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert runs == PINNED_RUNS, "new golden digests:\nPINNED_RUNS = " + pprint.pformat(runs, width=110)


if __name__ == "__main__":
    print(json.dumps(golden_runs(), sort_keys=True))
