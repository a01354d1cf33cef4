"""Golden runs: pinned digests of stage 1 and of stage 2 in every ablation mode.

One subprocess, started with ``OPENBLAS_NUM_THREADS=1`` so the setting holds
before numpy loads, trains stage 1 and then stage 2 in each ``ABLATION_TERMS``
mode for 2 epochs at the default widths on small datasets.  The test compares
the sha256 of each CSV log and summary, each checkpoint's ``sha256`` field
(config, frozen set and tensors) and each stage-2 retrieval dict with the
pins below.

The pins hold for one numpy/BLAS build, OpenBLAS kernel set and CPU
dispatch set, at one BLAS thread; on another build or kernel (for example
under ``OPENBLAS_CORETYPE=Haswell``) the test skips.  A change that alters results
updates ``PINNED_RUNS`` from the values a failing run prints.

    cd EMPTY_DIR && python3 /path/to/tests/test_golden.py   # the subprocess: runs there, prints digests
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import pprint
import subprocess
import sys

import numpy as np
import pytest

PINNED_BUILD = "numpy 2.4.6; scipy-openblas 0.3.31.188.0 core SkylakeX; cpu X86_V3,X86_V4,AVX512_ICL,AVX512_SPR"
PINNED_RUNS = {"stage1": {"checkpoint": "07cc977ef9fc55ba8a32124a14cf1962780f7273262d48f7d0ba88890ec034cd",
            "csv": "92a5c15b51b1362089d492ef07e9cd20f8cf36b055ce100e371b1f576dcb51e0",
            "summary": "8754e52da195e4ebc2641aebc34c6a62d13f388826ef63ce1368dfd4872e3fa5"},
 "stage2-cnt": {"checkpoint": "761ecfcbf8cb16ea7f71afdf42fb9d211556ecbc5ad7983356696d70e0b52e16",
                "csv": "3478c5a4cb6122b2bc18d9ea853290169f8ae52b77a4abcb70fe1ac79abd10e5",
                "retrieval": {"count_accuracy": 0.3333333333333333,
                              "subpair_accuracy": 0.3333333333333333,
                              "trajectory_accuracy": 0.3333333333333333},
                "summary": "7b9de6c3f77b71badd3522c17968e2cb3adb1beec0886690a2ec271c57bc0101"},
 "stage2-cnt_ind": {"checkpoint": "848a734faac2f0c48c972d2a82ed50975d07e52d339953fe0a7d1c3fc06a1d69",
                    "csv": "5203dce22edc64dff1fe81e7e3e28fe9fc6cfe99a76e4e02f93ca51a72f95028",
                    "retrieval": {"count_accuracy": 0.3333333333333333,
                                  "subpair_accuracy": 0.3333333333333333,
                                  "trajectory_accuracy": 0.0},
                    "summary": "6a9d07ffe7d2e8eb8a44975110f9fc26dea7f1a00ec7461ac0265eab88259809"},
 "stage2-full": {"checkpoint": "077078223c4d46ad48135c68ce86d06e67d448bddf2af7e0f4fd2f674dc87ca5",
                 "csv": "cb55328f04ddb345590046a0d59813ed264d3492fc388dabcf6bb745b55d7822",
                 "retrieval": {"count_accuracy": 0.3333333333333333,
                               "subpair_accuracy": 0.3333333333333333,
                               "trajectory_accuracy": 0.3333333333333333},
                 "summary": "e038b03f3bcaaa16b9320ae3ce7e481ec02ccc395b9496ac78b193b88868f7c5"},
 "stage2-sub_only": {"checkpoint": "591820bd463c05c608b80a99d18357bb6e130cae60b0c27a0422611e8fbf96b6",
                     "csv": "d8e5b5cfb99218106cdadcb584e8ed0512253e7073fb130117312534ab8fbead",
                     "retrieval": {"count_accuracy": None,
                                   "subpair_accuracy": 0.4444444444444444,
                                   "trajectory_accuracy": 0.0},
                     "summary": "79b3dad11023233edf63dda427673abd5e429267a19126f8498ad7a489f0b136"}}

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def openblas_core() -> str:
    """The kernel set OpenBLAS chose at load time, as numpy's bundled library reports it.

    ``show_config()`` names only the build-time target; the core in use
    follows the CPU and ``OPENBLAS_CORETYPE``, and its kernels round
    differently.  "unknown" when the library or its symbol is absent.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def numeric_build() -> str:
    """The numpy version, its BLAS build and kernel, and the CPU features numpy dispatches to."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        from numpy._core import _multiarray_umath as umath
        cpu = ",".join(k for k in umath.__cpu_dispatch__ if umath.__cpu_features__.get(k)) or "baseline"
    except (ImportError, AttributeError):
        cpu = "unknown"
    return f"numpy {np.__version__}; {blas.get('name')} {blas.get('version')} core {openblas_core()}; cpu {cpu}"


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
