"""Golden runs: pinned digests and values of stage 1 and of stage 2 in every ablation mode.

One subprocess, started with ``OPENBLAS_NUM_THREADS=1`` so the setting holds
before numpy loads, trains stage 1 and then stage 2 in each ``ABLATION_TERMS``
mode for 2 epochs at the default widths on small datasets.  A second stage-1
run, ``stage1-carried``, banks prompts in the first 2 of the 4 visual layers,
so layer 1 splices its prompts into the live sequence and they are carried
up through the unprompted layers.  Two tiers check its outputs against
``PINNED_RUNS``:

* the digest tier compares the sha256 of each CSV log and summary and each
  checkpoint's ``sha256`` field (config, frozen set and tensors).  The
  digests hold for one numpy/BLAS build, OpenBLAS kernel set and CPU dispatch
  set, at one BLAS thread; on another build or kernel (for example under
  ``OPENBLAS_CORETYPE=Haswell``) this tier skips;
* the value tier runs on every build.  Every CSV cell and every float of a
  summary's metrics must lie within ``VALUE_RTOL`` of its pin, relative;
  accuracies (the retrieval dicts included), sizes, counts and strings must
  be equal, and each summary's config must be the run's ``RunConfig``.
  Another BLAS kernel or thread count moves the values by about 1e-14
  relative, and a changed loss term by far more than the tolerance.

A change that alters results updates ``PINNED_RUNS`` from the values a failing
run prints; a rounding change retakes only the digests.

    cd EMPTY_DIR && python3 /path/to/tests/test_golden.py   # the subprocess: runs there, prints its outputs
"""

from __future__ import annotations

import csv
import ctypes
import dataclasses
import glob
import hashlib
import json
import math
import os
import pprint
import subprocess
import sys

import numpy as np
import pytest

PINNED_BUILD = "numpy 2.4.6; scipy-openblas 0.3.31.188.0 core SkylakeX; cpu X86_V3,X86_V4,AVX512_ICL,AVX512_SPR"
PINNED_RUNS = {'stage1': {'checkpoint': '034fc025344d0ff862274cabfb8115fd1b2909877ab180c6b00264b494e528c6',
            'csv': '92a5c15b51b1362089d492ef07e9cd20f8cf36b055ce100e371b1f576dcb51e0',
            'log': [['epoch', 'train_loss', 'train_acc', 'val_acc'],
                    [0, 2.3036742190518273, 0.10638297872340426, 0.0],
                    [1, 2.3016529974809794, 0.22340425531914893, 0.0]],
            'metrics': {'epochs': 2,
                        'prompt_parameters': 2560,
                        'train_accuracy': 0.22340425531914893,
                        'train_size': 94,
                        'trainable_parameters': 7370,
                        'val_accuracy': 0.0,
                        'val_size': 6},
            'summary': '8754e52da195e4ebc2641aebc34c6a62d13f388826ef63ce1368dfd4872e3fa5'},
 'stage1-carried': {'checkpoint': 'f0eaab59b18a26ac7978cb25edaf62020fee5f6a96b6784f4c9eb561d46c5e32',
                    'csv': 'ff299c8c0170aab6c553472cbe31c193c0d4c308a0d3a817d17e0cb5336d7a85',
                    'log': [['epoch', 'train_loss', 'train_acc', 'val_acc'],
                            [0, 2.3033799324770334, 0.20212765957446807, 0.16666666666666666],
                            [1, 2.301401340175001, 0.2127659574468085, 0.0]],
                    'metrics': {'epochs': 2,
                                'prompt_parameters': 1280,
                                'train_accuracy': 0.2127659574468085,
                                'train_size': 94,
                                'trainable_parameters': 6090,
                                'val_accuracy': 0.0,
                                'val_size': 6},
                    'summary': '5bdb4f4b674982bc2c98ddd6350e2d7a77b01d32652642dc950b9a0b30ba79ef'},
 'stage2-cnt': {'checkpoint': 'e177dab593f9d8505d0e2915e73b05cef8220a0ad64587e9018869a0a2a47ad1',
                'csv': 'ed3ba220e1fa1c972152581f767fc9c3c2ba90e5bf22e215da87d056e31a1d4b',
                'log': [['step', 'l_ind_sum', 'l_ove', 'l_cnt', 'total'],
                        [0, None, None, 0.032041171183003946, 0.003204117118300395],
                        [1, None, None, 0.028286862888469516, 0.002828686288846952],
                        [2, None, None, 0.03273229548854248, 0.003273229548854248],
                        [3, None, None, 0.027654586691570983, 0.0027654586691570984],
                        [4, None, None, 0.02736018605859423, 0.002736018605859423],
                        [5, None, None, 0.03091778900402454, 0.003091778900402454]],
                'metrics': {'ablation': 'cnt',
                            'epoch_total_loss': [0.003102010985333865, 0.0028644187251396585],
                            'retrieval': {'count_accuracy': 0.3333333333333333,
                                          'subpair_accuracy': 0.3333333333333333,
                                          'trajectory_accuracy': 0.3333333333333333},
                            'train_size': 57,
                            'trainable_parameters': 216832,
                            'val_size': 3,
                            'vocab_size': 58},
                'summary': 'c0c5d2323891a688370f785edc7a60150ef910ab042ac18fdcac19401e680e70'},
 'stage2-cnt_ind': {'checkpoint': '9c783de8a42cfd7eb6b0380862189d55f3b83534924f941821edc9fb1a6a24f3',
                    'csv': '8ac67cb41df68783697638848d883228a956f376f1bdae38a0b2125461c78dcc',
                    'log': [['step', 'l_ind_sum', 'l_ove', 'l_cnt', 'total'],
                            [0, 0.3768995761265131, None, 0.03204117118300394, 0.38010369324481347],
                            [1, 0.3911317425884044, None, 0.029067971535006294, 0.394038539741905],
                            [2, 0.3806151838356425, None, 0.03684419829006791, 0.3842996036646493],
                            [3, 0.3483693719369157, None, 0.027811333176785503, 0.35115050525459424],
                            [4, 0.36337608754959977, None, 0.02798679073218697, 0.36617476662281845],
                            [5, 0.33909761279014144, None, 0.031864411441440754, 0.3422840539342855]],
                    'metrics': {'ablation': 'cnt_ind',
                                'epoch_total_loss': [0.38614727888378925, 0.35320310860389936],
                                'retrieval': {'count_accuracy': 0.3333333333333333,
                                              'subpair_accuracy': 0.3333333333333333,
                                              'trajectory_accuracy': 0.0},
                                'train_size': 57,
                                'trainable_parameters': 216832,
                                'val_size': 3,
                                'vocab_size': 58},
                    'summary': '8c737354807afa79f9a082f702ca0e12bcc4a5ba2fe59be624b7fe2e344df079'},
 'stage2-full': {'checkpoint': 'ed6c5f228efe4d525c98ed9645ca49cf8ce65828f005df70a374a2bba42b5dfc',
                 'csv': '6cf30c4dac5ee985370a62d553113e9717ba420c16454fb54dc69902b9b1357a',
                 'log': [['step', 'l_ind_sum', 'l_ove', 'l_cnt', 'total'],
                         [0, 0.3768995761265131, 0.04085273682255364, 0.03204117118300394, 0.4005300616560903],
                         [1, 0.3923101523394511, 0.05344684490092735, 0.029470490760806708, 0.42198062386599544],
                         [2, 0.3848243149363631, 0.04263740561632133, 0.03420305270906443, 0.4095633230154302],
                         [3, 0.34024650499365605, 0.04355121669521523, 0.02805149636110566, 0.3648272629773742],
                         [4, 0.3557886186731659, 0.04208966375880195, 0.02882507508281608, 0.3797159580608485],
                         [5, 0.33668157835852947, 0.04671144300808433, 0.03213078166479125, 0.36325037802905075]],
                 'metrics': {'ablation': 'full',
                             'epoch_total_loss': [0.410691336179172, 0.3692645330224245],
                             'retrieval': {'count_accuracy': 0.3333333333333333,
                                           'subpair_accuracy': 0.3333333333333333,
                                           'trajectory_accuracy': 0.3333333333333333},
                             'train_size': 57,
                             'trainable_parameters': 216832,
                             'val_size': 3,
                             'vocab_size': 58},
                 'summary': 'e52727125e2c0ac55e534502f9da75948478697f7b6b8db5922cd8d424bbf31a'},
 'stage2-sub_only': {'checkpoint': '9399b24d6c169d92487edb0250cb033a00f9bd72c28c626986743bf6dea4a086',
                     'csv': '224b9cac06921414de8ee54d77728e5c60e7c3a140fd84c87b381a00b1d02cb4',
                     'log': [['step', 'l_ind_sum', 'l_ove', 'l_cnt', 'total'],
                             [0, 0.37194310675772213, None, None, 0.37194310675772213],
                             [1, 0.3845067558714509, None, None, 0.3845067558714509],
                             [2, 0.34838040652776453, None, None, 0.34838040652776453],
                             [3, 0.3415986057098827, None, None, 0.3415986057098827],
                             [4, 0.3047736854522579, None, None, 0.3047736854522579],
                             [5, 0.3032542703005381, None, None, 0.3032542703005381]],
                     'metrics': {'ablation': 'sub_only',
                                 'epoch_total_loss': [0.3682767563856459, 0.3165421871542262],
                                 'retrieval': {'count_accuracy': None,
                                               'subpair_accuracy': 0.4444444444444444,
                                               'trajectory_accuracy': 0.0},
                                 'train_size': 57,
                                 'trainable_parameters': 216000,
                                 'val_size': 3,
                                 'vocab_size': 58},
                     'summary': 'c817563c04e3f8c5fd150302288e1bdbfc7ee5c225f541ffe83eea6a991131c0'}}

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


DIGESTS = ("checkpoint", "csv", "summary")
VALUE_RTOL = 1e-9
GOLDEN_BASE = dict(seed=0, indoor_samples_per_class=10, trajectory_count=60, stage1_epochs=2, stage2_epochs=2)


def golden_configs() -> dict:
    """Each golden run's RunConfig; the stage-2 runs start from the stage-1 run's checkpoint."""
    from navprompt.alignment import ABLATION_TERMS
    from navprompt.training import RunConfig

    configs = {"stage1": RunConfig(out_dir="stage1", **GOLDEN_BASE),
               "stage1-carried": RunConfig(out_dir="stage1-carried", prompt_layers=2, **GOLDEN_BASE)}
    for mode in ABLATION_TERMS:
        configs[f"stage2-{mode}"] = RunConfig(out_dir=mode, ablation=mode, **GOLDEN_BASE)
    return configs


def _cell(text: str):
    """A CSV cell as a value: None when empty, else an int or a float."""
    if text == "":
        return None
    return int(text) if text.lstrip("-").isdigit() else float(text)


def golden_runs() -> dict:
    """Train every golden run into the working directory; its digests, log values, metrics and config."""
    from navprompt.training import run_stage1, run_stage2

    def file_sha(path):
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    configs = golden_configs()
    results = {name: run_stage1(configs.pop(name)) for name in ("stage1", "stage1-carried")}
    stage1 = results["stage1"].checkpoint_path
    results.update({name: run_stage2(cfg, stage1) for name, cfg in configs.items()})
    runs = {}
    for name, result in results.items():
        with open(result.checkpoint_path, encoding="utf-8") as fh:
            checkpoint = json.load(fh)["sha256"]
        with open(result.csv_path, encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        with open(result.summary_path, encoding="utf-8") as fh:
            summary = json.load(fh)
        runs[name] = {"checkpoint": checkpoint, "csv": file_sha(result.csv_path),
                      "summary": file_sha(result.summary_path),
                      "log": [header, *([_cell(c) for c in row] for row in rows)],
                      "metrics": summary["metrics"], "config": summary["config"]}
    return runs


def value_mismatches(got, want, where: str = "") -> list[str]:
    """Where ``got`` differs from the pinned ``want``: beyond VALUE_RTOL for a float that is not an
    accuracy, at all for anything else."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for key in want for m in value_mismatches(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: {len(got)} entries != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in value_mismatches(g, w, f"{where}[{i}]")]
    if (type(want) is float and type(got) is float and not where.endswith("accuracy")
            and math.isclose(got, want, rel_tol=VALUE_RTOL, abs_tol=0.0)):
        return []
    return [] if type(got) is type(want) and got == want else [f"{where}: {got!r} != {want!r}"]


@pytest.fixture(scope="module")
def golden(tmp_path_factory) -> dict:
    """The golden runs' outputs, trained once in a subprocess at one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__)], cwd=tmp_path_factory.mktemp("golden"),
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _new_pins(runs: dict) -> str:
    pins = {name: {key: value for key, value in run.items() if key != "config"} for name, run in runs.items()}
    return "\nPINNED_RUNS = " + pprint.pformat(pins, width=120)


def test_golden_runs(golden):
    build = numeric_build()
    if build != PINNED_BUILD:
        pytest.skip(f"pins hold for {PINNED_BUILD}; this host has {build}")
    digests = {name: {key: run[key] for key in DIGESTS} for name, run in golden.items()}
    pinned = {name: {key: run[key] for key in DIGESTS} for name, run in PINNED_RUNS.items()}
    assert digests == pinned, "new golden digests:" + _new_pins(golden)


def test_golden_values(golden):
    assert golden.keys() == PINNED_RUNS.keys()
    configs = golden_configs()
    for name, run in golden.items():
        assert run["config"] == dataclasses.asdict(configs[name]), name
    mismatches = [m for name, run in golden.items() for key in ("log", "metrics")
                  for m in value_mismatches(run[key], PINNED_RUNS[name][key], f"{name}.{key}")]
    assert not mismatches, "\n".join(mismatches) + "\nnew golden values:" + _new_pins(golden)


if __name__ == "__main__":
    print(json.dumps(golden_runs(), sort_keys=True))
