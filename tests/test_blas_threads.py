"""The shared-weight products give the same bits at one and at two BLAS threads.

Two subprocesses, started with ``OPENBLAS_NUM_THREADS`` set to 1 and to 2 so
the setting holds before numpy loads, run ``linear`` forward and backward at
the shapes a default stage-2 step projects: stacked rows of width 64 through
the 64x64 attention and 64x256 feed-forward weights, and rows of width 256
through the 256x64 one.  Each prints the sha256 of every output and input
gradient.  Weight gradients are left out: their long reduction over the
batch's rows is split differently at each thread count.

    python3 tests/test_blas_threads.py   # the subprocess: prints the digests
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROWS = [(20, 44), (60, 12), (128, 2)]
WEIGHTS = [(64, 64), (64, 256), (256, 64)]


def digests() -> dict:
    from navprompt.tensor import Tensor, linear

    rng = np.random.default_rng(0)
    out = {}
    for rows in ROWS:
        for k, n in WEIGHTS:
            x = Tensor(rng.normal(size=rows + (k,)), requires_grad=True)
            w = Tensor(rng.normal(scale=k ** -0.5, size=(k, n)), requires_grad=True)
            b = Tensor(rng.normal(size=n), requires_grad=True)
            y = linear(x, w, b)
            (y * Tensor(rng.normal(size=y.shape))).sum().backward()
            name = f"{rows}x{k}x{n}"
            out[f"{name} out"] = hashlib.sha256(y.data.tobytes()).hexdigest()
            out[f"{name} x.grad"] = hashlib.sha256(x.grad.tobytes()).hexdigest()
    return out


def _run(threads: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_shared_weight_products_do_not_depend_on_the_thread_count():
    one, two = _run(1), _run(2)
    assert len(one) == 2 * len(ROWS) * len(WEIGHTS)
    assert {k for k in one if one[k] != two[k]} == set()


if __name__ == "__main__":
    print(json.dumps(digests(), sort_keys=True))
