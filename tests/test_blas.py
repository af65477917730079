"""One OpenBLAS thread per process: results do not depend on the machine's
BLAS thread setting, and pool workers compute with one thread too."""

import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from dragonbench import blas_threads

pytestmark = pytest.mark.skipif(
    blas_threads() is None,
    reason="numpy's BLAS exports no OpenBLAS thread functions, so dragonbench leaves threading alone",
)

SRC = Path(__file__).resolve().parent.parent / "src"

# A 2-epoch fit at the default 200/100 widths, wide enough that OpenBLAS
# splits its matrix products across threads when it has more than one.
FIT_HASH = """
import hashlib, json
import numpy as np
from dragonbench import TrainConfig, blas_threads, gen_dgp_lin, train_dragonnet
data = gen_dgp_lin(n=300, p=10, tau=1.0, confounding_strength=1.0, noise_sd=1.0,
                   rng=np.random.default_rng(3))
model = train_dragonnet(data, TrainConfig(epochs=2, patience=0, seed=3))
print(blas_threads(), hashlib.sha256(json.dumps(model.payload).encode()).hexdigest())
"""


def _fit_hash(threads: int) -> list[str]:
    """[blas_threads(), payload sha256] of the fit in a fresh process."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", FIT_HASH], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.split()


def test_fits_do_not_depend_on_the_blas_thread_setting():
    one, two = _fit_hash(1), _fit_hash(2)
    assert one[0] == two[0] == "1"
    assert one[1] == two[1]


def test_the_process_computes_with_one_blas_thread():
    assert blas_threads() == 1


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_pool_workers_compute_with_one_blas_thread(method):
    context = multiprocessing.get_context(method)
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        assert pool.submit(blas_threads).result(timeout=60) == 1
