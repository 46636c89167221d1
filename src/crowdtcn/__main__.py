"""The program's entry point: the `crowdtcn` console script and `python -m crowdtcn`.

Every crowdtcn process runs one BLAS thread. Before numpy loads, this module
sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to "1", unless
any one of them is already set: then it changes none, and the user's choice
wins. The largest product the program makes, (512x832)@(832x32) per batch-64
training step, gains nothing from a second thread, while `crowdtcn sweep`'s
workers each inherit the setting through the environment, so a pool of
`--jobs` workers runs `--jobs` busy threads rather than `--jobs` times the CPU
count. `--jobs` is the one parallelism control. Code that imports
`crowdtcn.cli` and calls `main` itself keeps numpy's own default.
"""

import os
import sys

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if not any(name in os.environ for name in _BLAS_THREADS):
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))

from .cli import main  # noqa: E402  numpy reads the variables when it loads

__all__ = ["main"]

if __name__ == "__main__":
    sys.exit(main())
