"""Root pytest configuration: one BLAS thread for every test and gate.

OpenBLAS worker threads spin-wait, so on a small host the timing gates under
``benchmarks/`` measured the thread contention instead of the code: on a
2-vCPU VM the fleet ratio gate read 1.5–1.9× with the default thread pool
and 10–11× with one thread.  ``python3 -m bench`` pins its runs the same
way.  pytest imports this file before any test module, so numpy has not
loaded its BLAS yet; ``setdefault`` leaves an explicit setting alone.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
