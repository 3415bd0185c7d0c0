"""Pin BLAS to one thread before numpy loads. loccgraph's matrices are small,
and a multi-threaded BLAS makes them several times slower on a small host; a
thread count set in the environment wins."""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
