"""Benchmark command: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds nothing: it imports dpflsim from the checkout's src/ and exits with
status 2, printing no result, when that source tree is missing.
"""

import os
import sys
from pathlib import Path

# One BLAS thread: the simulator is single-threaded on the Python side, and
# spare BLAS threads only add contention noise on small matrices.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "dpflsim" / "__init__.py").is_file():
        print(f"perfbench: no dpflsim source tree at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import bench

    sys.exit(bench.main(sys.argv[1:]))
