"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload desk-bias --seed 0 --seconds 20 --trace 0

See perfbench/README.md for the workloads and metrics.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Pinned before numpy loads: with two BLAS threads on two shared cores, a
# second busy process slows small matrix products tenfold.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    source = ROOT / "src" / "mtltox"
    if not (source / "__init__.py").is_file():
        print(f"perfbench: no mtltox source at {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
