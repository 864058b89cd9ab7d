"""One set-up in a fresh interpreter, timed from the process start.

    python3 bench/setup_probe.py WORKLOAD SEED T0

T0 is the launching process's ``time.monotonic()`` just before it started
this one; the script prints the seconds from T0 until the datasets exist.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    name, seed, t0 = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    WORKLOADS[name].setup(seed)
    print(time.monotonic() - t0)
