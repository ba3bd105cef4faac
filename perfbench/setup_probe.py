"""Time one set-up in a fresh process: import ``ample`` (numpy and scipy with
it) and generate a workload's inputs.  Prints the raw seconds and the
reference seconds, scaled by the speed probe timed right after (speed.py).

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

CALIBRATION_PROBES = 400  # about 0.1 s, short against the speed changes


def main(workload, seed):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench import workloads  # imports every ample module the workloads use

    workloads.make_inputs(workload, seed)
    elapsed = time.perf_counter() - START
    from perfbench import speed

    return elapsed, elapsed * speed.speed_factor([speed.probe() for _ in range(CALIBRATION_PROBES)])


if __name__ == "__main__":
    print(*main(sys.argv[1], int(sys.argv[2])))
