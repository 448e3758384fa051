"""One set-up of a benchmark run, in a fresh interpreter.

    python3 perfbench/setup_child.py <workload> <seed> <instance dir> <scale> <calibration loops>

Imports tpb from the checkout's src/ directory, generates the workload's
instances and writes the instance files, then prints "ready": from
that moment the first op could run.  run.py times this from the
process's start.  Then, outside the timed part, it prints the times of
the given number of calibration loops.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import tpb  # noqa: E402
from workloads import build_ops  # noqa: E402

build_ops(tpb, sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4])
print("ready", flush=True)

from calibration import calibration_s  # noqa: E402

print(" ".join(repr(calibration_s()) for _ in range(int(sys.argv[5]))))
