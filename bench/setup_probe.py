"""One set-up sample for bench/run.py, in a fresh interpreter.

Times the import of multiell (mpmath included), the construction of the
workload's PrecisionContext and its warm-up op, and prints the seconds.

    python3 bench/setup_probe.py <workload>
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (stdlib only; does not import mpmath)


def main(name: str) -> float:
    digits, warmup = workloads.SETUP[name]
    t0 = time.perf_counter()
    ml = workloads.load()
    ctx = ml.PrecisionContext(digits)
    warmup(ml, ctx)
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(repr(main(sys.argv[1])))
