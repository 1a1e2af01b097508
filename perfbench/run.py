"""pcac benchmark: controller-step latency and experiment wall time.

Run from the repository root:

    python3 perfbench/run.py                  # every workload, end-to-end table
    python3 perfbench/run.py --trace 1        # every workload, per-layer table
    python3 perfbench/run.py --workload noisy_shift --seed 3 --seconds 55 --trace 0

pcac is imported from ``src/`` next to this directory and driven through
``pcac.harness`` in this one process: ``workers=1``, no process pool, BLAS
limited to one thread.  After one untimed warm-up experiment the workload
unit repeats until another repetition would overrun ``--seconds``.
The host's speed changes by up to 2x in phases of seconds to minutes, so
``wall_s`` and ``step_p50_us`` are estimated for an idle host from the
controller steps of every repetition in the run (see ``bench.step_stats``).
Only ``setup_s`` is a cold number: the median over several fresh
interpreters of the time from interpreter start to the first controller
step (see ``setup_probe.py``).

With ``--trace 0`` the metrics are the end-to-end ones, measured without
tracing.  With ``--trace 1`` half the time runs untraced and half traced,
and the metrics are the per-layer ones (see ``spans.py``); the spans are
written to ``.perfbench-out/`` at the end.

Each experiment is checked against ``reference.json``; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 0 only if
every experiment passed.
"""
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> bool:
    """Import pcac from src/ and limit BLAS to one thread (set before numpy
    is first imported); False if the sources are missing."""
    if not (SRC / "pcac" / "__init__.py").is_file():
        print(f"pcac sources not found under {SRC}", file=sys.stderr)
        return False
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    return True


def main() -> int:
    if not bootstrap():
        return 2
    import bench

    return bench.main()


if __name__ == "__main__":
    sys.exit(main())
