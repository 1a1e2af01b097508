"""Cold-start probe: run in a fresh interpreter, it imports pcac, builds the
workload's spec and controller, computes the first F-quantile, takes the
first controller step and prints the monotonic clock in nanoseconds.

Usage: python3 setup_probe.py <src dir> <workload> <seed>
"""
import sys
import time


def main(src: str, workload: str, seed: int) -> None:
    sys.path.insert(0, src)
    import numpy as np

    import pcac
    from workloads import WORKLOADS

    cfg = WORKLOADS[workload].spec(seed).controller
    state = pcac.pcac_init(cfg)
    window = np.arange(cfg.forgetting.tau_d + 1, dtype=float)
    pcac.forgetting_statistic_scalar(window, cfg.forgetting)
    pcac.pcac_step(state, np.array([1.0]), cfg)
    print(time.monotonic_ns())


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]))
