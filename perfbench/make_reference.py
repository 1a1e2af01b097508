"""Regenerate ``reference.json``, the outputs the benchmark checks against.

Noise-free runs do not depend on the seed, so seed 0 gives the stored
suppression time.  A noisy_shift run is deterministic per seed:
seeds 0..NOISY_SEEDS-1 each store their own suppression time, final and
peak attenuation, checked to TOLERANCE.  Any other seed is held only to
the range of the stored seeds' attenuations widened by MARGIN_DB; that
range still rejects a run with forgetting off or a mis-scaled F-test.

Usage, from the repository root: python3 perfbench/make_reference.py
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pcac import harness  # noqa: E402
from workloads import REFERENCE_PATH, WORKLOADS  # noqa: E402

TOLERANCE = {
    "suppression_time_s": 0.002,  # two samples
    "attenuation_db": 0.5,
    "peak_attenuation_db": 0.5,
}
NOISY_SEEDS = 256
MARGIN_DB = {"attenuation_db": 0.5, "peak_attenuation_db": 3.0}


def stored(row: dict) -> dict:
    return {
        key: None if row[key] is None else round(row[key], 6)
        for key in TOLERANCE
    }


def main() -> None:
    single = harness.experiment_metrics(
        harness.run_experiment(WORKLOADS["single_default"].spec(0))
    )
    noisy = {
        str(seed): stored(
            harness.experiment_metrics(
                harness.run_experiment(WORKLOADS["noisy_shift"].spec(seed))
            )
        )
        for seed in range(NOISY_SEEDS)
    }
    bounds = {}
    for key, margin in MARGIN_DB.items():
        values = [row[key] for row in noisy.values()]
        bounds[f"{key}_min"] = round(min(values) - margin, 2)
        bounds[f"{key}_max"] = round(max(values) + margin, 2)
    suppression = "suppression_time_s"
    reference = {
        "tolerance": TOLERANCE,
        "single_default": {suppression: round(single[suppression], 6)},
        "noisy_shift": {"other_seeds": bounds, "seeds": noisy},
    }
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(json.dumps({k: v for k, v in reference.items() if k != "noisy_shift"}))
    print(json.dumps(bounds))


if __name__ == "__main__":
    main()
