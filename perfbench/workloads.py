"""Benchmark workloads and the output check against stored references.

Every workload is a closed loop: each plant sample waits for the previous
controller step.  A workload *unit* is the work timed as one repetition;
the program only ever sees the experiment spec built here from the seed.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from pcac import harness

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

NOISE_STD = 0.5
SHIFT_DELAY_S = 1.0  # plant change this long after the switch to closed loop
SHIFT_TAIL_S = 1.5  # closed-loop time after the plant change
OMEGA_SHIFT = 1.1
KICK_Q = 1.0


def single_default_spec(seed: int) -> harness.ExperimentSpec:
    return harness.default_spec(seed)


def noisy_shift_spec(seed: int) -> harness.ExperimentSpec:
    """Mid-grid cell with sensor noise and a mid-run frequency shift plus
    kick; forgetting stays on (the stock eta)."""
    base = harness.default_spec(seed)
    t_event = base.t_open + SHIFT_DELAY_S
    return replace(
        base,
        plant=replace(base.plant, noise_std=NOISE_STD),
        t_total=t_event + SHIFT_TAIL_S,
        omega_shift_time=t_event,
        omega_shift_factor=OMEGA_SHIFT,
        kick_q=KICK_Q,
    )


def shorten(spec: harness.ExperimentSpec) -> harness.ExperimentSpec:
    """A few-hundred-step version of a spec, for the self-test only."""
    t_open, t_total = 0.5, 0.85
    shift = None if spec.omega_shift_time is None else t_open + 0.2
    return replace(spec, t_open=t_open, t_total=t_total, omega_shift_time=shift)


def _run_single(spec, seed, out_dir):
    """One experiment that writes its record and timing sidecar, as
    ``pcac run --out`` does."""
    spec = replace(spec, output_path=os.path.join(out_dir, "record.csv"))
    return [harness.experiment_metrics(harness.run_experiment(spec))]


def _run_noisy(spec, seed, out_dir):
    return [harness.experiment_metrics(harness.run_experiment(spec))]


@dataclass(frozen=True)
class Workload:
    name: str
    spec: Callable[[int], harness.ExperimentSpec]
    # run(spec, seed, out_dir) -> one experiment_metrics row per experiment
    run: Callable[[harness.ExperimentSpec, int, str], list[dict]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("single_default", single_default_spec, _run_single),
        Workload("noisy_shift", noisy_shift_spec, _run_noisy),
    )
}


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def expected_rows(name: str, seed: int, reference: dict) -> list[dict]:
    """The stored outputs one unit of a workload must reproduce, one dict
    per experiment.  Noisy outputs depend on the seed: seeds the reference
    covers have their own values, any other seed gets only bounds."""
    ref = reference[name]
    if "seeds" in ref:
        return [ref["seeds"].get(str(seed), ref["other_seeds"])]
    return [ref]


def check_rows(
    name: str, rows: list[dict], spec, seed: int, reference: dict
) -> dict[int, str]:
    """Problems in one unit's metric rows, by row; empty means correct.

    Every experiment must be fault-free and keep |u| <= u_sat.  Each stored
    output ``key`` must be matched within ``reference["tolerance"][key]``;
    ``key_min`` and ``key_max`` bound ``key`` from below and above.
    """
    u_sat = float(np.max(spec.controller.bounds.u_max))
    expected = expected_rows(name, seed, reference)
    tolerance = reference["tolerance"]
    if len(rows) != len(expected):
        msg = f"{name}: {len(rows)} experiments, reference has {len(expected)}"
        return dict.fromkeys(range(len(rows)), msg)
    problems = {}
    for i, (row, exp) in enumerate(zip(rows, expected)):
        found = []
        if row.get("status", "ok") != "ok":
            found.append(row["status"])
        else:
            if row["fault_count"] != 0:
                found.append(f"{row['fault_count']} faults")
            if not row["max_abs_u"] <= u_sat:
                found.append(f"max |u| {row['max_abs_u']} > {u_sat}")
            for key, want in exp.items():
                base, _, side = key.rpartition("_")
                if side in ("min", "max"):
                    got = row[base]
                    if not (got >= want if side == "min" else got <= want):
                        found.append(f"{base} {got} beyond {side} {want}")
                    continue
                got = row[key]
                if (got is None) != (want is None) or (
                    want is not None and not abs(got - want) <= tolerance[key]
                ):
                    found.append(f"{key} {got}, reference {want}")
        if found:
            problems[i] = f"{name}[{i}]: " + "; ".join(found)
    return problems
