"""Self-test of the benchmark itself; it measures nothing.

Runs every workload at a few hundred steps, traced and untraced, and checks
that the printed metric names and units are exactly those in
BENCHMARK.json, that tracing leaves no wrapper behind, that the output
check rejects wrong outputs and a noisy run without forgetting, and that
the benchmark fails without printing a result when the pcac sources are
missing.

Usage, from the repository root: python3 perfbench/selftest.py
"""
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

if not run.bootstrap():
    raise SystemExit(2)

import bench  # noqa: E402
import pcac  # noqa: E402
from spans import SPANS, Patches, resolve  # noqa: E402
from workloads import WORKLOADS, check_rows  # noqa: E402

ROOT = run.HERE.parent


def expect(condition, message) -> None:
    if not condition:
        raise AssertionError(message)


def targets() -> dict:
    """Every attribute the benchmark may replace, with its current value."""
    names = [(m, a) for m, a, _ in SPANS] + [("pcac.rls", "compute_beta")]
    current = {}
    for module, attr in names:
        owner, name = resolve(module, attr)
        current[module, attr] = vars(owner)[name]
    return current


def check_metric_table(spec: dict) -> None:
    names = [w["name"] for w in spec["workloads"]]
    expect(names == list(WORKLOADS), f"workloads {names} differ from BENCHMARK.json")
    for key, table in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        expect(declared == table, f"{key} differs from BENCHMARK.json")


def check_workloads() -> None:
    originals = targets()
    for name in WORKLOADS:
        for trace, table in ((False, bench.END_TO_END), (True, bench.PER_LAYER)):
            result = bench.Bench(name, seed=0, short=True).run(0.1, trace)
            expect(result.failed == 0 and result.attempted > 0,
                   f"{name} trace={trace}: failed/attempted "
                   f"{result.failed}/{result.attempted}")
            units = {k: unit for k, (_, unit) in result.metrics.items()}
            expect(units == table, f"{name} trace={trace}: metrics differ")
            expect(targets() == originals, f"{name} trace={trace}: wrapper left")
        print(f"ok {name}")


def check_rejects_wrong_outputs() -> None:
    spec = WORKLOADS["single_default"].spec(0)
    reference = bench.load_reference()
    good = {"fault_count": 0, "max_abs_u": 8.0,
            "suppression_time_s": reference["single_default"]["suppression_time_s"]}
    expect(not check_rows("single_default", [good], spec, 0, reference),
           "good row rejected")
    for bad in ({"fault_count": 1}, {"max_abs_u": 8.5}, {"suppression_time_s": None},
                {"suppression_time_s": good["suppression_time_s"] + 0.01}):
        expect(check_rows("single_default", [{**good, **bad}], spec, 0, reference),
               f"bad row accepted: {bad}")
    noisy = WORKLOADS["noisy_shift"].spec(0)
    ref = reference["noisy_shift"]
    seed0 = {"fault_count": 0, "max_abs_u": 8.0, **ref["seeds"]["0"]}
    expect(not check_rows("noisy_shift", [seed0], noisy, 0, reference),
           "good noisy row rejected")
    off = {**seed0, "peak_attenuation_db": seed0["peak_attenuation_db"] + 1}
    expect(check_rows("noisy_shift", [off], noisy, 0, reference),
           "noisy row off its seed's reference accepted")
    # A seed the reference does not cover is held to the bounds alone.
    expect(not check_rows("noisy_shift", [seed0], noisy, -1, reference),
           "good noisy row of an uncovered seed rejected")
    for key, bound in ref["other_seeds"].items():
        base, _, side = key.rpartition("_")
        bad = {**seed0, base: bound - 0.1 if side == "min" else bound + 0.1}
        expect(check_rows("noisy_shift", [bad], noisy, -1, reference),
               f"{base} beyond {key} accepted")
    print("ok output check")


def check_rejects_no_forgetting() -> None:
    """noisy_shift with forgetting switched off must fail its check."""
    spec = WORKLOADS["noisy_shift"].spec(0)
    with Patches() as patches:
        patches.replace(pcac.rls, "compute_beta", lambda f: lambda *a, **k: 1.0)
        row = pcac.harness.experiment_metrics(pcac.harness.run_experiment(spec))
    expect(check_rows("noisy_shift", [row], spec, 0, bench.load_reference()),
           "noisy_shift without forgetting accepted")
    print("ok output check without forgetting")


def check_fails_without_sources() -> None:
    bench.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.OUT_DIR) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, Path(bare) / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
        out = subprocess.run(
            cmd + ["--workload", "single_default", "--seed", "0", "--seconds", "1",
                   "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    expect(out.returncode != 0 and '"correct"' not in out.stdout, out)
    print("ok fails without sources")


def main() -> int:
    check_metric_table(json.loads((ROOT / "BENCHMARK.json").read_text()))
    check_rejects_wrong_outputs()
    check_rejects_no_forgetting()
    check_workloads()
    check_fails_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
