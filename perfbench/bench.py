"""Measurement, checking and reporting of the pcac benchmark; entry point
is ``run.py``."""
from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

import pcac
from pcac import harness
from run import THREAD_VARS
from spans import Patches, Tracer, summarize
from workloads import WORKLOADS, check_rows, load_reference, shorten

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ctrl_steps_per_s": "1/s",
    "step_p50_us": "us",
    "peak_rss_mb": "MB",
}
# Spans whose every statistic is reported; the harness spans run once per
# experiment or never on some workloads, so only some of theirs are.
STEP_SPANS = (
    "controller.step",
    "arx.regressor",
    "rls.update",
    "rls.ftest",
    "arx.bocf",
    "arx.state",
    "arx.history_push",
    "riccati.sweep",
    "riccati.gain",
    "riccati.saturate",
    "plant.step",
    "plant.output",
)
SPAN_STATS = {"calls": "count", "self_ms": "ms", "p50_us": "us", "p99_us": "us"}
PER_LAYER = {
    **{f"{s}.{k}": unit for s in STEP_SPANS for k, unit in SPAN_STATS.items()},
    "harness.run_experiment.calls": "count",
    "harness.run_experiment.self_ms": "ms",
    "harness.metrics.calls": "count",
    "harness.metrics.self_ms": "ms",
    "harness.write_record.calls": "count",
    "harness.write_record.bytes": "B",
    "rls.forgetting_steps": "count",
    "riccati.saturated_steps": "count",
    "controller.faults": "count",
    "controller.step.budget_misses": "count",
    "trace.overhead_s": "s",
}


@dataclass
class Rep:
    """One timed repetition of a workload unit, reduced to what is reported
    so that memory does not grow with the number of repetitions."""

    wall: float  # perf_counter time around the whole unit
    steps: int  # closed-loop controller steps in the unit, from its spec
    step_walls: list  # closed-loop pcac_step times of each experiment
    saturated: int  # closed-loop steps whose control was clamped
    faults: int
    counts: dict = field(default_factory=dict)
    spans: tuple[int, int] = (0, 0)

    @classmethod
    def from_unit(cls, wall, spec, rows, records) -> "Rep":
        return cls(
            wall=wall,
            steps=len(rows) * (spec.n_steps - spec.k_switch),
            step_walls=[rec.step_wall[rec.k_switch : -1] for rec in records],
            saturated=sum(
                int(np.sum(rec.u_req[rec.k_switch + 1 :] != rec.u[rec.k_switch + 1 :]))
                for rec in records
            ),
            faults=sum(row.get("fault_count", 0) for row in rows),
        )


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    lines: list = field(default_factory=list)


def _keeping(experiment_metrics, records):
    """Keep every record the workload reduces to a metrics row; the
    per-step controller times are read from these."""

    def wrapper(record):
        records.append(record)
        return experiment_metrics(record)

    return wrapper


class Bench:
    """Runs one workload at one seed and collects what it measured."""

    def __init__(self, name: str, seed: int, short: bool = False):
        self.name, self.seed, self.short = name, seed, short
        self.workload = WORKLOADS[name]
        spec = self.workload.spec(seed)
        self.spec = shorten(spec) if short else spec
        self.reference = load_reference()
        self.result = Result()

    def reps(self, seconds: float, out_dir: str, tracer=None) -> list[Rep]:
        """Repeat the unit until another repetition would pass ``seconds``."""
        reps: list[Rep] = []
        t_end = time.perf_counter() + seconds
        while True:
            gc.collect()
            records: list = []
            first = len(tracer) if tracer is not None else 0
            with Patches() as patches:
                patches.replace(
                    harness,
                    "experiment_metrics",
                    lambda f: _keeping(f, records),
                )
                t0 = time.perf_counter()
                try:
                    rows = self.workload.run(self.spec, self.seed, out_dir)
                except Exception:
                    traceback.print_exc()
                    self.result.attempted += 1
                    self.result.failed += 1
                    return reps
                wall = time.perf_counter() - t0
            rep = Rep.from_unit(wall, self.spec, rows, records)
            if tracer is not None:
                rep.counts, tracer.counts = tracer.counts, {}
                rep.spans = (first, len(tracer))
            self.check(rows)
            reps.append(rep)
            typical = statistics.median(r.wall for r in reps)
            if time.perf_counter() + typical > t_end:
                return reps

    def check(self, rows: list[dict]) -> None:
        self.result.attempted += len(rows)
        if self.short:
            return
        problems = check_rows(self.name, rows, self.spec, self.seed, self.reference)
        for message in problems.values():
            print(f"check failed: {message}", file=sys.stderr)
        self.result.failed += len(problems)

    def warm_up(self) -> None:
        harness.run_experiment(replace(self.spec, output_path=None))

    def setup_seconds(self) -> list[float]:
        """Cold-interpreter set-up times, one per fresh probe process."""
        times = []
        for _ in range(SETUP_PROBES):
            cmd = [
                sys.executable,
                str(HERE / "setup_probe.py"),
                str(SRC),
                self.name,
                str(self.seed),
            ]
            t0 = time.monotonic_ns()
            out = subprocess.run(
                cmd,
                capture_output=True,
                text=True,
                check=True,
                timeout=PROBE_TIMEOUT_S,
            )
            times.append((int(out.stdout.split()[-1]) - t0) / 1e9)
        return times

    def run(self, seconds: float, trace: bool) -> Result:
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            if trace:
                self._traced(seconds, tmp)
            else:
                self._untraced(seconds, tmp)
        self.result.lines.append(
            f"  failed/attempted {self.result.failed}/{self.result.attempted}"
        )
        return self.result

    def _put(self, name: str, value: float, note: str = "", show=True) -> None:
        unit = {**END_TO_END, **PER_LAYER}[name]
        self.result.metrics[name] = (float(value), unit)
        if show:
            self.result.lines.append(f"  {name:<32} {value:>12.6g} {unit:<5} {note}")

    def _untraced(self, seconds: float, tmp: str) -> None:
        setup = self.setup_seconds()
        self.warm_up()
        reps = self.reps(seconds, tmp)
        if not reps:
            return
        stats = step_stats(reps)
        self.result.lines.append(
            f"  {len(reps)} repetitions of {stats['steps_per_unit']} closed-loop "
            f"steps in {stats['experiments']} experiments; measured wall median "
            f"{stats['measured_wall']:.4f} s at host contention "
            f"{stats['contention']:.3f}"
        )
        idle = "for an idle host, see step_stats"
        self._put("setup_s", statistics.median(setup), f"median of {len(setup)}")
        self._put("wall_s", stats["wall"], idle)
        self._put("ctrl_steps_per_s", stats["steps_per_unit"] / stats["wall"])
        self._put("step_p50_us", stats["p50_us"], idle)
        # The step tail is mostly host noise, so it is only a per-layer metric.
        self.result.lines.append(
            f"  {'(step p99)':<32} {stats['p99_us']:>12.6g} us    as measured; "
            f"budget misses {stats['budget_misses']:g} per repetition"
        )
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self._put("peak_rss_mb", rss_kb / 1024.0, "high-water mark of this process")

    def _traced(self, seconds: float, tmp: str) -> None:
        self.warm_up()
        plain = self.reps(seconds / 2, tmp)
        if not plain:
            return
        tracer = Tracer()
        with Patches() as patches:
            tracer.install(patches)
            traced = self.reps(seconds / 2, tmp, tracer)
        if not traced:
            return
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans-{self.name}-seed{self.seed}.npz")

        stats = summarize(tracer, [r.spans for r in traced])
        total_self = sum(s["self_ms"] for s in stats.values())
        self.result.lines.append(
            f"  {'span':<24}{'calls':>9}{'self_ms':>11}{'share':>8}"
            f"{'p50_us':>13}{'p99_us':>13}"
        )
        for span, s in sorted(stats.items(), key=lambda kv: -kv[1]["self_ms"]):
            self.result.lines.append(
                f"  {span:<24}{s['calls']:>9g}{s['self_ms']:>11.2f}"
                f"{100 * s['self_ms'] / total_self:>7.1f}%"
                f"{s['p50_us']:>13.1f}{s['p99_us']:>13.1f}"
            )
        for name in PER_LAYER:
            span, _, stat = name.rpartition(".")
            if span in stats and stat in stats[span]:
                self._put(name, stats[span][stat], show=False)
        # The step latency itself comes from the harness's own timer in the
        # untraced repetitions, free of tracing overhead.
        untraced = step_stats(plain)
        for stat in ("p50_us", "p99_us"):
            self._put(f"controller.step.{stat}", untraced[stat], "untraced")
        # Every repetition writes the same record files, so what they hold
        # now is what one repetition wrote.
        written = sum(f.stat().st_size for f in Path(tmp).iterdir() if f.is_file())
        self._put("harness.write_record.bytes", written, "per repetition")
        self._put(
            "rls.forgetting_steps",
            statistics.median(r.counts.get("rls.forgetting_steps", 0) for r in traced),
        )
        self._put("riccati.saturated_steps", untraced["saturated"])
        self._put("controller.faults", untraced["faults"])
        self._put(
            "controller.step.budget_misses",
            untraced["budget_misses"],
            "untraced",
        )
        wall_plain, wall_traced = untraced["wall"], step_stats(traced)["wall"]
        self._put(
            "trace.overhead_s",
            wall_traced - wall_plain,
            f"traced {wall_traced:.4f} s - untraced {wall_plain:.4f} s",
        )


def step_stats(reps: list[Rep]) -> dict:
    """Timings and counts of the repetitions.

    Other tenants of a shared host slow all work down, by up to 2x, in
    phases that last from a fraction of a second to minutes.  The process
    is not descheduled then (its CPU time equals its wall time); the cores
    it runs on are shared.  So a time measured over whole seconds mostly
    measures the host.  Every repetition runs the same deterministic
    experiments, so a closed-loop step does the same work in each, and the
    fastest of its repetitions is its time on an idle host.  ``p50_us`` is
    the median of these idle-host step times.  A repetition's contention
    is the mean of its own steps over the mean idle-host step, and
    ``wall`` is the median over repetitions of the measured wall time
    divided by it: the rest of an experiment slows down in proportion to
    its steps.  A faster program fits more repetitions into the run, so
    each step's fastest time is taken over more samples and reads a little
    lower on that account alone.  Counts are medians over repetitions;
    ``p99_us`` is the tail of all closed-loop steps as they were measured.
    """
    walls = [w for rep in reps for w in rep.step_walls]
    if not walls:
        raise RuntimeError(
            "no ExperimentRecord passed through harness.experiment_metrics, "
            "so there are no controller step times"
        )
    idle = np.min([np.stack(rep.step_walls) for rep in reps], axis=0)
    contention = [float(np.mean(rep.step_walls) / np.mean(idle)) for rep in reps]
    misses = [
        sum(int(np.sum(w > harness.STEP_BUDGET_S)) for w in rep.step_walls)
        for rep in reps
    ]
    return {
        "experiments": len(reps[0].step_walls),
        "steps_per_unit": reps[0].steps,
        "wall": statistics.median(r.wall / c for r, c in zip(reps, contention)),
        "measured_wall": statistics.median(r.wall for r in reps),
        "contention": statistics.median(contention),
        "p50_us": float(np.median(idle)) * 1e6,
        "p99_us": float(np.percentile(np.concatenate(walls), 99)) * 1e6,
        "budget_misses": statistics.median(misses),
        "saturated": statistics.median(rep.saturated for rep in reps),
        "faults": statistics.median(rep.faults for rep in reps),
    }


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if there is none."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def env_stamp() -> str:
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return (
        f"python={platform.python_version()} numpy={np.__version__} "
        f"scipy={scipy.__version__} nproc={os.cpu_count()} "
        f"affinity={len(os.sched_getaffinity(0))} blas_threads={blas_threads()} "
        f"os_threads={threads} "
        + " ".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS)
    )


def loadavg() -> str:
    return ",".join(f"{x:.2f}" for x in os.getloadavg())


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", default="all", choices=[*WORKLOADS, "all"],
        help="workload to run (default: all, one after another)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=55.0,
        help="measuring time per workload, excluding set-up and warm-up",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if Path(pcac.__file__).resolve().parent != SRC / "pcac":
        print(f"imported pcac from {pcac.__file__}, not {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"env {env_stamp()} loadavg_start={loadavg()}")
    total = Result()
    for name in names:
        print(f"workload {name} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")
        result = Bench(name, args.seed).run(args.seconds, bool(args.trace))
        print("\n".join(result.lines), flush=True)
        total.attempted += result.attempted
        total.failed += result.failed
        prefix = "" if len(names) == 1 else f"{name}."
        total.metrics.update({prefix + k: v for k, v in result.metrics.items()})
    if len(names) > 1 and not args.trace:
        print("note: peak_rss_mb is the process high-water mark, so each "
              "workload's includes the workloads run before it; run "
              "--workload <name> for that workload's own")
    print(f"env loadavg_end={loadavg()}")
    correct = total.failed == 0 and total.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {
            k: {"value": value, "unit": unit}
            for k, (value, unit) in total.metrics.items()
        },
    }))
    return 0 if correct else 1

