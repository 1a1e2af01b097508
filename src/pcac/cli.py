"""Command-line entry points for running and analyzing experiments."""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

from . import harness
from .errors import NumericalError, PlantDivergedError


def _or_exit_2(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``; an OSError or ValueError from it prints
    ``pcac: <message>`` and exits with status 2, as a bad argument does."""
    try:
        return fn(*args, **kwargs)
    except (OSError, ValueError) as exc:
        print(f"pcac: {exc}", file=sys.stderr)
        sys.exit(2)


def _load_spec(args) -> harness.ExperimentSpec:
    """The --spec file's spec, or default_spec(); a file that cannot be read
    or parsed exits with status 2."""
    if args.spec:
        spec = _or_exit_2(harness.parse_spec_file, args.spec)
    else:
        spec = harness.default_spec()
    if args.seed is not None:
        spec = replace(spec, plant=replace(spec.plant, seed=args.seed))
    return spec


def _cmd_run(args) -> int:
    spec = _load_spec(args)
    if args.open_loop_only:
        spec = replace(spec, t_open=spec.t_total)
    _or_exit_2(os.makedirs, args.out, exist_ok=True)
    spec = replace(spec, output_path=os.path.join(args.out, "record.csv"))
    try:
        record = harness.run_experiment(spec)
    except (NumericalError, PlantDivergedError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    print(f"record written to {spec.output_path}")
    if spec.t_open < spec.t_total:
        for key, value in harness.experiment_metrics(record).items():
            print(f"{key}: {value}")
        if record.fault_count > 0:
            print(f"run finished with {record.fault_count} numerical faults",
                  file=sys.stderr)
            return 1
    return 0


def _any_failed(rows: list[dict]) -> int:
    """1 when a sweep row failed or its runs had numerical faults, else 0."""
    return int(any(r["status"] != "ok" or r["fault_count"] > 0 for r in rows))


def _cmd_grid(args) -> int:
    spec = _load_spec(args)
    summary = _or_exit_2(harness.run_grid, spec, args.out, args.seed or 0)
    for row in summary:
        line = (f"cell {row['cell']} ({row['freq_hz']:.0f} Hz, "
                f"mu={row['mu']:.2f}): {row['status']}")
        if row["status"] == "ok":
            atten = row["attenuation_db"]
            line += (f", suppression {row['suppression_time_s']} s, attenuation "
                     + ("None" if atten is None else f"{atten:.1f} dB")
                     + f", {row['budget_misses']} budget misses")
        print(line)
    print(f"summary written to {args.out}/summary.csv")
    return _any_failed(summary)


def _cmd_spectrum(args) -> int:
    """A bad record or --out, or a window of under two samples, exits with 2."""
    record = _or_exit_2(harness.read_record, args.record)
    window = (record.t >= args.t_start) & (record.t <= args.t_end)
    freqs, amps = _or_exit_2(harness.amplitude_spectrum, record.y[window], record.t_s)
    out = args.out or args.record.removesuffix(".csv") + ".spectrum.csv"
    _or_exit_2(harness.write_csv, out, "frequency_hz,amplitude\n", [freqs, amps])
    print(f"spectrum written to {out}")
    return 0


def _cmd_ablate(args) -> int:
    """A spec the ablation cannot measure, or an --out that cannot be a
    directory, exits with 2 before any run.  A cell whose re-suppression
    times are None prints them so and counts as no win."""
    spec = _load_spec(args)
    rows = _or_exit_2(harness.run_ablation, spec, out_dir=args.out,
                      base_seed=args.seed or 0)
    ok = [row for row in rows if row["status"] == "ok"]
    # both runs of a pair share the open loop: both times are None, or neither
    measured = [row for row in ok if row["resuppression_forgetting_s"] is not None]
    wins = sum(row["resuppression_forgetting_s"] <= row["resuppression_no_forgetting_s"]
               for row in measured)
    for row in rows:
        on, off = ("None" if t is None else f"{t:.3f} s" for t in (
            row.get("resuppression_forgetting_s"),
            row.get("resuppression_no_forgetting_s")))
        print(f"cell {row['cell']}: " + (f"forgetting {on} vs {off} without"
                                         if row["status"] == "ok" else row["status"]))
    print(f"forgetting re-suppressed at least as fast on {wins}/{len(rows)} cells")
    if len(measured) < len(ok):
        print(f"{len(measured)}/{len(rows)} cells measured; {len(ok) - len(measured)} "
              "not measurable (all-zero pre-switch output)")
    return _any_failed(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcac",
        description="Adaptive predictive control experiments on a "
        "self-excited oscillator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def seed(text: str) -> int:
        # numpy seeds its generators from nonnegative integers only
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
        return value

    def common(p):
        p.add_argument("--spec", help="experiment spec file (key = value lines)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=seed, default=None, help="plant noise seed")

    p_run = sub.add_parser("run", help="run a single experiment")
    common(p_run)
    p_run.add_argument(
        "--open-loop-only", action="store_true",
        help="skip the closed-loop phase (t_open = t_total)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_grid = sub.add_parser("grid", help="run the 3x3 operating-condition sweep")
    common(p_grid)
    p_grid.set_defaults(func=_cmd_grid)

    p_spec = sub.add_parser("spectrum", help="amplitude spectrum of a record file")
    p_spec.add_argument("--record", required=True, help="record CSV to analyze")
    p_spec.add_argument("--out", default=None, help="output CSV path")
    p_spec.add_argument("--t-start", type=float, default=-math.inf)
    p_spec.add_argument("--t-end", type=float, default=math.inf)
    p_spec.set_defaults(func=_cmd_spectrum)

    p_abl = sub.add_parser(
        "ablate", help="paired forgetting-on vs forgetting-off comparison"
    )
    common(p_abl)
    p_abl.set_defaults(func=_cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
