"""Command-line entry points for running and analyzing experiments."""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import harness
from .errors import NumericalError, PlantDivergedError


def _load_spec(args) -> harness.ExperimentSpec:
    if args.spec:
        spec = harness.parse_spec_file(args.spec)
    else:
        spec = harness.default_spec()
    if args.seed is not None:
        spec = replace(spec, plant=replace(spec.plant, seed=args.seed))
    return spec


def _cmd_run(args) -> int:
    spec = _load_spec(args)
    if args.open_loop_only:
        spec = replace(spec, t_open=spec.t_total)
    os.makedirs(args.out, exist_ok=True)
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


def _cmd_grid(args) -> int:
    spec = _load_spec(args)
    summary = harness.run_grid(
        spec, out_dir=args.out, base_seed=args.seed or 0, workers=args.workers
    )
    for row in summary:
        print(
            f"cell {row['cell']} ({row['freq_hz']:.0f} Hz, mu={row['mu']:.2f}): "
            f"{row['status']}"
            + (
                f", suppression {row['suppression_time_s']} s, "
                f"attenuation {row['attenuation_db']:.1f} dB"
                if row["status"] == "ok"
                else ""
            )
        )
    print(f"summary written to {args.out}/summary.csv")
    return 0


def _cmd_spectrum(args) -> int:
    record = harness.read_record(args.record)
    y = record.y
    t = record.t
    if args.t_start is not None or args.t_end is not None:
        lo = args.t_start if args.t_start is not None else t[0]
        hi = args.t_end if args.t_end is not None else t[-1]
        mask = (t >= lo) & (t <= hi)
        y = y[mask]
    freqs, amps = harness.amplitude_spectrum(y, record.t_s)
    out = args.out or args.record.replace(".csv", "") + ".spectrum.csv"
    with open(out, "w") as fh:
        fh.write("frequency_hz,amplitude\n")
        for f, a in zip(freqs, amps):
            fh.write(f"{float(f)!r},{float(a)!r}\n")
    print(f"spectrum written to {out}")
    return 0


def _cmd_ablate(args) -> int:
    spec = _load_spec(args)
    rows = harness.run_ablation(
        spec, out_dir=args.out, base_seed=args.seed or 0, workers=args.workers
    )
    wins = sum(
        row["resuppression_forgetting_s"] <= row["resuppression_no_forgetting_s"]
        for row in rows
    )
    for row in rows:
        print(
            f"cell {row['cell']}: forgetting "
            f"{row['resuppression_forgetting_s']:.3f} s vs "
            f"{row['resuppression_no_forgetting_s']:.3f} s without"
        )
    print(f"forgetting re-suppressed at least as fast on {wins}/{len(rows)} cells")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcac",
        description="Adaptive predictive control experiments on a "
        "self-excited oscillator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, workers=False):
        p.add_argument("--spec", help="experiment spec file (key = value lines)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="plant noise seed")
        if workers:
            p.add_argument("--workers", type=int, default=1,
                           help="process-pool size for the sweep")

    p_run = sub.add_parser("run", help="run a single experiment")
    common(p_run)
    p_run.add_argument(
        "--open-loop-only", action="store_true",
        help="skip the closed-loop phase (t_open = t_total)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_grid = sub.add_parser("grid", help="run the 3x3 operating-condition sweep")
    common(p_grid, workers=True)
    p_grid.set_defaults(func=_cmd_grid)

    p_spec = sub.add_parser("spectrum", help="amplitude spectrum of a record file")
    p_spec.add_argument("--record", required=True, help="record CSV to analyze")
    p_spec.add_argument("--out", default=None, help="output CSV path")
    p_spec.add_argument("--t-start", type=float, default=None)
    p_spec.add_argument("--t-end", type=float, default=None)
    p_spec.set_defaults(func=_cmd_spectrum)

    p_abl = sub.add_parser(
        "ablate", help="paired forgetting-on vs forgetting-off comparison"
    )
    common(p_abl, workers=True)
    p_abl.set_defaults(func=_cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
