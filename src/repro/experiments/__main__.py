"""CLI: ``python -m repro.experiments <command>`` — see package docstring."""

from __future__ import annotations

import argparse
import sys

from . import (
    render_all,
    render_construction_scaling,
    render_counting_ablation,
    render_figure,
    render_grid_crossover,
    render_jump_ablation,
    render_kernel_scaling,
    render_machine_sweep,
    render_obs_summary,
    render_ratio_study,
    render_scaling,
    render_service_throughput,
    render_table1,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("table1", help="Table 1: guarantees vs measured ratios")
    fig = sub.add_parser("figures", help="Figures 1-13 as ASCII Gantt charts")
    fig.add_argument("--fig", default="all", help="figure id (1, 1a, 1b, 2..13) or 'all'")
    scal = sub.add_parser("scaling", help="Experiment S1: runtime scaling")
    scal.add_argument("--sizes", type=int, nargs="*", default=None)
    scal.add_argument(
        "--kernel", choices=["fast", "fraction", "both"], default="fast",
        help="numeric tier to time ('both' renders the side-by-side fits)",
    )
    swp = sub.add_parser(
        "sweep", help="Experiment S2: machine sweeps via the batched engine"
    )
    swp.add_argument("--kernel", choices=["fast", "fraction"], default="fast")
    sub.add_parser(
        "gridcross",
        help="Experiment S3: the splittable flip-search grid vs scalar probes over c",
    )
    con = sub.add_parser(
        "construct",
        help="Experiment S4: Algorithm 6 construction — ItemStore vs reference",
    )
    con.add_argument("--sizes", type=int, nargs="*", default=None)
    svc = sub.add_parser(
        "service",
        help="Experiment S5: service throughput vs shard count (repro.service)",
    )
    svc.add_argument("--shards", type=int, nargs="*", default=None)
    sub.add_parser("ratio", help="Experiment R1: ratio study")
    sub.add_parser("ablation", help="Experiments A1/A2: jumping + counting ablations")
    obs = sub.add_parser(
        "obs",
        help="summarize a service trace file (python -m repro.service "
             "--trace FILE): batch latency + solver counters",
    )
    obs.add_argument("trace", help="JSONL span file written by --trace")
    args = parser.parse_args(argv)

    if args.command == "table1":
        print(render_table1())
    elif args.command == "figures":
        print(render_all() if args.fig == "all" else render_figure(args.fig))
    elif args.command == "scaling":
        if args.kernel == "both":
            print(render_kernel_scaling(sizes=args.sizes))
        else:
            print(render_scaling(sizes=args.sizes, kernel=args.kernel))
    elif args.command == "sweep":
        print(render_machine_sweep(kernel=args.kernel))
    elif args.command == "gridcross":
        print(render_grid_crossover())
    elif args.command == "construct":
        print(render_construction_scaling(sizes=args.sizes))
    elif args.command == "service":
        print(
            render_service_throughput(
                shard_counts=tuple(args.shards) if args.shards else (1, 2, 4, 8)
            )
        )
    elif args.command == "ratio":
        print(render_ratio_study())
    elif args.command == "ablation":
        print(render_jump_ablation())
        print()
        print(render_counting_ablation())
    elif args.command == "obs":
        print(render_obs_summary(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
