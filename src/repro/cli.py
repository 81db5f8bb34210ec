"""Command-line interface: run the paper's experiments from a shell.

Examples::

    python -m repro sweep --protocol xpaxos --clients 8 32 96
    python -m repro sweep --protocol all --clients 64
    python -m repro faults --duration 60
    python -m repro scenarios --protocol all
    python -m repro reliability --nines-benign 4 --nines-correct 3 \
        --nines-synchrony 3
    python -m repro tables --which 5
    python -m repro profile fault-free --protocol xpaxos
    python -m repro lint --json lint_report.json
    python -m repro lint --only D001

``profile`` runs one scenario cell under cProfile and prints the
simulator's and network's hot-loop counters next to the wall-clock
profile (see ``docs/profiling.md``).  What a cell *costs* is not judged
here but by the end-to-end ledger (``benchmarks/e2e/``,
``BENCHMARK.json``).

``scenarios`` runs the conformance matrix: every scenario of the built-in
library (crash cadences, partitions, Byzantine adversaries, anarchy
boundary crossings; see :mod:`repro.scenarios.library`) against the
selected protocols, grading each cell's safety/liveness invariants.

``lint`` runs the AST determinism & safety linter
(:mod:`repro.analysis`): module-level RNG draws, wall-clock reads,
hash-ordered set iteration, unregistered wire messages and simulator
hygiene -- the same invariants the runtime enforces late, caught before
a matrix run starts (see ``docs/static-analysis.md``).

``faults`` is Figure 9 in small: ``ExperimentRunner.run_point`` under a
rolling-crash schedule.  A number no run can use (``--jobs -1``, zero
clients or seconds, a ``--t`` other than 1 or 2) is a usage error: one
argparse line and exit 2.

``scenarios`` and ``sweep`` accept ``--jobs N`` to farm their
deterministic, independent cells/points to worker processes; merged
output is byte-identical to a sequential run (``0`` = one worker per
core; see :mod:`repro.harness.parallel` and ``docs/parallelism.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.common.config import ProtocolName, WorkloadConfig
from repro.crypto.costs import CostModel
from repro.faults.injector import FaultSchedule
from repro.harness.configs import paper_config
from repro.harness.runner import ExperimentRunner
from repro.net.bandwidth import BandwidthModel
from repro.net.latency import LatencyModel


def _at_least(low, kind=int):
    """An argparse ``type=``: a ``kind`` number no smaller than ``low``."""
    def parse(text: str):
        value = kind(text)
        if not value >= low:  # also refuses nan
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return value
    parse.__name__ = kind.__name__
    return parse


def _runner(seed: int, uplink: float) -> ExperimentRunner:
    return ExperimentRunner(
        latency_factory=lambda s: LatencyModel.ec2(seed=s),
        bandwidth_factory=lambda: BandwidthModel(default_rate=uplink),
        cost_model=CostModel(),
        seed=seed,
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    """Latency-vs-throughput sweep for one protocol, or for all five
    (``--protocol all``; with one client count, a mini Figure 7)."""
    if args.protocol == "all":
        protocols = list(ProtocolName)
    else:
        protocols = [ProtocolName(args.protocol)]
    runner = _runner(args.seed, args.uplink)
    print(f"t={args.t} {args.request_size}B requests, EC2 WAN")
    print(f"{'protocol':>9} {'clients':>8} {'kops/s':>9} {'lat ms':>9} "
          f"{'cpu %':>7}")
    workloads = [
        WorkloadConfig(
            num_clients=clients, request_size=args.request_size,
            duration_ms=args.duration * 1_000.0,
            warmup_ms=min(500.0, args.duration * 100.0),
            client_site="CA")
        for clients in args.clients
    ]
    for protocol in protocols:
        # Points are independent deterministic runs, so --jobs N farms
        # them to worker processes; results come back in client-count
        # order and are identical to a sequential sweep.
        results = runner.run_points(paper_config(protocol, t=args.t),
                                    workloads, jobs=args.jobs)
        for clients, result in zip(args.clients, results):
            lat = (f"{result.mean_latency_ms:9.1f}"
                   if result.mean_latency_ms is not None else "      n/a")
            print(f"{protocol.value:>9} {clients:>8} "
                  f"{result.throughput_kops:9.3f} {lat} "
                  f"{result.cpu_percent_most_loaded:7.1f}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile one scenario cell: cProfile plus subsystem counters."""
    from repro.harness.matrix import MatrixRunner
    from repro.harness.profiling import (
        profile_call,
        profile_report,
        subsystem_counters,
    )
    from repro.scenarios.library import get_scenario

    try:
        scenario = get_scenario(args.scenario)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    protocol = ProtocolName(args.protocol)
    if not scenario.applies_to(protocol):
        print(f"scenario {scenario.name} does not apply to "
              f"{protocol.value}", file=sys.stderr)
        return 2
    runner = MatrixRunner(seed=args.seed, t=args.t)
    counters = {}

    def collect(runtime):
        counters.update(subsystem_counters(sim=runtime.sim,
                                           network=runtime.network,
                                           replicas=runtime.replicas))

    cell, profiler = profile_call(
        lambda: runner.run_cell(protocol, scenario, probe=collect))
    print(f"{scenario.name} x {protocol.value}: {cell.status} "
          f"({cell.committed} committed)")
    print(profile_report(profiler, counters, sort=args.sort,
                         limit=args.limit))
    if args.pstats:
        profiler.dump_stats(args.pstats)
        print(f"wrote profile {args.pstats}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """AST determinism & safety linter (see ``docs/static-analysis.md``).

    Exit 0 when the tree is clean (modulo inline suppressions and the
    committed baseline); exit 1 on any new finding *or* stale baseline
    entry; exit 2 on usage errors (unknown rule id, missing path,
    malformed baseline).
    """
    from repro.analysis import (
        all_rule_classes,
        format_report,
        run_lint,
        write_baseline,
    )

    if args.list_rules:
        for rid, cls in sorted(all_rule_classes().items()):
            print(f"{rid}  [{cls.severity.value}] {cls.title}")
        return 0
    only = [rid.strip()
            for chunk in args.only for rid in chunk.split(",")
            if rid.strip()]
    paths = args.paths or ["src", "tests", "benchmarks"]
    baseline = None if args.no_baseline else args.baseline
    try:
        report = run_lint(paths, only=only or None, baseline_path=baseline)
    except (ValueError, FileNotFoundError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.write_baseline:
        # Grandfather the current findings: they (plus what the baseline
        # already absorbs) become the new committed debt.
        write_baseline(args.baseline, report.findings + report.baselined)
        print(f"wrote {len(report.findings) + len(report.baselined)} "
              f"entr(ies) to {args.baseline}")
        return 0
    print(format_report(report, verbose=args.verbose))
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
        print(f"wrote {args.json}")
    return 0 if report.ok else 1


def cmd_faults(args: argparse.Namespace) -> int:
    """A Figure 9-style crash timeline on XPaxos."""
    runner = _runner(args.seed, args.uplink)
    duration_ms = args.duration * 1_000.0
    config = paper_config(ProtocolName.XPAXOS, delta_ms=1_250.0,
                          request_retransmit_ms=2_500.0,
                          view_change_timeout_ms=10_000.0)
    workload = WorkloadConfig(num_clients=args.clients, request_size=1024,
                              duration_ms=duration_ms, warmup_ms=2_000.0,
                              client_site="CA")
    # VA, CA, JP in turn, as in Figure 9 (180 / 300 / 420 s of 500 s):
    # at 35 / 60 / 85 % of the run, each down for 4 % of it.
    schedule = FaultSchedule.rolling_crashes(
        (1, 0, 2), duration_ms * 0.35, duration_ms * 0.25,
        duration_ms * 0.04)
    result = runner.run_point(config, workload, schedule)
    print("XPaxos under rolling crashes (VA, CA, JP)")
    for start, kops in result.throughput_series[::max(1,
            int(duration_ms / 25_000))]:
        print(f"{start / 1000.0:7.0f}s {kops:7.3f} "
              + "#" * int(kops * 150))
    print(f"view changes: {result.view_changes}; "
          f"longest outage {result.longest_gap_ms() / 1000.0:.1f}s")
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    """Run the scenario conformance matrix and print the grid."""
    from repro.harness.matrix import MatrixRunner
    from repro.scenarios.library import builtin_scenarios, get_scenario

    if args.list:
        for scenario in builtin_scenarios():
            scope = "all" if scenario.protocols is None else ",".join(
                sorted(p.value for p in scenario.protocols))
            print(f"{scenario.name:<32} [{scope}] {scenario.description}")
        return 0
    if args.scenario:
        try:
            scenarios = [get_scenario(name) for name in args.scenario]
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
    else:
        scenarios = builtin_scenarios()
    if args.protocol == "all":
        protocols = list(ProtocolName)
    else:
        protocols = [ProtocolName(args.protocol)]
    runner = MatrixRunner(seed=args.seed, t=args.t)
    result = runner.run_matrix(scenarios=scenarios, protocols=protocols,
                               jobs=args.jobs)
    print(result.format_grid())
    for cell in result.failures:
        print(f"FAIL {cell.scenario} x {cell.protocol}: {cell.detail}",
              file=sys.stderr)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(result.to_json())
        print(f"wrote {args.json}")
    return 1 if result.failures else 0


def cmd_reliability(args: argparse.Namespace) -> int:
    """Nines of consistency/availability at one grid point."""
    from repro.reliability.tables import availability_cell, consistency_cell

    row = consistency_cell(args.t, args.nines_benign, args.nines_correct,
                           args.nines_synchrony)
    print(f"consistency nines (t={args.t}, 9benign={args.nines_benign}, "
          f"9correct={args.nines_correct}, "
          f"9synchrony={args.nines_synchrony}):")
    print(f"  CFT={row.cft}  XPaxos={row.xpaxos}  BFT={row.bft}")
    nines_available = min(args.nines_correct, args.nines_synchrony)
    arow = availability_cell(args.t, nines_available, args.nines_benign)
    print(f"availability nines (9available~{nines_available}):")
    print(f"  CFT={arow.cft}  XPaxos={arow.xpaxos}  BFT={arow.bft}")
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    """Print one of the paper's reliability tables."""
    from repro.reliability.tables import (
        availability_table,
        consistency_table,
        format_availability_table,
        format_consistency_table,
    )

    which = args.which
    if which in (5, 6):
        t = 1 if which == 5 else 2
        print(format_consistency_table(consistency_table(t)))
    else:
        t = 1 if which == 7 else 2
        print(format_availability_table(availability_table(t)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Assemble the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XFT/XPaxos reproduction experiments")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--uplink", type=float, default=4_000.0,
                        help="uplink bytes per virtual ms")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="latency-vs-throughput sweep")
    sweep.add_argument("--protocol", default="xpaxos",
                       choices=["all"] + [p.value for p in ProtocolName])
    sweep.add_argument("--t", type=int, default=1, choices=(1, 2))
    sweep.add_argument("--clients", type=_at_least(1), nargs="+",
                       default=[8, 32, 96])
    sweep.add_argument("--request-size", type=int, default=1024)
    sweep.add_argument("--duration", type=_at_least(0.001, float),
                       default=4.0, help="virtual seconds per point")
    sweep.add_argument("--jobs", type=_at_least(0), default=1,
                       help="worker processes for the sweep points "
                            "(0 = one per core); results are identical "
                            "to a sequential sweep")
    sweep.set_defaults(func=cmd_sweep)

    profile = sub.add_parser(
        "profile",
        help="profile one scenario cell (cProfile + subsystem counters)")
    profile.add_argument("scenario",
                         help="scenario name "
                              "(see `repro scenarios --list`)")
    profile.add_argument("--protocol", default="xpaxos",
                         choices=[p.value for p in ProtocolName])
    profile.add_argument("--t", type=int, default=1, choices=(1, 2))
    profile.add_argument("--sort", default="cumulative",
                         help="pstats sort key (cumulative, tottime, ...)")
    profile.add_argument("--limit", type=int, default=25,
                         help="profile rows to print")
    profile.add_argument("--pstats", default=None, metavar="PATH",
                         help="also dump the raw pstats file")
    profile.set_defaults(func=cmd_profile)

    lint = sub.add_parser(
        "lint",
        help="AST determinism & safety linter (docs/static-analysis.md)")
    lint.add_argument("paths", nargs="*",
                      help="files/directories to lint "
                           "(default: src tests benchmarks)")
    lint.add_argument("--only", action="append", default=[],
                      metavar="RULE",
                      help="run only these rule ids (repeatable or "
                           "comma-separated, e.g. --only D001)")
    lint.add_argument("--json", default=None, metavar="PATH",
                      help="also write the full report as JSON")
    lint.add_argument("--baseline",
                      default="benchmarks/lint_baseline.json",
                      help="committed baseline of grandfathered findings "
                           "(default %(default)s)")
    lint.add_argument("--no-baseline", action="store_true",
                      help="ignore the baseline: report every finding")
    lint.add_argument("--write-baseline", action="store_true",
                      help="regenerate the baseline from the current "
                           "findings instead of failing on them")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")
    lint.add_argument("--verbose", action="store_true",
                      help="also print suppressed and baselined findings")
    lint.set_defaults(func=cmd_lint)

    faults = sub.add_parser("faults", help="Figure 9-style crash timeline")
    faults.add_argument("--clients", type=_at_least(1), default=32)
    faults.add_argument("--duration", type=_at_least(0.001, float),
                        default=125.0, help="virtual seconds")
    faults.set_defaults(func=cmd_faults)

    scenarios = sub.add_parser(
        "scenarios", help="scenario conformance matrix")
    scenarios.add_argument("--protocol", default="all",
                           choices=["all"] + [p.value for p in ProtocolName])
    scenarios.add_argument("--t", type=int, default=1, choices=(1, 2))
    scenarios.add_argument("--scenario", action="append", default=[],
                           metavar="NAME",
                           help="run only these scenarios (repeatable)")
    scenarios.add_argument("--list", action="store_true",
                           help="list known scenarios and exit")
    scenarios.add_argument("--json", default=None, metavar="PATH",
                           help="also write the cell records as JSON")
    scenarios.add_argument("--jobs", type=_at_least(0), default=1,
                           help="worker processes for matrix cells "
                                "(0 = one per core); the merged matrix "
                                "is byte-identical to --jobs 1")
    scenarios.set_defaults(func=cmd_scenarios)

    reliability = sub.add_parser("reliability",
                                 help="nines at one grid point")
    reliability.add_argument("--t", type=int, default=1)
    reliability.add_argument("--nines-benign", type=int, default=4)
    reliability.add_argument("--nines-correct", type=int, default=3)
    reliability.add_argument("--nines-synchrony", type=int, default=3)
    reliability.set_defaults(func=cmd_reliability)

    tables = sub.add_parser("tables", help="print Tables 5-8")
    tables.add_argument("--which", type=int, required=True,
                        choices=[5, 6, 7, 8])
    tables.set_defaults(func=cmd_tables)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
