"""End-to-end ledger: what a whole experiment costs, and where it goes.

    python3 benchmarks/e2e/run.py [--seed N] [--out FILE]
        every workload: timed repetitions interleaved round-robin, then
        one traced repetition each; prints every metric by name and unit.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
        one workload, as the PR driver runs it; the last line of output
        is one JSON object (see BENCHMARK.json at the repository root).

Two kinds of number, and every metric says which: *host* seconds and
MiB (what the experiment costs the person running it; medians over
repetitions, each repetition in a fresh child process) and *simulated*
statistics in virtual time (what the modelled service delivers; they
repeat exactly for a seed, and the run fails if they do not).

Host seconds are *calibrated*: the shared box this runs on switches
between a fast and a slow state every 20-60 s (raw CPU seconds of one
identical repetition range over 1.5x), so a fixed loop is timed before and
after every repetition and the repetition's seconds are scaled to what
they would be with that loop at ``CALIB_REF_S``.  Raw medians and the
loop's own time are reported beside them (``host.raw_*``,
``host.calib_s``).  Exits non-zero on any correctness or determinism
miss.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[2]
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.e2e import clock, trace, workloads  # noqa: E402

#: Timed repetitions per workload are never fewer than this; more are run
#: while they fit in ``--seconds``.
MIN_REPS = 5
#: No repetition is allowed longer than this (the driver's own limit for
#: a whole run is 180 s).
CHILD_TIMEOUT_S = 150
#: CPU seconds of ``calibration_s()`` on the reference host (this
#: repository's 2-core 2.1 GHz Xeon box in its fast state).
CALIB_REF_S = 0.30
ATTRIBUTION = (
    "layer self time = cProfile tottime bucketed by source path, builtin "
    "and stdlib frames charged to their callers; per-call profiler "
    "overhead (see trace.overhead_x) inflates layers made of many small "
    "calls; end-to-end metrics never come from the traced repetition")


def benchmark_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- repetitions -----------------------------------------------------------
def spawn_repetition(name: str, seed: int, scale: float,
                     traced: bool) -> Dict[str, Any]:
    """One repetition of workload ``name`` in a fresh, single-threaded
    child: what a ``repro scenarios`` cell or a sweep point costs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e.workloads", name, str(seed),
         repr(scale), "1" if traced else "0", repr(clock.wall())],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{name}: repetition exited with "
                           f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def calibration_s() -> float:
    """CPU seconds of a fixed loop: two fifths interpreter arithmetic,
    three fifths allocation, hashing and dict traffic.  Over 90 rounds
    of all four workloads that blend tracked the box's state best
    (arithmetic alone slows down less than the simulator does,
    allocation alone more): medians of six repetitions spread 3-9%
    after scaling by it, 12-24% before."""
    started = clock.cpu()
    acc = 0
    for i in range(1_500_000):
        acc += i * i % 7
    table: Dict[int, Any] = {}
    kept = []
    for i in range(150_000):
        blob = b"l%d:%b" % (i, b"s3:abc")
        table[i & 4095] = (i, hashlib.sha256(blob).digest(), [i, blob])
        if not i & 255:
            kept.append(sorted(table)[:8])
    return clock.cpu() - started


def calibrated_repetition(name: str, seed: int, scale: float, traced: bool,
                          calib_before: float) -> Dict[str, Any]:
    """One repetition with its host seconds scaled to the reference
    host; ``calib_before`` is the loop's time just before it (the loop
    is timed again just after, and returned as ``calib_after``)."""
    rep = spawn_repetition(name, seed, scale, traced)
    rep["calib_after"] = calibration_s()
    rep["calib_s"] = (calib_before + rep["calib_after"]) / 2.0
    to_reference = CALIB_REF_S / rep["calib_s"]
    rep["raw_host"] = dict(rep["host"])
    for host in [rep["host"]] + [c["host"] for c in rep["cells"]]:
        for key in host:
            if key.endswith("_s"):
                host[key] *= to_reference
    return rep


def timed_repetitions(names: Sequence[str], seed: int, scale: float,
                      seconds: float, min_reps: int = MIN_REPS
                      ) -> Dict[str, List[Dict[str, Any]]]:
    """Untraced repetitions, interleaved round-robin over ``names`` so a
    neighbour's burst lands on one or two repetitions of any workload.
    Rounds continue while another one fits in ``seconds`` per workload."""
    reps: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    started = clock.wall()
    rounds = 0
    slowest_round = 0.0
    calib = calibration_s()
    while (rounds < min_reps or clock.wall() - started + slowest_round
           <= seconds * len(names)):
        round_started = clock.wall()
        for name in names:
            rep = calibrated_repetition(name, seed, scale, False, calib)
            calib = rep["calib_after"]
            reps[name].append(rep)
        slowest_round = max(slowest_round, clock.wall() - round_started)
        rounds += 1
    return reps


# -- the determinism gate --------------------------------------------------
def _simulated(rep: Dict[str, Any]) -> Dict[str, Any]:
    """Everything in a repetition that must not depend on the host."""
    return {
        "sim": rep["sim"], "attempted": rep["attempted"],
        "failed": rep["failed"],
        "cells": {c["label"]: {"sim": c["sim"], "counts": c["counts"]}
                  for c in rep["cells"]},
    }


def _first_difference(a: Any, b: Any, path: str = "") -> Optional[str]:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            found = _first_difference(a.get(key), b.get(key),
                                      f"{path}.{key}" if path else str(key))
            if found:
                return found
        return None
    return None if a == b else f"{path}: {a!r} vs {b!r}"


def gate(name: str, reps: List[Dict[str, Any]]) -> List[str]:
    """Correctness and determinism misses, one attributed line each."""
    problems = [f"{name}: {p}" for p in reps[0]["problems"]]
    reference = _simulated(reps[0])
    for index, rep in enumerate(reps[1:], start=2):
        kind = "traced repetition" if rep["traced"] else f"repetition {index}"
        difference = _first_difference(reference, _simulated(rep))
        if difference:
            problems.append(f"{name}: {kind} is not the run repetition 1 "
                            f"was: {difference}")
    return problems


# -- metrics ---------------------------------------------------------------
def _spread(values: List[float]) -> Dict[str, float]:
    out = {"value": statistics.median(values), "n": len(values),
           "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
    return out


def _total(rep: Dict[str, Any], counter: str) -> int:
    return sum(c["counts"][counter] for c in rep["cells"])


def _peak(rep: Dict[str, Any], counter: str) -> int:
    return max(c["counts"][counter] for c in rep["cells"])


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _cells_of(rep: Dict[str, Any], protocol: str) -> List[Dict[str, Any]]:
    return [c for c in rep["cells"] if c["protocol"] == protocol]


def end_to_end_metrics(reps: List[Dict[str, Any]]
                       ) -> Dict[str, Dict[str, float]]:
    """``reps`` are the untraced repetitions of one workload."""
    commits = _total(reps[0], "commits")
    out = {key: _spread([r["host"][key] for r in reps])
           for key in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
    out["commits_per_wall_s"] = _spread(
        [commits / r["host"]["wall_s"] for r in reps])
    for key in ("sim_kops", "sim_p50_ms", "sim_p99_ms", "sim_unavail_ms"):
        out[key] = {"value": reps[0]["sim"][key], "n": 1}
    return out


def max_rate_rps(cells: List[Dict[str, Any]]) -> float:
    """Highest offered rate among ``cells`` (one protocol's rungs) whose
    p99 and end-of-run backlog meet the limits; 0 if none does, or if
    the cells are closed loops."""
    met = [c["rate_rps"] for c in cells
           if c["rate_rps"] is not None
           and c["sim"]["p99_ms"] <= workloads.MAX_RATE_P99_MS
           and c["sim"]["backlog_end"] <= (workloads.MAX_RATE_BACKLOG_FRACTION
                                           * c["counts"]["arrivals"])]
    return max(met, default=0.0)


def per_layer_metrics(reps: List[Dict[str, Any]], traced: Dict[str, Any],
                      host: Dict[str, Any]) -> Dict[str, float]:
    """Counts come from the program's public counters (identical in every
    repetition: the gate checked), host medians from the untraced
    ``reps``, self times and call counts from the ``traced`` one.
    Metrics that do not apply to a workload read 0."""
    rep = reps[0]
    cpu_s = statistics.median(r["host"]["cpu_s"] for r in reps)
    commits = _total(rep, "commits")
    events = _total(rep, "sim.events")
    scheduled = _total(rep, "sim.scheduled")
    pushes = _total(rep, "sim.heap_pushes")
    sent = _total(rep, "net.msgs_sent")
    digests = _total(rep, "crypto.digest_calls")
    batches = _total(rep, "protocols.batches")
    out: Dict[str, float] = dict(traced["layers"])
    out.update({
        "sim.events": events,
        "sim.events_per_commit": _ratio(events, commits),
        "sim.events_per_cpu_s": _ratio(events, cpu_s),
        "sim.heap_pushes": pushes,
        "sim.cancelled": _total(rep, "sim.cancelled"),
        "sim.fast_lane_frac": _ratio(_total(rep, "sim.fast_lane"), scheduled),
        "sim.pool_hit_rate": _ratio(_total(rep, "sim.pool_hits"), scheduled),
        "sim.arena_hit_rate": _ratio(_total(rep, "sim.arena_hits"), pushes),
        "sim.peak_pending": _peak(rep, "sim.peak_pending"),
        "net.msgs_sent": sent,
        "net.msgs_per_commit": _ratio(sent, commits),
        "net.bytes_per_commit": _ratio(_total(rep, "net.bytes_sent"),
                                       commits),
        "net.dropped": _total(rep, "net.dropped"),
        "net.coalesced_ticks": _total(rep, "net.coalesced_ticks"),
        "net.coalesced_frac": _ratio(
            _total(rep, "net.coalesced_deliveries"), sent),
        "crypto.digest_calls": digests,
        "crypto.digests_per_commit": _ratio(digests, commits),
        "crypto.digest_cache_hit_rate": _ratio(
            _total(rep, "crypto.digest_cache_hits"), digests),
        "crypto.mac_stamped": _total(rep, "crypto.mac_stamped"),
        "crypto.mac_verified": _total(rep, "crypto.mac_verified"),
        "crypto.modeled_cpu_pct": max(
            c["sim"]["modeled_cpu_pct"] for c in rep["cells"]),
        "protocols.batches": batches,
        "protocols.reqs_per_batch": _ratio(commits, batches),
        "smr.executes": _total(rep, "smr.executes"),
        "smr.msgs_received": _total(rep, "smr.msgs_received"),
        "smr.auth_failures": _total(rep, "smr.auth_failures"),
        "workloads.arrivals": _total(rep, "arrivals"),
        "workloads.backlog_peak": _peak(rep, "backlog_peak"),
        "workloads.dropped_samples": _total(rep, "dropped_samples"),
        "workloads.latency_samples": rep["sim"]["sim_samples"],
        "workloads.failed_frac": _ratio(rep["failed"], rep["attempted"]),
        "faults.injected": _total(rep, "faults.injected"),
        "faults.safety_violations": _total(rep, "faults.safety_violations"),
        "faults.liveness_violations": _total(
            rep, "faults.liveness_violations"),
        "trace.overhead_x": _ratio(traced["host"]["cpu_s"], cpu_s),
        "host.calib_s": statistics.median(r["calib_s"] for r in reps),
        "host.nproc": host["nproc"],
        "host.loadavg1": host["loadavg1"],
    })
    for counter in ("sequencer_stalls", "view_changes", "elections_started",
                    "client_timeouts"):
        out[f"protocols.{counter}"] = _total(rep, f"protocols.{counter}")
    for key in ("import_s", "build_s", "grade_s"):
        out[f"harness.{key}"] = statistics.median(
            r["host"][key] for r in reps)
    for key in ("cpu_s", "wall_s", "setup_s"):
        out[f"host.raw_{key}"] = statistics.median(
            r["raw_host"][key] for r in reps)
    for protocol in trace.PROTOCOLS:
        out[f"protocols.{protocol}.cpu_s"] = statistics.median(
            sum(c["host"]["cpu_s"] for c in _cells_of(r, protocol))
            for r in reps)
        out[f"protocols.{protocol}.p99_ms"] = max(
            (c["sim"]["p99_ms"] for c in _cells_of(rep, protocol)
             if c["reference"]), default=0.0)
        out[f"protocols.{protocol}.max_rate_rps"] = max_rate_rps(
            _cells_of(rep, protocol))
    return out


# -- host facts ------------------------------------------------------------
def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_facts() -> Dict[str, Any]:
    return {"nproc": os.cpu_count() or 1, "loadavg1": os.getloadavg()[0],
            "cpu_model": cpu_model(), "python": platform.python_version()}


# -- running and reporting -------------------------------------------------
def run_ledger(names: Sequence[str], seed: int, seconds: float,
               scale: float = 1.0, timed: bool = True, traced: bool = True,
               min_reps: int = MIN_REPS) -> Dict[str, Any]:
    """Measure ``names`` and return the ledger payload.

    ``timed`` without ``traced`` gives the end-to-end metrics only;
    ``traced`` without ``timed`` runs one untraced and one traced
    repetition per workload, enough for the per-layer metrics."""
    spec = benchmark_spec()
    host = host_facts()
    if not timed:
        seconds, min_reps = 0.0, 1
    reps = timed_repetitions(names, seed, scale, seconds, min_reps)
    payload: Dict[str, Any] = {
        "benchmark": "e2e-ledger", "seed": seed, "scale": scale,
        "host": host, "attribution": ATTRIBUTION, "workloads": {}}
    for name in names:
        mine = reps[name]
        entry: Dict[str, Any] = {
            "attempted": mine[0]["attempted"], "failed": mine[0]["failed"],
            "repetitions": len(mine),
        }
        checked = list(mine)
        if timed:
            entry["end_to_end"] = _units(end_to_end_metrics(mine),
                                         spec["end_to_end"])
        if traced:
            traced_rep = calibrated_repetition(name, seed, scale, True,
                                               mine[-1]["calib_after"])
            checked.append(traced_rep)
            values = per_layer_metrics(mine, traced_rep, host)
            entry["per_layer"] = _units(
                {k: {"value": v} for k, v in values.items()},
                spec["per_layer"])
        entry["problems"] = gate(name, checked)
        entry["correct"] = not entry["problems"]
        entry["simulated"] = _simulated(mine[0])
        payload["workloads"][name] = entry
    return payload


def _units(values: Dict[str, Dict[str, float]],
           specs: List[Dict[str, str]]) -> Dict[str, Dict[str, Any]]:
    """Exactly the metrics BENCHMARK.json names, each with its unit."""
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise KeyError(f"BENCHMARK.json names metrics the ledger does not "
                       f"compute: {missing}")
    return {s["name"]: dict(values[s["name"]], unit=s["unit"])
            for s in specs}


def format_report(payload: Dict[str, Any]) -> str:
    host = payload["host"]
    lines = [
        f"e2e ledger  seed={payload['seed']}  scale={payload['scale']:g}",
        f"host: {host['cpu_model']}, nproc={host['nproc']}, "
        f"loadavg1={host['loadavg1']:.2f}, python {host['python']}; host "
        f"seconds calibrated to a {CALIB_REF_S:g} s reference loop",
        f"attribution: {payload['attribution']}",
    ]
    for name, entry in payload["workloads"].items():
        lines.append("")
        lines.append(f"[{name}]  {entry['repetitions']} timed repetitions, "
                     f"attempted={entry['attempted']} "
                     f"failed={entry['failed']} "
                     f"correct={'yes' if entry['correct'] else 'NO'}")
        for metric, m in entry.get("end_to_end", {}).items():
            line = f"  {metric:<34} {m['value']:>14.6g} {m['unit']:<7}"
            if "q1" in m:
                line += (f" q1={m['q1']:.6g} q3={m['q3']:.6g} "
                         f"min={m['min']:.6g} max={m['max']:.6g} n={m['n']}")
            lines.append(line)
        for metric, m in entry.get("per_layer", {}).items():
            lines.append(f"  {metric:<34} {m['value']:>14.6g} {m['unit']}")
        for problem in entry["problems"]:
            lines.append(f"  FAIL {problem}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="run this workload only and end with the "
                             "driver's one-line JSON result")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="timed repetitions per workload continue "
                             "while they fit in this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0 = end-to-end metrics only (timed "
                             "repetitions), 1 = per-layer metrics only (one "
                             "timed and one traced repetition); default both")
    parser.add_argument("--out", help="also write the ledger as JSON here")
    args = parser.parse_args(argv)

    if args.workload and args.trace is None:
        parser.error("--workload needs --trace 0 or --trace 1")
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    tracing = args.trace == 1
    payload = run_ledger(names, args.seed, args.seconds,
                         timed=args.trace != 1, traced=args.trace != 0)
    print(format_report(payload))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
    correct = all(e["correct"] for e in payload["workloads"].values())
    if args.workload:
        entry = payload["workloads"][args.workload]
        metrics = entry["per_layer" if tracing else "end_to_end"]
        print(json.dumps({
            "correct": correct, "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                        for k, m in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
