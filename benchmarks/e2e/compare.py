"""Apply BENCHMARK.json's bounds to two ledger files.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the baseline, ``B`` the candidate; both were written by
``run.py --out``.  One row per (workload, end-to-end metric):

* ``worse``      B's median is worse than A's by more than the bound;
* ``better``     B's median is better than A's by more than the bound;
* ``same``       neither;
* ``unresolved`` the quartile spread of either side is wider than the
  bound, so the two medians cannot be told apart at that resolution.

Also says whether the simulated statistics and counts of the two files
are equal, which a change meant only to speed up the simulator must keep.
Exits non-zero on any ``worse`` row or on more failed operations in B.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


def load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def relative_spread(metric: Dict[str, float]) -> float:
    """Distance between the quartiles as a share of the median; 0 for a
    simulated statistic, which has one exact value."""
    if "q1" not in metric or not metric["value"]:
        return 0.0
    return (metric["q3"] - metric["q1"]) / abs(metric["value"])


def verdict(a: Dict[str, float], b: Dict[str, float], better: str,
            bound: float) -> Tuple[str, float]:
    """``(verdict, change)``; ``change`` is B's worsening as a share of
    A's median (negative = improvement)."""
    base = a["value"]
    change = (b["value"] - base) / abs(base) if base else 0.0
    if better == "higher":
        change = -change
    if max(relative_spread(a), relative_spread(b)) > bound:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def compare(a: Dict[str, Any], b: Dict[str, Any],
            spec: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Report lines, and whether B is acceptable against A."""
    lines = [f"{'workload':<24} {'metric':<20} {'A':>12} {'B':>12} "
             f"{'worse by':>8} {'bound':>6}  verdict"]
    acceptable = True
    for workload in (w["name"] for w in spec["workloads"]):
        ea = a["workloads"].get(workload)
        eb = b["workloads"].get(workload)
        if ea is None or eb is None:
            lines.append(f"{workload:<24} missing from "
                         f"{'A' if ea is None else 'B'}")
            acceptable = False
            continue
        for m in spec["end_to_end"]:
            ma = ea["end_to_end"][m["name"]]
            mb = eb["end_to_end"][m["name"]]
            word, change = verdict(ma, mb, m["better"], m["bound"])
            acceptable = acceptable and word != "worse"
            lines.append(
                f"{workload:<24} {m['name']:<20} {ma['value']:>12.5g} "
                f"{mb['value']:>12.5g} {change:>+8.1%} {m['bound']:>6.0%}  "
                f"{word}")
        if eb["failed"] > ea["failed"] or not eb["correct"]:
            acceptable = False
            lines.append(f"{workload:<24} failed operations {ea['failed']} "
                         f"-> {eb['failed']}, correct={eb['correct']}  worse")
        if a.get("seed") == b.get("seed") and a.get("scale") == b.get("scale"):
            equal = ea["simulated"] == eb["simulated"]
            lines.append(f"{workload:<24} simulated statistics and counts: "
                         f"{'identical' if equal else 'DIFFERENT'}")
    return lines, acceptable


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = load(str(ROOT / "BENCHMARK.json"))
    lines, acceptable = compare(load(args[0]), load(args[1]), spec)
    print("\n".join(lines))
    return 0 if acceptable else 1


if __name__ == "__main__":
    sys.exit(main())
