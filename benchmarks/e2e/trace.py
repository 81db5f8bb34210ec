"""Layer budget of a traced repetition, measured from outside.

The stdlib profiler (``cProfile``) is enabled by ``workloads.run_cell``
around each ``driver.run()``; nothing in ``src/`` is edited or patched.
Every call into a function defined under ``src/repro/<layer>/`` is a span
owned by that layer, and the layer's self time is the profiler's
``tottime`` (callees already excluded).  Frames that belong to no layer
-- C builtins (``hashlib``, ``heapq``, ``random``), stdlib Python
(``hmac``, ``enum``) and the ``<string>`` bodies of generated dataclass
methods -- are charged to the layer that called them, through the
profiler's callers table.  Rows therefore sum to the profile's total.

Caveat: cProfile charges a fixed cost per call and none inside C code, so
it slows the run 3-5x and inflates layers made of many small calls.  Use
the rows for shares and for call counts; host seconds come from the
untraced repetitions only.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Any, Dict, Tuple

Func = Tuple[str, int, str]

#: Packages under ``src/repro/`` that are layers of their own; everything
#: else in the package (harness, scenarios, common, reliability, ...) and
#: the benchmark's own frames are the ``harness`` row.
LAYER_PACKAGES = ("sim", "net", "crypto", "smr", "workloads", "faults")
PROTOCOLS = ("xpaxos", "paxos", "pbft", "zyzzyva", "zab")
LAYERS = (("sim", "net", "crypto")
          + tuple(f"protocols.{p}" for p in ("base",) + PROTOCOLS)
          + ("smr", "workloads", "faults", "harness", "other"))

_REPRO = os.sep + os.path.join("src", "repro") + os.sep
_BENCH = os.sep + os.path.join("benchmarks", "e2e") + os.sep

#: Public entry points whose call counts the ledger reports:
#: ``metric -> (path suffix, function names)``.
ENTRY_POINTS = {
    "crypto.sign_calls": ("crypto/primitives.py", ("sign", "sign_digest")),
    # ``verify`` itself delegates to ``verify_digest``: count that once.
    "crypto.verify_calls": ("crypto/primitives.py", ("verify_digest",)),
    "net.send_calls": ("net/network.py",
                       ("send", "multicast", "send_authenticated",
                        "multicast_authenticated")),
    "faults.checker_observes": ("faults/checker.py", ("observe",)),
}


def layer_of(filename: str) -> str:
    """The layer owning code in ``filename``; '' if it belongs to none
    (builtin, stdlib, generated) and is charged to its callers."""
    at = filename.find(_REPRO)
    if at < 0:
        return "harness" if _BENCH in filename else ""
    parts = filename[at + len(_REPRO):].split(os.sep)
    if parts[0] == "protocols":
        sub = parts[1] if len(parts) > 2 else "base"
        return f"protocols.{sub if sub in PROTOCOLS else 'base'}"
    return parts[0] if parts[0] in LAYER_PACKAGES else "harness"


def _is_hash(func: Func) -> bool:
    """A hashlib/hmac C call: the SHA floor under the crypto layer."""
    return func[0] == "~" and ("_hashlib" in func[2] or "sha256" in func[2]
                               or "hmac" in func[2].lower())


def layer_report(profiler: cProfile.Profile) -> Dict[str, Any]:
    """Self seconds per layer, the hash floor, and entry-point counts."""
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    memo: Dict[Func, Dict[str, float]] = {}

    def owners(func: Func) -> Dict[str, float]:
        """The layers ``func`` works for, as shares summing to 1.  An
        ownerless function inherits its callers' owners, weighted by the
        cumulative time each caller spent in it."""
        owner = layer_of(func[0])
        if owner:
            return {owner: 1.0}
        if func not in memo:
            memo[func] = {"other": 1.0}  # roots, and the guard for cycles
            callers = stats[func][4] if func in stats else {}
            total = sum(edge[3] for edge in callers.values())
            if total > 0:
                out: Dict[str, float] = {}
                for caller, edge in callers.items():
                    for layer, share in owners(caller).items():
                        out[layer] = (out.get(layer, 0.0)
                                      + share * edge[3] / total)
                memo[func] = out
        return memo[func]

    rows = {layer: 0.0 for layer in LAYERS}
    hash_s = 0.0
    handler_calls = 0
    counts = {name: 0 for name in ENTRY_POINTS}
    for func, (_, ncalls, tottime, _, callers) in stats.items():
        owner = layer_of(func[0])
        # An ownerless function's self time is split by direct caller
        # (each edge records exactly that share) before owners resolve.
        edge_total = sum(edge[2] for edge in callers.values())
        if owner:
            rows[owner] += tottime
        elif edge_total <= 0:
            rows["other"] += tottime
        else:
            for caller, edge in callers.items():
                for layer, share in owners(caller).items():
                    rows[layer] += tottime * share * edge[2] / edge_total
        if _is_hash(func):
            hash_s += tottime
        if owner.startswith("protocols.") and func[2] == "on_message":
            handler_calls += ncalls
        path = func[0].replace(os.sep, "/")
        for name, (suffix, names) in ENTRY_POINTS.items():
            if path.endswith("repro/" + suffix) and func[2] in names:
                counts[name] += ncalls
    total = sum(entry[2] for entry in stats.values())
    report: Dict[str, Any] = {f"{layer}.self_s": value
                              for layer, value in rows.items()}
    report["crypto.hash_self_s"] = hash_s
    report["protocols.handler_calls"] = handler_calls
    report.update(counts)
    report["trace.total_s"] = total
    report["trace.sum_frac"] = sum(rows.values()) / total if total else 0.0
    return report
