"""First-class profiling for the hot paths (``repro profile``).

Two complementary views of where time goes:

* **cProfile/pstats** -- wall-clock attribution by function, for finding
  the next thing to optimize.  The caller runs the cell under a
  ``cProfile.Profile``, whose ``dump_stats(path)`` writes a ``.pstats``
  file (loadable with ``python -m pstats`` or snakeviz).
* **Subsystem counters** -- the simulator's and network's own hot-loop
  counters (heap ops, cancellations, compactions, arena hit-rate,
  drops, MAC stamps/verifies), collected for free as the run executes,
  and the sizes of what the replicas still hold when it ends, all read
  from the runtime the run returns.  ``docs/profiling.md`` explains how
  to read them.

The two disagree on purpose: cProfile says where *wall time* went under
instrumentation overhead; the counters say what the hot loops *did*.
Regressions usually show in the counters first (events per commit
climb, arena hit-rate collapses) before they are big enough to see in a
profile.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from dataclasses import asdict, is_dataclass
from typing import Any, Dict, Optional

from repro.crypto.primitives import digest_cache_stats


def subsystem_counters(runtime: Any,
                       digests_before: Optional[Dict[str, int]] = None,
                       ) -> Dict[str, Dict[str, Any]]:
    """Collect the per-subsystem hot-loop counters of one run.

    ``runtime`` is the :class:`repro.smr.runtime.ClusterRuntime` a run
    returned: its simulator's ``stats()`` dict is taken as-is, its
    network's ``stats`` dataclass is flattened, and its replicas'
    ``retained()`` sizes are reported as the largest over all of them
    (``[state]``).  ``digests_before`` is ``digest_cache_stats()`` taken
    when the run started: the digest counters are then the run's own.
    """
    stats = runtime.network.stats
    # What a replica holds on to at the end of the run: the worst
    # replica per structure, so one that never truncates shows.
    state: Dict[str, int] = {}
    for replica in runtime.replicas:
        for key, size in replica.retained().items():
            state[key] = max(state.get(key, 0), size)
    out: Dict[str, Dict[str, Any]] = {
        "sim": runtime.sim.stats(),
        "network": (asdict(stats) if is_dataclass(stats)
                    else dict(vars(stats))),
        "state": state,
    }
    # Digest-cache counters are process-global (the cache lives on the
    # message instances, not on a sim or network), so they are always
    # reported; probes = every digest_of() call since ``digests_before``
    # (else in the process), per_commit = probes per client commit.
    cache = dict(digest_cache_stats())
    for key, count in (digests_before or {}).items():
        cache[key] -= count
    probes = cache["hits"] + cache["stores"] + cache["uncached"]
    cache["hit_rate"] = cache["hits"] / probes if probes else 0.0
    commits = sum(len(client.completions) for client in runtime.clients)
    cache["per_commit"] = probes / commits if commits else 0.0
    out["digest_cache"] = cache
    return out


def format_subsystems(counters: Dict[str, Dict[str, Any]]) -> str:
    """Render :func:`subsystem_counters` output as an aligned table."""
    lines = []
    for subsystem, values in counters.items():
        lines.append(f"[{subsystem}]")
        width = max((len(k) for k in values), default=0)
        for key, value in values.items():
            if isinstance(value, float):
                rendered = f"{value:.4f}" if 0 < abs(value) < 1_000 \
                    else f"{value:.1f}"
            else:
                rendered = str(value)
            lines.append(f"  {key:<{width}}  {rendered}")
    return "\n".join(lines)


def profile_report(profiler: cProfile.Profile, runtime: Any,
                   sort: str = "cumulative", limit: int = 25,
                   digests_before: Optional[Dict[str, int]] = None) -> str:
    """The report ``repro profile`` prints: the run's subsystem counters
    first (what the hot loops did), then the top ``limit`` rows of the
    wall-clock profile sorted by ``sort``, any pstats key (where the
    time went)."""
    stream = io.StringIO()
    pstats.Stats(profiler, stream=stream).sort_stats(sort).print_stats(limit)
    counters = subsystem_counters(runtime, digests_before)
    return (format_subsystems(counters) + "\n\n"
            + stream.getvalue().rstrip())
