"""Perf micro-benchmark suite (`repro bench`), exercised at CI scale.

Each benchmark runs the same workload against the preserved seed
implementation (``repro.harness.seed_reference``) and the current hot
paths (see ``repro.harness.perf``).
Correctness equivalences (identical delivered/committed counts, identical
determinism) are asserted strictly; wall-clock speedups are asserted with a
wide margin below the typical measured ratios (~3x event churn, ~1.8x
message storm, ~2x broadcast) so a loaded CI host does not flake.

Run ``python -m repro bench`` for the full-size suite and the
``BENCH_perf.json`` perf-trajectory artifact.
"""

import pytest

from repro.harness.perf import (
    bench_authenticated_broadcast,
    bench_broadcast_storm,
    bench_digest_cache,
    bench_event_churn,
    bench_heap_churn_1m,
    bench_message_storm,
    bench_xpaxos_closed_loop,
    format_suite,
    run_suite,
    unregistered_benchmarks,
)


def test_event_churn_speedup(benchmark):
    result = benchmark.pedantic(
        lambda: bench_event_churn(50_000, repeat=2),
        rounds=1, iterations=1)
    assert result["results_match"]
    # Typical ratio ~4x; the floor only catches a true regression where
    # the current loop is no faster than the seed loop.
    assert result["speedup"] > 1.5


def test_message_storm_speedup(benchmark):
    result = benchmark.pedantic(
        lambda: bench_message_storm(30_000, repeat=2),
        rounds=1, iterations=1)
    # Same RNG draw order: the optimized fabric delivers the exact same
    # messages as the seed fabric.
    assert result["results_match"]
    # Typical ratio ~1.8x; loose floor to stay robust on loaded CI hosts.
    assert result["speedup"] > 1.05


def test_broadcast_storm_speedup(benchmark):
    result = benchmark.pedantic(
        lambda: bench_broadcast_storm(4_000, repeat=2),
        rounds=1, iterations=1)
    assert result["results_match"]
    # Typical ratio ~2x; loose floor to stay robust on loaded CI hosts.
    assert result["speedup"] > 1.05


def test_digest_cache_speedup(benchmark):
    result = benchmark.pedantic(
        lambda: bench_digest_cache(count=600, repeat=2),
        rounds=1, iterations=1)
    # Byte-identical digest streams: the cache may only change when
    # hashing happens, never what is hashed.
    assert result["results_match"]
    # Typical ratio ~8x (1 compute + 8 hits vs 9 computes); loose floor.
    assert result["speedup"] > 2.0


def test_authenticated_broadcast_speedup(benchmark):
    result = benchmark.pedantic(
        lambda: bench_authenticated_broadcast(1_500, repeat=2),
        rounds=1, iterations=1)
    # Every delivery's MAC verified on both fabrics, same counts: the
    # transport-stamped MAC vector is observationally identical to the
    # payload-embedded encoding.
    assert result["results_match"]
    assert result["result"]["verified"] == result["result"]["delivered"]
    # Typical ratio ~1.5x (one payload digest per fan-out instead of
    # eight, plus the multicast path); loose floor for loaded CI hosts.
    assert result["speedup"] > 1.05


def test_heap_churn_speedup(benchmark):
    result = benchmark.pedantic(
        lambda: bench_heap_churn_1m(backlog=100_000, churn=10_000,
                                    repeat=2),
        rounds=1, iterations=1)
    # Executed/pending counts must agree exactly: the entry arena and
    # compaction policy change allocation, never the schedule.
    assert result["results_match"]
    assert result["speedup"] > 1.05


def test_closed_loop_xpaxos_deterministic(benchmark):
    result = benchmark.pedantic(
        lambda: bench_xpaxos_closed_loop(num_clients=8,
                                         duration_ms=1_000.0),
        rounds=1, iterations=1)
    assert result["deterministic"]
    assert result["committed"] > 0


def test_suite_payload_shape():
    payload = run_suite(events=2_000, messages=1_000, broadcast_rounds=100,
                        clients=2, duration_ms=400.0, repeat=1,
                        heap_backlog=20_000, heap_churn=2_000)
    assert set(payload["benchmarks"]) == {
        "event_churn", "heap_churn_1m",
        "message_storm", "broadcast_storm",
        "authenticated_broadcast", "digest_cache", "xpaxos_closed_loop",
        "pipelined_throughput", "cohort_driver"}
    assert payload["params"]["only"] is None
    for key in ("heap_backlog", "heap_churn"):
        assert key in payload["params"]
    # Host facts for gate-trip triage ride every payload (docs/ci.md).
    assert "nproc" in payload["host"]
    assert "loadavg" in payload["host"]
    assert "cpu_model" in payload["host"]
    text = format_suite(payload)
    assert "event_churn" in text and "speedup" in text


def test_suite_only_subset():
    payload = run_suite(events=2_000, messages=1_000, broadcast_rounds=100,
                        clients=2, duration_ms=400.0, repeat=1,
                        heap_backlog=20_000, heap_churn=2_000,
                        only=["message_storm", "event_churn"])
    # Registry order is preserved regardless of the order given.
    assert list(payload["benchmarks"]) == ["event_churn", "message_storm"]
    assert payload["params"]["only"] == ["event_churn", "message_storm"]


def test_suite_only_unknown_name():
    with pytest.raises(ValueError, match="unknown benchmark"):
        run_suite(events=100, messages=100, broadcast_rounds=10,
                  clients=2, duration_ms=100.0, repeat=1,
                  only=["not_a_benchmark"])


def test_every_bench_function_registered():
    # The lint stage runs the same check; keeping it in the suite makes
    # the failure local to the PR that adds a stray bench_* function.
    assert unregistered_benchmarks() == []
