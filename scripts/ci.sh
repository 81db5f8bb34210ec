#!/usr/bin/env bash
# CI pipeline, split into named stages so jobs (and humans) can run them
# independently:
#
#   scripts/ci.sh                # the per-push stages: lint tier1 scenarios
#   scripts/ci.sh scenarios      # just the scenario stage
#   scripts/ci.sh lint tier1     # any subset, in the given order
#
# Stages
# ------
# lint       byte-compiles every Python tree (and runs pyflakes when the
#            host has it) -- catches syntax/undefined-name rot cheaply --
#            then runs `repro lint`, the AST linter (src/repro/analysis/;
#            docs/static-analysis.md): the D/A/S/P rule families over
#            src+tests+benchmarks+examples, failing on any finding and
#            writing lint_report.json (findings, suppressed; no baseline)
#            for the CI artifact.
# tier1      the full unit + figure-regeneration suite (the repo's
#            correctness gate; see ROADMAP.md), after timing one fresh
#            `import repro.harness.runner` (the "imports" entry of
#            ci_stage_times.json), with pytest's 25 slowest
#            tests printed at the end so the stage log says where the
#            seconds in ci_stage_times.json went, and a budget written to
#            ci_tier1_durations.json from pytest's JUnit XML: seconds per
#            test directory plus the session's time outside any test,
#            rows summing to the session's total.
# scenarios  a conformance-matrix slice through the CLI path (run with
#            --jobs $(nproc); the merged JSON is byte-identical to a
#            sequential run), diffed against the committed
#            SCENARIO_smoke.json golden.
# matrix     the FULL (protocol x scenario) conformance matrix -- every
#            known scenario against every protocol, --jobs $(nproc) --
#            diffed against the committed SCENARIO_matrix.json golden.
#            Too slow for every push; run nightly
#            (.github/workflows/nightly.yml) and on demand.
# e2e        the end-to-end perf ledger (benchmarks/e2e/README.md): four
#            real-cell workloads, host cost + simulated service + a
#            per-layer budget, written to e2e_ledger.json and compared
#            against the committed PR 13 baseline with BENCHMARK.json's
#            bounds.  Fails on a correctness miss, a `worse` row, or
#            more failed operations than the baseline.  ~3 min of
#            repetitions in child processes, so nightly-only, beside
#            `matrix`.  The only judge of speed in this repository.
#
# The GitHub Actions workflows (.github/workflows/ci.yml, nightly.yml)
# run the stages as separate jobs and upload SCENARIO_smoke.json,
# SCENARIO_matrix.json and e2e_ledger.json as artifacts.  When the
# script exits -- after the last stage or at the first failing one --
# the per-stage wall clock is printed, appended to GITHUB_STEP_SUMMARY
# when that is set, and written to ci_stage_times.json
# ({"commit": ..., "stages": {stage: seconds}}, plus "failed": stage
# and that stage's partial time when one failed), which every workflow
# job uploads -- the archive of what tier-1 and the full matrix cost
# per CI run.
#
# Host serialization: the e2e stage reports *host seconds*, so it must
# never share the host with a --jobs matrix run -- worker processes
# competing for cores inflate them (docs/parallelism.md).  Within one
# ci.sh invocation the stages already run strictly in order; the flock
# below additionally serializes e2e against any *concurrent* ci.sh
# running a scenario stage on the same host.

set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

CI_LOCK="${REPRO_CI_LOCK:-${TMPDIR:-/tmp}/repro-ci-host.lock}"

# Take the host-wide CI lock for the duration of the calling subshell
# (no-op when util-linux flock is unavailable).
acquire_host_lock() {
    if command -v flock >/dev/null 2>&1; then
        exec 9>>"$CI_LOCK"
        flock 9
    fi
}

stage_lint() {
    echo "== lint: byte-compile + optional pyflakes =="
    python -m compileall -q src tests benchmarks examples
    if python -c "import pyflakes" 2>/dev/null; then
        python -m pyflakes src tests benchmarks examples
    else
        echo "pyflakes not installed; byte-compile only"
    fi
    # The AST linter: module-level RNG draws, wall-clock reads,
    # hash-ordered set iteration, unregistered wire messages, simulator
    # hygiene, and the one-path rules -- single doors, line budgets,
    # code no entry point reaches (docs/static-analysis.md).  Fails on
    # any finding not suppressed inline; there is no baseline, so
    # lint_report.json has no baselined / stale_baseline keys.  The JSON
    # report is uploaded as a CI artifact.
    echo "== lint: determinism, safety & structure linter (repro lint) =="
    python -m repro lint src tests benchmarks examples --json lint_report.json
}

stage_tier1() {
    echo "== tier1: unit + figure-regeneration tests =="
    # Start-up creep: how many repro modules one fresh interpreter loads
    # to import the runner, and the seconds that process takes; written
    # to ci_stage_times.json as "imports" (docs/ci.md).
    IMPORTS=$(python - <<'EOF'
import json, subprocess, sys, time

child = ("import sys, repro.harness.runner; "
         "print(sum(m.startswith('repro') for m in sys.modules))")
start = time.perf_counter()
modules = subprocess.run([sys.executable, "-c", child], check=True,
                         capture_output=True, text=True).stdout
print(json.dumps({"modules": int(modules),
                  "seconds": round(time.perf_counter() - start, 3)}))
EOF
)
    echo "imports: $IMPORTS"
    local status=0
    python -m pytest -x -q --durations=25 \
        --junitxml=ci_tier1_junit.xml || status=$?
    # Written for a failing run too: the tests that ran before the first
    # failure are where its seconds went.
    python - <<'EOF' || true
import json
import xml.etree.ElementTree as ET

suite = ET.parse("ci_tier1_junit.xml").getroot().find("testsuite")
rows = {}
for case in suite.iter("testcase"):
    # The dotted module path, then any test class:
    # tests.scenarios.test_matrix.TestConformanceMatrix -> tests/scenarios
    parts = case.get("classname", "").split(".")
    module = next((i for i, p in enumerate(parts) if p.startswith("test_")),
                  len(parts))
    directory = "/".join(parts[:module]) or "."
    rows[directory] = rows.get(directory, 0.0) + float(case.get("time"))
# Collection and the session's own setup and teardown: what makes the
# rows add up to the session.
rows["(outside tests)"] = float(suite.get("time")) - sum(rows.values())
dirs = {d: round(s, 3) for d, s in sorted(rows.items())}
budget = {"dirs_s": dirs, "sum_s": round(sum(dirs.values()), 3)}
with open("ci_tier1_durations.json", "w") as fh:
    json.dump(budget, fh, indent=1)
    fh.write("\n")
print("== tier1 budget ==")
for directory, seconds in sorted(dirs.items(), key=lambda row: -row[1]):
    print(f"{seconds:9.1f}s  {directory}")
print(f"{budget['sum_s']:9.1f}s  sum")
EOF
    return "$status"
}

# Subshell body: the host lock (fd 9) releases when the stage exits.
stage_scenarios() (
    acquire_host_lock
    echo "== scenarios: conformance matrix slice =="
    # crash-primary is the failover cell (in scope for all five since the
    # baseline view-change work); crash-primary-t2 exercises the
    # general-path view change on the larger cluster.  The cells fan out
    # over one worker per core; the merged JSON is byte-identical to a
    # --jobs 1 run, so the golden diff below is unaffected.
    python -m repro scenarios --protocol all \
        --jobs "${REPRO_SMOKE_JOBS:-$(nproc)}" \
        --scenario fault-free \
        --scenario fault-free-openloop \
        --scenario crash-primary \
        --scenario crash-primary-t2 \
        --scenario crash-follower \
        --scenario crash-two-followers-t2 \
        --scenario client-primary-partition \
        --scenario byzantine-primary-data-loss \
        --json SCENARIO_smoke.json

    python - <<'EOF'
import json

with open("SCENARIO_smoke.json") as fh:
    payload = json.load(fh)
cells = payload["cells"]
bad = [c for c in cells
       if c["status"] not in ("pass", "expected-violation", "skipped")]
assert not bad, bad
in_scope = [c for c in cells if c["status"] != "skipped"]
assert len(in_scope) >= 20, f"only {len(in_scope)} in-scope cells"
committed = {(c["scenario"], c["protocol"]): c["committed"] for c in cells}
for failover_row in ("crash-primary", "crash-primary-t2"):
    row = [c for c in cells if c["scenario"] == failover_row]
    assert len(row) == 5 and all(c["status"] == "pass" for c in row), row
    # The crash takes the leader away for 15% of the cell.  A protocol
    # that fails over in one detection plus one view change still commits
    # three quarters of its own fault-free count; one that waits for the
    # crashed replica to come back (a rotation that keeps trying groups
    # it leads, acceptors chosen by id, not by who answers) does not.
    for protocol in ("xpaxos", "paxos"):
        share = committed[failover_row, protocol] \
            / committed["fault-free", protocol]
        # Detection of a crashed leader starts with the clients' re-sends,
        # timed on the round trips each client measured (SmrClientBase),
        # not on a fixed 4 Delta: XPaxos 80.4% on crash-primary and 76.8%
        # on crash-primary-t2, Paxos 81.5% on both rows (78.9%, 75.3% and
        # 80.1% with the fixed timer).  Underneath,
        # the XPaxos pair still guards the gather rule (at t = 1 a crashed
        # primary dooms the next view, Table 2), and Paxos phase 1 before
        # phase 2.
        floor = {("crash-primary", "xpaxos"): 0.80,
                 ("crash-primary-t2", "xpaxos"): 0.76}.get(
                     (failover_row, protocol), 0.81)
        assert share >= floor, (failover_row, protocol, share, floor)
# A crashed follower is evidence the survivors of its group hold
# themselves -- a PREPARE whose vote never comes -- so the view is
# suspected one commit bound after the crash (97.2%), not after the
# client's timer and Algorithm 4's on top (94.8%).
share = committed["crash-follower", "xpaxos"] \
    / committed["fault-free", "xpaxos"]
assert share >= 0.96, ("crash-follower", "xpaxos", share)
# At t = 2 the next group may still hold the crashed follower: the
# survivors that saw it silent skip that view (SynchronousGroups) and pay
# one gather (79.9%), not one for the doomed view as well (78.8%).
share = committed["crash-two-followers-t2", "xpaxos"] \
    / committed["fault-free", "xpaxos"]
assert share >= 0.79, ("crash-two-followers-t2", "xpaxos", share)
# The open-loop row drives every protocol with cohort arrivals; all five
# must absorb the offered rate.
open_row = [c for c in cells if c["scenario"] == "fault-free-openloop"]
assert len(open_row) == 5 and all(c["status"] == "pass"
                                  for c in open_row), open_row
print(f"scenario smoke ok: {len(in_scope)} cells pass")
EOF

    # The smoke artifact is a committed golden: any cell-grade or
    # commit-count drift against the checked-in SCENARIO_smoke.json fails
    # the build loudly (refresh the golden deliberately when behaviour
    # changes on purpose).
    if ! git diff --exit-code -- SCENARIO_smoke.json; then
        echo "SCENARIO_smoke.json drifted from the committed golden" >&2
        exit 1
    fi
)

stage_matrix() (
    acquire_host_lock
    echo "== matrix: full (protocol x scenario) conformance matrix =="
    # Every known scenario against every protocol (out-of-scope cells
    # report as skipped).  The cells fan out over one worker per core;
    # the merged JSON is byte-identical to --jobs 1, so the golden diff
    # below is exact.
    python -m repro scenarios --protocol all \
        --jobs "${REPRO_SMOKE_JOBS:-$(nproc)}" \
        --json SCENARIO_matrix.json

    python - <<'EOF'
import json

with open("SCENARIO_matrix.json") as fh:
    payload = json.load(fh)
cells = payload["cells"]
bad = [c for c in cells
       if c["status"] not in ("pass", "expected-violation", "skipped")]
assert not bad, bad
in_scope = [c for c in cells if c["status"] != "skipped"]
assert len(in_scope) >= 60, f"only {len(in_scope)} in-scope cells"
# The anarchy cells are the paper's central caveat: they must stay
# expected-violation (consistency CAN break past the anarchy boundary),
# never silently flip to pass.
anarchy = [c for c in cells if c["scenario"].startswith("anarchy-")
           and c["status"] != "skipped"]
assert anarchy and all(c["status"] == "expected-violation"
                       for c in anarchy), anarchy
print(f"full matrix ok: {len(in_scope)} in-scope cells")
EOF

    # Committed golden: any drift in any cell of the full matrix fails
    # the nightly loudly (refresh deliberately when behaviour changes on
    # purpose).
    if ! git diff --exit-code -- SCENARIO_matrix.json; then
        echo "SCENARIO_matrix.json drifted from the committed golden" >&2
        exit 1
    fi
)

# Subshell body: takes the host lock -- the ledger reports host
# seconds, and a concurrent --jobs matrix run would inflate them.
stage_e2e() (
    acquire_host_lock
    echo "== e2e: end-to-end perf ledger vs the committed baseline =="
    # run.py exits non-zero on any correctness or determinism miss (and
    # still writes the ledger, so the artifact shows what missed).
    python3 benchmarks/e2e/run.py --seed 0 --out e2e_ledger.json
    # compare.py exits non-zero on a `worse` row or on more failed
    # operations than the baseline; `better`/`unresolved` rows pass.
    python3 benchmarks/e2e/compare.py \
        benchmarks/e2e/baseline/pr13-seed0-a.json e2e_ledger.json
)

STAGES=("$@")
if [ ${#STAGES[@]} -eq 0 ]; then
    STAGES=(lint tier1 scenarios)
fi
STAGE_TIMES=()
# Set by the tier1 stage: {"modules": ..., "seconds": ...}.
IMPORTS=""
# The stage running now; still set when the script exits = it failed.
current_stage=""
stage_start=0

# Per-stage wall clock, into the Actions job summary when available (and
# onto stdout always, so local runs see it too).
print_stage_times() {
    echo "| stage | wall clock |"
    echo "| --- | --- |"
    local entry
    for entry in "${STAGE_TIMES[@]}"; do
        echo "| ${entry%% *} | ${entry#* }s |"
    done
    if [ -n "$current_stage" ]; then
        echo "| **failed** | $current_stage |"
    fi
}
# The same numbers as a machine-readable artifact, tagged with the
# commit they were measured on.
write_stage_times() {
    local entry sep=""
    {
        printf '{"commit": "%s", "stages": {' \
            "$(git rev-parse HEAD 2>/dev/null || echo unknown)"
        for entry in "${STAGE_TIMES[@]}"; do
            printf '%s"%s": %s' "$sep" "${entry%% *}" "${entry#* }"
            sep=", "
        done
        printf '}'
        if [ -n "$IMPORTS" ]; then
            printf ', "imports": %s' "$IMPORTS"
        fi
        if [ -n "$current_stage" ]; then
            printf ', "failed": "%s"' "$current_stage"
        fi
        printf '}\n'
    } > ci_stage_times.json
}
# Runs from the EXIT trap, so a failing stage (set -e ends the script
# there) still leaves its timings behind: the run whose numbers matter
# most is the one that broke.  The failed stage is reported with the
# time it ran before failing.
report_stage_times() {
    if [ -n "$current_stage" ]; then
        STAGE_TIMES+=("$current_stage $((SECONDS - stage_start))")
    fi
    echo "== stage wall-clock =="
    print_stage_times
    write_stage_times
    if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
        {
            echo "### ci.sh stage wall-clock"
            echo
            print_stage_times
        } >> "$GITHUB_STEP_SUMMARY"
    fi
}
trap report_stage_times EXIT

for stage in "${STAGES[@]}"; do
    current_stage=$stage
    stage_start=$SECONDS
    case "$stage" in
        lint|tier1|scenarios|matrix|e2e) "stage_$stage" ;;
        *)
            echo "unknown stage '$stage' (known: lint tier1" \
                 "scenarios matrix e2e)" >&2
            exit 2
            ;;
    esac
    STAGE_TIMES+=("$stage $((SECONDS - stage_start))")
    current_stage=""
done
