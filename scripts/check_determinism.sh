#!/usr/bin/env bash
# Guard the campaign determinism contract: a smoke campaign run serially
# and a run with many worker threads must produce byte-identical JSON
# reports (results are aggregated by grid index, never completion order).
#
# Usage: scripts/check_determinism.sh [path/to/mondrian_campaign]
set -euo pipefail
shopt -s inherit_errexit
trap 'echo "error: ${BASH_SOURCE[0]}:${LINENO}: command failed" >&2' ERR

CAMPAIGN_BIN="${1:-build/mondrian_campaign}"
if [[ ! -x "$CAMPAIGN_BIN" ]]; then
    echo "error: $CAMPAIGN_BIN not found or not executable" >&2
    echo "build first: cmake -B build -S . && cmake --build build -j" >&2
    exit 2
fi

# The EXIT trap covers normal termination and set -e failures; INT/TERM
# are listed so an interrupted run still scrubs its tempdir.
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT INT TERM

echo "== smoke campaign, serial (--jobs 1)"
"$CAMPAIGN_BIN" --smoke --jobs 1 --quiet --out "$workdir/serial.json"

echo "== smoke campaign, parallel (--jobs 8)"
"$CAMPAIGN_BIN" --smoke --jobs 8 --quiet --out "$workdir/parallel.json"

echo "== same grid + seed, repeated serially (run-to-run determinism)"
"$CAMPAIGN_BIN" --smoke --jobs 1 --quiet --out "$workdir/serial2.json"

if ! cmp "$workdir/serial.json" "$workdir/parallel.json"; then
    echo "FAIL: --jobs 8 report differs from --jobs 1" >&2
    diff "$workdir/serial.json" "$workdir/parallel.json" | head -40 >&2 || true
    exit 1
fi

if ! cmp "$workdir/serial.json" "$workdir/serial2.json"; then
    echo "FAIL: repeated serial runs differ (nondeterministic simulation)" >&2
    diff "$workdir/serial.json" "$workdir/serial2.json" | head -40 >&2 || true
    exit 1
fi

echo "OK: reports are byte-identical across thread counts and reruns"

# --- Geometry-sweep determinism + cross-axis resume splicing ---------------
# The design-space axes (geometry, exec-ablation, zipf) must honor the same
# contract: identical bytes for any --jobs, and a partial sweep resumed into
# a larger one must splice cached points byte-identically.
SWEEP=(--systems cpu,mondrian --ops join --log2-tuples 10
       --geometry 4x8,4x16,4x32 --quiet)

echo "== geometry sweep (vaults/cube 8/16/32), serial"
"$CAMPAIGN_BIN" "${SWEEP[@]}" --jobs 1 --out "$workdir/geo_serial.json"

echo "== geometry sweep, parallel (--jobs 8)"
"$CAMPAIGN_BIN" "${SWEEP[@]}" --jobs 8 --out "$workdir/geo_parallel.json"

if ! cmp "$workdir/geo_serial.json" "$workdir/geo_parallel.json"; then
    echo "FAIL: geometry sweep differs across --jobs" >&2
    diff "$workdir/geo_serial.json" "$workdir/geo_parallel.json" | head -40 >&2 || true
    exit 1
fi

echo "== partial sweep (one geometry), then --resume into the full sweep"
"$CAMPAIGN_BIN" --systems cpu,mondrian --ops join --log2-tuples 10 \
    --geometry 4x8 --quiet --jobs 1 --out "$workdir/geo_partial.json"
"$CAMPAIGN_BIN" "${SWEEP[@]}" --jobs 8 --resume "$workdir/geo_partial.json" \
    --out "$workdir/geo_resumed.json"

# The spliced runs subtree must be byte-identical to the fresh sweep's.
extract_runs() {
    sed -n '/^  "runs": \[$/,/^  \],$/p' "$1"
}
# Guard against a vacuous pass: if the sed anchors ever stop matching the
# writer's formatting, fail loudly instead of comparing empty streams.
for f in geo_serial geo_resumed; do
    if [[ -z "$(extract_runs "$workdir/$f.json")" ]]; then
        echo "FAIL: could not extract the runs section from $f.json" >&2
        echo "      (did the report formatting change?)" >&2
        exit 1
    fi
done
if ! cmp <(extract_runs "$workdir/geo_serial.json") \
         <(extract_runs "$workdir/geo_resumed.json"); then
    echo "FAIL: resumed sweep's runs differ from a fresh sweep" >&2
    diff <(extract_runs "$workdir/geo_serial.json") \
         <(extract_runs "$workdir/geo_resumed.json") | head -40 >&2 || true
    exit 1
fi

echo "OK: geometry sweep deterministic; cross-axis resume splices byte-identically"

# --- Scenario-pipeline determinism + self-diff --------------------------
# Multi-stage scenarios (per-stage sub-results, intermediate relations
# flowing stage-to-stage) must honor the same contract: byte-
# identical reports for any --jobs, and an analysis self-diff that is
# empty.
REPORT_BIN="$(dirname "$CAMPAIGN_BIN")/mondrian_report"
SCEN=(--systems cpu,mondrian --scenario sessions --log2-tuples 10 --quiet)

echo "== sessions scenario (pipeline), serial"
"$CAMPAIGN_BIN" "${SCEN[@]}" --jobs 1 --out "$workdir/scen_serial.json"

echo "== sessions scenario, parallel (--jobs 8)"
"$CAMPAIGN_BIN" "${SCEN[@]}" --jobs 8 --out "$workdir/scen_parallel.json"

if ! cmp "$workdir/scen_serial.json" "$workdir/scen_parallel.json"; then
    echo "FAIL: scenario campaign differs across --jobs" >&2
    diff "$workdir/scen_serial.json" "$workdir/scen_parallel.json" | head -40 >&2 || true
    exit 1
fi

if [[ -x "$REPORT_BIN" ]]; then
    echo "== scenario report self-diff + per-stage rendering"
    if ! "$REPORT_BIN" diff "$workdir/scen_serial.json" \
            "$workdir/scen_parallel.json" --rtol 1e-6; then
        echo "FAIL: scenario report self-diff is not empty" >&2
        exit 1
    fi
    # The summary must carry the per-stage breakdown and the stage CSV
    # must have one row per (run, stage): 2 runs x 4 stages + header.
    "$REPORT_BIN" summary "$workdir/scen_serial.json" | grep -q "### Stages" || {
        echo "FAIL: scenario summary lacks the per-stage breakdown" >&2
        exit 1
    }
    stage_rows=$("$REPORT_BIN" csv "$workdir/scen_serial.json" --stages | wc -l)
    if [[ "$stage_rows" -ne 9 ]]; then
        echo "FAIL: expected 9 stage-CSV lines, got $stage_rows" >&2
        exit 1
    fi
else
    echo "note: $REPORT_BIN not found, skipping scenario self-diff" >&2
fi

echo "OK: scenario pipelines deterministic; per-stage analysis renders"

# --- Served-traffic determinism + degenerate-traffic oracle ---------------
# Open-loop served runs (many queries in flight on one simulated
# machine) must honor the same contract: byte-identical
# reports for any --jobs. And the degenerate spec '--traffic none' must
# leave the report byte-identical to a plain single-query campaign —
# the correctness oracle showing the traffic layer adds nothing when
# it is not asked for.
SERVED=(--systems cpu,mondrian --scenario sessions --log2-tuples 10
        --traffic poisson,lambda=2000,queries=8 --quiet)

echo "== served sessions campaign (poisson lambda=2000), serial"
"$CAMPAIGN_BIN" "${SERVED[@]}" --jobs 1 --out "$workdir/served_serial.json"

echo "== served sessions campaign, parallel (--jobs 8)"
"$CAMPAIGN_BIN" "${SERVED[@]}" --jobs 8 --out "$workdir/served_parallel.json"

if ! cmp "$workdir/served_serial.json" "$workdir/served_parallel.json"; then
    echo "FAIL: served campaign differs across --jobs" >&2
    diff "$workdir/served_serial.json" "$workdir/served_parallel.json" | head -40 >&2 || true
    exit 1
fi

echo "== '--traffic none' vs no --traffic at all (degenerate oracle)"
"$CAMPAIGN_BIN" "${SCEN[@]}" --traffic none --jobs 1 \
    --out "$workdir/scen_none.json"
if ! cmp "$workdir/scen_serial.json" "$workdir/scen_none.json"; then
    echo "FAIL: '--traffic none' report differs from a plain campaign" >&2
    diff "$workdir/scen_serial.json" "$workdir/scen_none.json" | head -40 >&2 || true
    exit 1
fi

if [[ -x "$REPORT_BIN" ]]; then
    echo "== served report self-diff + served-traffic rendering"
    if ! "$REPORT_BIN" diff "$workdir/served_serial.json" \
            "$workdir/served_parallel.json" --rtol 1e-6; then
        echo "FAIL: served report self-diff is not empty" >&2
        exit 1
    fi
    "$REPORT_BIN" summary "$workdir/served_serial.json" \
            | grep -q "### Served traffic" || {
        echo "FAIL: served summary lacks the served-traffic table" >&2
        exit 1
    }
else
    echo "note: $REPORT_BIN not found, skipping served self-diff" >&2
fi

echo "OK: served traffic deterministic; degenerate traffic is byte-identical"

# --- Distributed chaos oracle ---------------------------------------------
# The worker-sharded coordinator (--workers N) must honor the same
# contract even while workers are crashing, hanging and corrupting
# results mid-campaign: faults hit the first attempt of a job, the
# retry/reassignment machinery recovers, and the merged report is
# byte-identical to the in-process run (docs/distributed.md).
CHAOS=(--systems cpu,mondrian --ops scan,sort,groupby,join
       --log2-tuples 10 --quiet)

echo "== chaos grid, in-process (--jobs 4)"
"$CAMPAIGN_BIN" "${CHAOS[@]}" --jobs 4 --out "$workdir/chaos_inproc.json"

echo "== chaos grid, distributed (--workers 4) with injected faults"
"$CAMPAIGN_BIN" "${CHAOS[@]}" --workers 4 --heartbeat-timeout 1 \
    --fault-inject crash@0,hang@3,corrupt@5 \
    --out "$workdir/chaos_workers.json"

if ! cmp "$workdir/chaos_inproc.json" "$workdir/chaos_workers.json"; then
    echo "FAIL: chaos --workers report differs from --jobs" >&2
    diff "$workdir/chaos_inproc.json" "$workdir/chaos_workers.json" | head -40 >&2 || true
    exit 1
fi

if [[ -x "$REPORT_BIN" ]]; then
    if ! "$REPORT_BIN" diff "$workdir/chaos_inproc.json" \
            "$workdir/chaos_workers.json" --rtol 1e-6; then
        echo "FAIL: chaos report self-diff is not empty" >&2
        exit 1
    fi
fi

echo "== journal replay: a journaled campaign reruns from its journal"
"$CAMPAIGN_BIN" "${CHAOS[@]}" --workers 2 --journal "$workdir/chaos.ndjson" \
    --out "$workdir/chaos_journaled.json"
# Second invocation: every run comes from the journal, none re-simulate.
"$CAMPAIGN_BIN" "${CHAOS[@]}" --workers 2 --journal "$workdir/chaos.ndjson" \
    --out "$workdir/chaos_replayed.json" 2> "$workdir/replay.log"
if ! cmp "$workdir/chaos_inproc.json" "$workdir/chaos_journaled.json" ||
   ! cmp "$workdir/chaos_inproc.json" "$workdir/chaos_replayed.json"; then
    echo "FAIL: journaled/replayed reports differ from the in-process run" >&2
    exit 1
fi
grep -q "8 of 8 grid points reused" "$workdir/replay.log" || {
    echo "FAIL: journal replay re-simulated grid points" >&2
    cat "$workdir/replay.log" >&2
    exit 1
}

echo "OK: distributed chaos recovers byte-identically; journal replay resumes"
