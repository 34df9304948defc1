#!/usr/bin/env bash
# Diff a campaign report against a committed golden report (the CI
# paper-grid and served-grid regression gates) with mondrian_report — a
# structured, field-by-field comparison of every run and summary row,
# instead of text-scraping the JSON with awk.
#
# Timing is integer-tick deterministic, but energy and the summary
# geomeans go through floating point (exp/log in libm), so the
# comparison uses a relative tolerance (GOLDEN_RTOL, default 1e-6)
# instead of byte equality.
#
# Usage: scripts/check_golden.sh report.json golden-report.json [report-bin]
set -euo pipefail
shopt -s inherit_errexit
trap 'echo "error: ${BASH_SOURCE[0]}:${LINENO}: command failed" >&2' ERR

REPORT="${1:?usage: check_golden.sh report.json golden-report.json [report-bin]}"
GOLDEN="${2:?usage: check_golden.sh report.json golden-report.json [report-bin]}"
REPORT_BIN="${3:-build/mondrian_report}"
RTOL="${GOLDEN_RTOL:-1e-6}"

[[ -f "$REPORT" ]] || { echo "error: report '$REPORT' not found" >&2; exit 2; }
[[ -f "$GOLDEN" ]] || { echo "error: golden '$GOLDEN' not found" >&2; exit 2; }
if [[ ! -x "$REPORT_BIN" ]]; then
    echo "error: $REPORT_BIN not found or not executable" >&2
    echo "build first: cmake -B build -S . && cmake --build build -j" >&2
    exit 2
fi

echo "== summary of $REPORT"
"$REPORT_BIN" summary "$REPORT"

echo "== diff vs $GOLDEN (rtol $RTOL)"
if ! "$REPORT_BIN" diff "$GOLDEN" "$REPORT" --rtol "$RTOL"; then
    echo "FAIL: $REPORT differs from golden $GOLDEN beyond rtol $RTOL" >&2
    exit 1
fi
echo "OK: report matches golden within rtol $RTOL"
