#!/usr/bin/env bash
# Project-invariant lint: mechanical enforcement of the rules the
# byte-identity and perf oracles only catch after the damage is done
# (docs/testing.md has the full rationale for each).
#
#   R2  Every writeRunResult() call in the system layer declares its
#       precision policy: either setPreciseDoubles(true) (IPC frames and
#       resume journal, which must round-trip doubles exactly) or the
#       "report-precision: canonical" marker (the committed 12-digit
#       report format) within the preceding window.
#   R3  No rand()/srand()/atoi()/atof()/atol()/atoll() in src/ tools/
#       bench/ — unseeded RNG and unchecked numeric parsing both break
#       the determinism contract (and let a CI bench run on garbage
#       arguments).
#   R4  Index math masks, never divides: the calendar queue's
#       bucket-count/width power-of-two static_asserts stay in place, and
#       so does the cache constructor's guard that refuses a line size or
#       set count that is not a power of two (its set and line indices are
#       a mask and a shift; without the guard a bad geometry would index
#       past the tag arrays instead of failing).
#   R5  Compile probe: the hot-path TUs are re-checked with
#       -fsyntax-only against the current headers. InlineFunction
#       refuses a capture too large or over-aligned for its inline
#       buffer, so a closure that outgrows its callback type fails here
#       even if the full build is stale.
#   R6  No strto*()/std::sto*() in src/ tools/ examples/ bench/: every
#       number in a flag or spec is read by parseUint/parseReal
#       (src/common/grammar.hh). The C readers skip blanks, take '+',
#       hex floats and inf, and wrap "-1", so a grammar that used one
#       would accept what the others refuse.
#
# Usage: scripts/check_invariants.sh [repo-root]
#        scripts/check_invariants.sh --self-test
#
# --self-test introduces one violation per rule into a scratch copy of
# the tree and asserts the lint catches each (the same negative-testing
# discipline CI applies to check_doc_links.sh).
set -euo pipefail
shopt -s inherit_errexit
trap 'echo "error: ${BASH_SOURCE[0]}:${LINENO}: command failed" >&2' ERR

if [[ "${1:-}" == "--self-test" ]]; then
    SELF_TEST=1
    ROOT="$(cd "$(dirname "$0")/.." && pwd)"
else
    SELF_TEST=0
    ROOT="${1:-.}"
fi
cd "$ROOT"

CXX="${CXX:-g++}"
fail=0

note() { echo "FAIL: $*" >&2; fail=1; }

# Files whose closures land in InlineFunction hot paths.
HOT_FILES=(
    src/system/machine.cc
    src/dram/vault.cc
    src/core/core_model.cc
    src/system/traffic.cc
)

# --------------------------------------------------------------------- R2
# writeRunResult call sites must declare a precision policy nearby.
for f in src/system/campaign.cc src/system/coordinator.cc \
         src/system/report.cc; do
    while IFS=: read -r ln _; do
        start=$((ln > 30 ? ln - 30 : 1))
        if ! sed -n "${start},${ln}p" "$f" |
                grep -qE 'setPreciseDoubles\(true\)|report-precision: canonical'; then
            note "R2 $f:$ln: writeRunResult() without setPreciseDoubles(true)" \
                 "or a 'report-precision: canonical' marker in the" \
                 "preceding 30 lines"
        fi
    done < <(grep -n 'writeRunResult(' "$f" |
             grep -v 'writeRunResult(JsonWriter' || true)
done

# --------------------------------------------------------------------- R3
r3_hits=$(grep -rnE \
              '(^|[^_[:alnum:]])(rand|srand|atoi|atof|atol|atoll)[[:space:]]*\(' \
              src/ tools/ bench/ --include='*.cc' --include='*.hh' || true)
if [[ -n "$r3_hits" ]]; then
    note "R3 rand()/srand()/atoi()/atof()/atol()/atoll() in src/, tools/" \
         "or bench/:"$'\n'"$r3_hits"
fi

# --------------------------------------------------------------------- R6
r6_hits=$(grep -rnE \
              '(^|[^_[:alnum:]])(strto[a-z]+|std::sto[a-z]+)[[:space:]]*\(' \
              src/ tools/ examples/ bench/ || true)
if [[ -n "$r6_hits" ]]; then
    note "R6 strto*()/std::sto*() in src/, tools/, examples/ or bench/;" \
         "use parseUint/parseReal (src/common/grammar.hh):"$'\n'"$r6_hits"
fi

# --------------------------------------------------------------------- R4
for pat in 'kNumBuckets & (kNumBuckets - 1)' 'kWidth & (kWidth - 1)'; do
    if ! grep -qF "$pat" src/sim/event_queue.hh; then
        note "R4 src/sim/event_queue.hh: power-of-two static_assert" \
             "'$pat' is missing"
    fi
done
for pat in 'isPowerOf2(cfg_.lineBytes)' 'isPowerOf2(sets)'; do
    if ! grep -qF "$pat" src/core/cache.cc; then
        note "R4 src/core/cache.cc: the constructor's power-of-two guard" \
             "'$pat' is missing"
    fi
done

# --------------------------------------------------------------------- R5
# Re-run the compiler front end over the hot TUs so every closure they
# hand to an InlineFunction is checked against its capacity under the
# current headers. -fsyntax-only keeps this to a few seconds per file.
for f in "${HOT_FILES[@]}" src/sim/event_queue.cc; do
    if ! "$CXX" -std=c++20 -fsyntax-only -I src "$f" 2>/tmp/invariant-probe.$$; then
        note "R5 $f: compile probe failed (oversized closure or broken" \
             "layout invariant):"$'\n'"$(cat /tmp/invariant-probe.$$)"
    fi
    rm -f /tmp/invariant-probe.$$
done

# ---------------------------------------------------------------- self-test
if [[ "$SELF_TEST" -eq 1 ]]; then
    if [[ "$fail" -ne 0 ]]; then
        echo "self-test aborted: the tree itself fails the lint" >&2
        exit 2
    fi

    sandbox=""
    cleanup() { if [[ -n "$sandbox" ]]; then rm -rf "$sandbox"; fi; }
    trap cleanup EXIT INT TERM

    make_sandbox() {
        cleanup
        sandbox="$(mktemp -d)"
        cp -r src tools examples bench scripts "$sandbox/"
    }

    expect_fail() {
        local what="$1"
        if bash scripts/check_invariants.sh "$sandbox" \
                > /dev/null 2>&1; then
            echo "SELF-TEST FAIL: lint missed: $what" >&2
            exit 1
        fi
        echo "self-test ok: caught $what"
    }

    # R2: writeRunResult with no declared precision policy.
    make_sandbox
    cat >> "$sandbox/src/system/campaign.cc" <<'EOF'
namespace mondrian { namespace {
[[maybe_unused]] void selfTestR2(JsonWriter &w, const RunResult &r)
{
    writeRunResult(w, r);
}
}}
EOF
    expect_fail "writeRunResult without a precision policy (R2)"

    # R3: unchecked atoi.
    make_sandbox
    printf '\n// probe\nstatic int selfTestR3(const char *s) { return atoi(s); }\n' \
        >> "$sandbox/src/system/campaign.cc"
    expect_fail "atoi() in src/ (R3)"

    # R3: unchecked atoll in a bench (the CI perf floor parses argv).
    make_sandbox
    printf '\n// probe\nstatic long long selfTestR3b(const char *s) { return atoll(s); }\n' \
        >> "$sandbox/bench/bench_sim_hotpath.cc"
    expect_fail "atoll() in bench/ (R3)"

    # R6: a private number reader in a tool.
    make_sandbox
    printf '\n// probe\nstatic double selfTestR6(const char *s) { return std::strtod(s, nullptr); }\n' \
        >> "$sandbox/tools/mondrian_report.cc"
    expect_fail "std::strtod() in tools/ (R6)"

    # R4: power-of-two static_asserts removed.
    make_sandbox
    sed -i '/kNumBuckets & (kNumBuckets - 1)/d;/kWidth & (kWidth - 1)/d' \
        "$sandbox/src/sim/event_queue.hh"
    expect_fail "missing power-of-two static_asserts (R4)"

    # R4: the cache constructor's power-of-two guard deleted.
    make_sandbox
    sed -i '/isPowerOf2(cfg_.lineBytes)/,+1d;/isPowerOf2(sets)/,+3d' \
        "$sandbox/src/core/cache.cc"
    expect_fail "missing cache power-of-two guard (R4)"

    # R5: a hot-path closure that outgrows its inline buffer must fail
    # the compile probe: the callback type alone refuses it.
    make_sandbox
    cat >> "$sandbox/src/system/machine.cc" <<'EOF'
namespace mondrian { namespace {
[[maybe_unused]] void selfTestR5(EventQueue &eq)
{
    struct Pad { unsigned char bytes[128]; };
    auto oversized = [p = Pad{}]() { (void)p; };
    eq.schedule(Tick{0}, std::move(oversized));
}
}}
EOF
    expect_fail "oversized hot-path closure (R5 compile probe)"

    echo "OK: self-test caught all 7 seeded violations"
    exit 0
fi

if [[ "$fail" -ne 0 ]]; then
    exit 1
fi
echo "OK: project invariants hold (R2-R6)"
