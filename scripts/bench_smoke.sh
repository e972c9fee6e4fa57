#!/usr/bin/env bash
# bench_smoke.sh — fast bench-regression gate for CI.
#
# Runs BenchmarkEngineThroughput at a reduced -benchtime against the
# pinned BENCH_PR1 number — the engine's hot path.
#
# Fails if the minimum ns/op across repetitions exceeds the pin by more
# than MARGIN percent. This is a smoke test, not a measurement: it exists
# so an accidental hot-path regression (a registry lookup creeping back
# into a per-event path, say) fails the build instead of landing silently.
# Full numbers come from scripts/bench.sh.
#
# Usage:
#   scripts/bench_smoke.sh
#
# Environment:
#   PIN_FILE        JSON file holding the EngineThroughput pin (default
#                   BENCH_PR1.json). When the file has a "pr1_baseline"
#                   section (a same-machine re-measure recorded in a later
#                   BENCH_PRn.json), point PIN_FILE there for an
#                   apples-to-apples gate.
#   MARGIN          tolerated regression over the pin, percent (default 5)
#   BENCHTIME       passed to -benchtime (default 20x)
#   COUNT           repetitions, minimum taken (default 3)
set -euo pipefail
cd "$(dirname "$0")/.."

PIN_FILE=${PIN_FILE:-BENCH_PR1.json}
MARGIN=${MARGIN:-5}
BENCHTIME=${BENCHTIME:-20x}
COUNT=${COUNT:-3}

# read_pin <file> <benchmark key>: the last ns_per_op following the key
# (the final occurrence, so a seed_baseline or pr1_baseline section earlier
# in the file does not shadow it). Handles both one-line and
# pretty-printed entries.
read_pin() {
  awk -v key="\"$2\"" '
    index($0, key) { armed = 1 }
    armed && /"ns_per_op"/ {
      v = $0
      sub(/.*"ns_per_op": */, "", v)
      sub(/[,}].*/, "", v)
      pin = v
      armed = 0
    }
    END { print pin }
  ' "$1"
}

# gate <label> <bench regex> <pin>: run the benchmark and enforce the pin.
gate() {
  local label=$1 bench=$2 pin=$3
  echo "bench_smoke: $label at $BENCHTIME x$COUNT vs pin $pin ns/op (+$MARGIN%)" >&2
  local out
  out=$(go test -run '^$' -bench "$bench" \
    -benchtime "$BENCHTIME" -count "$COUNT" . 2>/dev/null | grep -E '^Benchmark')
  echo "$out" >&2
  echo "$out" | awk -v pin="$pin" -v margin="$MARGIN" -v label="$label" '
    { if (min == "" || $3 < min) min = $3 }
    END {
      limit = pin * (1 + margin / 100)
      printf "bench_smoke: min %.0f ns/op, limit %.0f ns/op\n", min, limit > "/dev/stderr"
      if (min > limit) {
        printf "bench_smoke: FAIL — %s regressed beyond the pin by >%s%%\n", label, margin > "/dev/stderr"
        exit 1
      }
      print "bench_smoke: ok" > "/dev/stderr"
    }
  '
}

pin=$(read_pin "$PIN_FILE" BenchmarkEngineThroughput)
if [[ -z "$pin" ]]; then
  echo "bench_smoke: no BenchmarkEngineThroughput pin in $PIN_FILE" >&2
  exit 2
fi
gate EngineThroughput 'BenchmarkEngineThroughput$' "$pin"
