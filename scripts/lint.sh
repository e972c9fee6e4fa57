#!/usr/bin/env bash
# lint.sh — the repo's static gate: gofmt, go vet, and vhlint (the
# determinism invariant suite under internal/lint).
#
# Usage:
#   scripts/lint.sh [packages...]   # defaults to ./...
#
# Exits non-zero on the first failing stage. CI runs the same gofmt,
# vet (root module and bench/) and vhlint checks as separate steps; run
# this before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

PKGS=("${@:-./...}")

echo "gofmt..." >&2
unformatted=$(gofmt -l . | grep -v '^internal/lint/testdata/' || true)
if [[ -n "$unformatted" ]]; then
  echo "gofmt: needs formatting:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "go vet..." >&2
go vet "${PKGS[@]}"
# bench/ is a separate module, which the root ./... does not reach.
(cd bench && go vet ./...)

echo "vhlint..." >&2
go run ./cmd/vhlint "${PKGS[@]}"

# Stale allows are active diagnostics, so the stage above already fails
# on them — but gate on them explicitly too, off the -json audit stream,
# so an annotation that suppresses nothing can never outlive the code it
# excused even if default filtering ever changes.
echo "vhlint stale-allow audit..." >&2
audit=$(go run ./cmd/vhlint -json "${PKGS[@]}" || true)
stale=$(grep 'stale //vhlint:allow' <<<"$audit" || true)
if [[ -n "$stale" ]]; then
  echo "stale //vhlint:allow annotations (they suppress nothing — delete them):" >&2
  echo "$stale" >&2
  exit 1
fi
