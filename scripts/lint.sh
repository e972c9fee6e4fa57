#!/usr/bin/env bash
# lint.sh — the repo's static gate: gofmt, go vet, and vhlint (the
# determinism invariant suite under internal/lint, run by its
# TestTreeClean).
#
# Usage:
#   scripts/lint.sh [packages...]   # go vet's packages; defaults to ./...
#
# Exits non-zero on the first failing stage. CI runs the same gofmt and
# vet (root module and bench/) checks as separate steps, and runs
# TestTreeClean in its Test and Race steps; run this before pushing.
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

# TestTreeClean lints every package of the root module and fails on any
# finding.
echo "vhlint..." >&2
go test ./internal/lint -run '^TestTreeClean$'
