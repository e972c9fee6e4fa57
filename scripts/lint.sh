#!/usr/bin/env bash
# lint.sh — the repo's static gate: gofmt and go vet, on the root module
# and on bench/. Determinism is guarded at run time, by the tests.
#
# Usage:
#   scripts/lint.sh [packages...]   # go vet's packages; defaults to ./...
#
# Exits non-zero on the first failing stage. CI runs the same gofmt and
# vet (root module and bench/) checks as separate steps; run this before
# pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

PKGS=("${@:-./...}")

echo "gofmt..." >&2
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
  echo "gofmt: needs formatting:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "go vet..." >&2
go vet "${PKGS[@]}"
# bench/ is a separate module, which the root ./... does not reach.
(cd bench && go vet ./...)
