#!/usr/bin/env bash
# jobsvc_bench.sh — full-scale job-service backlog study.
#
# Runs both backlog shapes at acceptance scale (100 tenants x 1000 jobs on
# 16 nodes) and the quick smoke shape (20 x 200 on 8 nodes), printing the
# study tables and the machine-parsable jobsvc-bench lines. The numbers
# are virtual-time metrics of a deterministic simulation: for a fixed seed
# and schedule they are exact, so a pin refresh is copying values, not
# re-measuring on a quiet host.
#
# To refresh BENCH_PR10.json, transcribe the jobsvc-bench lines into the
# matching "full" and "smoke" sections.
#
# Usage:
#   scripts/jobsvc_bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "jobsvc_bench: full shapes (100 tenants x 1000 jobs, 16 nodes)" >&2
go run ./cmd/vhadoop jobsvc

echo "jobsvc_bench: smoke shapes (20 tenants x 200 jobs, 8 nodes)" >&2
go run ./cmd/vhadoop -quick jobsvc
