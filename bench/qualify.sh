#!/usr/bin/env bash
# Qualifies the benchmark on this machine: six full untraced suites, three
# back to back and three each after a 60 s idle gap, then for every
# (metric, workload) pair the spread (max-min)/median beside its bound.
# Exits non-zero if any pair exceeds its bound.
set -euo pipefail
exec bash "$(dirname "${BASH_SOURCE[0]}")/run.sh" --repeat 6 --idle 60s "$@"
