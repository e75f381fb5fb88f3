#!/bin/sh
# Smoke run of the end-to-end benchmark binary (ctest: perfbench_smoke):
#
#   scripts/check_perfbench_smoke.sh path/to/brewbench
#
# Runs each gated workload of BENCHMARK.json for half a second and asserts
# the binary's last line (one JSON object) reports a correct run with no
# failed operation. No timing is checked; perfbench/run.py measures.
set -eu

brewbench="${1:?usage: check_perfbench_smoke.sh brewbench}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

for workload in kernel_loop respecialize width_shift; do
  mkdir "$tmp/$workload"
  last="$("$brewbench" --workload "$workload" --seed 1 --seconds 0.5 \
    --trace 0 --workdir "$tmp/$workload" | tail -n 1)"
  case "$last" in
    '{"correct": true, '*'"failed": 0, '*) echo "ok: $workload" ;;
    *) echo "FAIL: $workload: $last" >&2; exit 1 ;;
  esac
done
