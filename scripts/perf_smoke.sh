#!/bin/sh
# Perf smoke test (ctest -L perf): run bench_a1 (and, when given,
# bench_e7) for a few iterations and diff them against the committed
# BENCH_baseline.json at a generous 2x threshold. This is not a
# measurement -- it exists to catch order-of-magnitude regressions (a lost
# fast path, a syscall back in the hot loop) in CI without demanding a
# quiet machine.
set -eu

bin="${1:?usage: perf_smoke.sh path/to/bench_a1_rewrite_cost [bench_e7] [bench_a4] [bench_e9]}"
bin_e7="${2:-}"
bin_a4="${3:-}"
bin_e9="${4:-}"
repo="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Fresh private persistent-cache dir for the whole run: a warm inherited
# BREW_CACHE_DIR would serve the cold-rewrite benches from disk and fake
# (or mask) regressions. bench_e9 manages its own cold/warm dirs on top.
BREW_CACHE_DIR="$tmp/persist-cache"
export BREW_CACHE_DIR
mkdir -p "$BREW_CACHE_DIR"

# Self-test the comparator's input validation before trusting its verdicts:
# a baseline entry stripped of a required section must fail with a clear
# message and exit 2, not a traceback or a silent all-OK pass.
python3 - "$repo/BENCH_baseline.json" "$tmp/truncated.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
entry = next(iter(data))
del data[entry]["latency"]
with open(sys.argv[2], "w") as f:
    json.dump(data, f)
EOF
selftest_rc=0
python3 "$repo/scripts/compare_benches.py" \
  "$tmp/truncated.json" "$repo/BENCH_baseline.json" \
  >"$tmp/selftest.log" 2>&1 || selftest_rc=$?
if [ "$selftest_rc" -ne 2 ] || \
   ! grep -q "missing required section" "$tmp/selftest.log"; then
  echo "compare_benches.py self-test failed (rc=$selftest_rc):" >&2
  cat "$tmp/selftest.log" >&2
  exit 1
fi

BREW_BENCH_ITERATIONS=20 "$bin" "--json=$tmp/a1.json" \
  --benchmark_min_time=0.05s >"$tmp/a1.log" 2>&1 || {
  cat "$tmp/a1.log"
  exit 1
}

only_args="--only bench_a1_rewrite_cost"
if [ -n "$bin_e7" ]; then
  "$bin_e7" "--json=$tmp/e7.json" \
    --benchmark_min_time=0.05s >"$tmp/e7.log" 2>&1 || {
    cat "$tmp/e7.log"
    exit 1
  }
  only_args="$only_args --only bench_e7_variant_churn"
fi
if [ -n "$bin_a4" ]; then
  BREW_BENCH_ITERATIONS=20 "$bin_a4" "--json=$tmp/a4.json" \
    --benchmark_min_time=0.05s >"$tmp/a4.log" 2>&1 || {
    cat "$tmp/a4.log"
    exit 1
  }
  only_args="$only_args --only bench_a4_passes_ablation"
fi
min_ratio_args=""
if [ -n "$bin_e9" ]; then
  BREW_BENCH_ITERATIONS=20 "$bin_e9" "--json=$tmp/e9.json" \
    --benchmark_min_time=0.05s >"$tmp/e9.log" 2>&1 || {
    cat "$tmp/e9.log"
    exit 1
  }
  only_args="$only_args --only bench_e9_coldstart"
  # Absolute floor, not a baseline diff: restarting warm off the on-disk
  # cache must reach full cached-hit throughput at least 5x faster than a
  # cold start, whatever this machine's absolute speed.
  min_ratio_args="--min-ratio warmstart_speedup=5.0"
fi

# Wrap the single-binary outputs in the merged run_benches.sh shape so the
# keys line up with the committed baseline.
python3 - "$tmp/merged.json" "$tmp/a1.json" "$tmp/e7.json" \
  "$tmp/a4.json" "$tmp/e9.json" <<'EOF'
import json, os, sys
merged = {}
for path in sys.argv[2:]:
    if not os.path.exists(path):
        continue
    name = {"a1": "bench_a1_rewrite_cost",
            "e7": "bench_e7_variant_churn",
            "a4": "bench_a4_passes_ablation",
            "e9": "bench_e9_coldstart"}[os.path.basename(path)[:2]]
    with open(path) as f:
        merged[name] = json.load(f)
with open(sys.argv[1], "w") as f:
    json.dump(merged, f)
EOF

# The cached-hit path gets its own, much tighter threshold: it is the
# per-call cost every repeat client pays, and the sharded cache serves it
# lock-free — a mutex or shared cache line creeping back in shows up well
# below the generic 2x noise allowance. Same idea for the dispatch stub:
# BM_DispatchMonomorphic is a handful of ns per call, so anything beyond
# noise (an extra load, a lock) trips the tighter 1.5x bound.
# The pass-ablation pair gets per-bench bounds too: BM_WithPasses is the
# fully optimized kernel (a lost hoist or coalescing proof shows as a jump
# well inside 2x), while BM_WithoutPasses is the scalar reference and only
# guards against pipeline-wide regressions.
# BM_RewritePgasStyleBranchy is the block-chained tier's cold-compile gate
# (docs/BLOCKS.md): losing terminator chaining or reconvergence merging
# roughly doubles it, so the 1.5x bound trips well before the generic
# threshold while still riding out CI noise.
baseline_rc=0
python3 "$repo/scripts/compare_benches.py" \
  "$repo/BENCH_baseline.json" "$tmp/merged.json" \
  $only_args --threshold 2.0 \
  --per-bench BM_RewriteApplyCached=1.25 \
  --per-bench BM_RewritePgasStyleBranchy=1.5 \
  --per-bench BM_DispatchMonomorphic=1.5 \
  --per-bench BM_WithPasses=1.5 \
  --per-bench BM_WithoutPasses=1.75 \
  $min_ratio_args || baseline_rc=$?

# Profiler overhead guard: the 997 Hz sampling profiler must cost the
# cached-hit fast path under ~2%. Same binary, same session; the plain and
# profiled runs are INTERLEAVED (plain, profiled, plain, ...) and each side
# takes its min-of-4, so slow machine-wide drift during the measurement
# hits both sides alike and cancels out of the ratio. The comparison is
# profiled-vs-unprofiled on THIS machine, not against the committed
# baseline, so a slow container cannot mask (or fake) profiler overhead.
run_one() {
  env="$1"; out="$2"
  env $env BREW_BENCH_ITERATIONS=20 "$bin" \
    "--json=$tmp/prof_run.json" \
    --benchmark_filter='BM_RewriteApplyCached$' \
    --benchmark_min_time=0.05s >"$tmp/prof_run.log" 2>&1 || {
    cat "$tmp/prof_run.log"
    return 1
  }
  python3 -c '
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
for row in data.get("benchmarks", []):
    if row["name"].startswith("BM_RewriteApplyCached"):
        print(row["ns_per_op"])
        break
' "$tmp/prof_run.json" >>"$out"
}

: >"$tmp/plain_ns.txt"
: >"$tmp/prof_ns.txt"
for i in 1 2 3 4; do
  run_one "BREW_PROFILE_HZ=0" "$tmp/plain_ns.txt"
  run_one "BREW_PROFILE_HZ=997" "$tmp/prof_ns.txt"
done

overhead_rc=0
python3 - "$tmp/plain_ns.txt" "$tmp/prof_ns.txt" <<'EOF' || overhead_rc=$?
import sys
plain = [float(l) for l in open(sys.argv[1]) if l.strip()]
prof = [float(l) for l in open(sys.argv[2]) if l.strip()]
if not plain or not prof:
    print("profiler overhead guard: missing BM_RewriteApplyCached runs",
          file=sys.stderr)
    sys.exit(1)
ratio = min(prof) / min(plain)
limit = 1.02
verdict = "OK" if ratio <= limit else "REGRESSION"
print(f"  {verdict:>10}  profiler overhead BM_RewriteApplyCached: "
      f"{min(plain):.1f} -> {min(prof):.1f} ns at 997 Hz "
      f"({ratio:.3f}x, limit {limit:.2f}x)")
sys.exit(0 if ratio <= limit else 1)
EOF

[ "$baseline_rc" -eq 0 ] && [ "$overhead_rc" -eq 0 ]
