#!/bin/sh
# Runs the concurrency-labeled tests (cache single-flight, telemetry
# registry races) under ThreadSanitizer. Maintains its own build tree
# (build-tsan/) so the main build stays uninstrumented:
#
#   scripts/check_telemetry.sh
#
# Exits 125 (ctest SKIP_RETURN_CODE) when the toolchain cannot produce
# TSan binaries, so plain ctest runs stay green on minimal images.
set -eu
cd "$(dirname "$0")/.."

# Probe: does the compiler link -fsanitize=thread here?
probe_dir=$(mktemp -d)
trap 'rm -rf "$probe_dir"' EXIT
cat > "$probe_dir/probe.cc" <<'EOF'
int main() { return 0; }
EOF
if ! c++ -fsanitize=thread "$probe_dir/probe.cc" -o "$probe_dir/probe" \
    2>/dev/null; then
  echo "SKIP: toolchain cannot link ThreadSanitizer binaries" >&2
  exit 125
fi

cmake -B build-tsan -S . -DBREW_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build build-tsan -j"$(nproc)" \
  --target core_cache_test core_cache_shard_test support_telemetry_test \
  isa_decode_cache_test core_differential_fuzz_test core_dispatch_test \
  support_profiler_test passes_vectorize_test passes_test \
  core_blocks_differential_test \
  support_persist_cache_test support_persist_process_test \
  > /dev/null

cd build-tsan
ctest -L concurrency --output-on-failure -j"$(nproc)"

# The cross-iteration passes and the loop register rules must also report
# themselves: a BREW_STATS run over the differential suite (whose loop
# subjects keep their loops, one of them packed two iterations per trip)
# has to show their counters moving, and the latch layout with them (a
# silent pass is indistinguishable from a disabled one).
stats_out=$(BREW_STATS=1 ./tests/passes_vectorize_test 2>&1)
for counter in passes.loads_eliminated passes.copies_coalesced \
    passes.consts_hoisted passes.loops_vectorized \
    emit.loop_latches_placed; do
  if ! printf '%s\n' "$stats_out" | \
      grep -E "$counter[[:space:]]+[1-9][0-9]*" > /dev/null; then
    echo "FAIL: $counter missing or zero in BREW_STATS output" >&2
    printf '%s\n' "$stats_out" | grep -E "passes\.|emit\." >&2 || true
    exit 1
  fi
done
echo "passes.* and emit.loop_latches_placed present in BREW_STATS"

# Lane reuse must report itself on hand-built blocks too: the pass unit
# tests' repeated loads move passes.loads_eliminated with no pool constant
# or unrolled stencil behind them.
stats_out=$(BREW_STATS=1 ./tests/passes_test \
    --gtest_filter='RedundantLoads.*' 2>&1)
if ! printf '%s\n' "$stats_out" | \
    grep -E "passes.loads_eliminated[[:space:]]+[1-9][0-9]*" > /dev/null; then
  echo "FAIL: passes.loads_eliminated missing or zero in BREW_STATS output" >&2
  printf '%s\n' "$stats_out" | grep -E "passes\." >&2 || true
  exit 1
fi
echo "passes.loads_eliminated present in BREW_STATS of RedundantLoads.*"

# Same for the block-chained tier: its differential suite traces branchy
# functions, so a BREW_STATS run must show the blocks.* counters moving —
# zero chained/merged blocks means the tier silently fell back to the
# generic fork path.
stats_out=$(BREW_STATS=1 ./tests/core_blocks_differential_test 2>&1)
for counter in blocks.started blocks.chained blocks.merged \
    blocks.side_exits; do
  if ! printf '%s\n' "$stats_out" | \
      grep -E "$counter[[:space:]]+[1-9][0-9]*" > /dev/null; then
    echo "FAIL: $counter missing or zero in BREW_STATS output" >&2
    printf '%s\n' "$stats_out" | grep "blocks\." >&2 || true
    exit 1
  fi
done
echo "blocks.* counters present in BREW_STATS"

# Persistent cache: a warm-start run of the persistence battery must show
# the cache.persist_* counters moving — zero writes means nothing was
# published, zero hits means every restart silently traced cold, zero
# shared maps means no warm load was mapped from its entry file.
stats_out=$(BREW_STATS=1 ./tests/support_persist_cache_test \
  --gtest_filter='PersistRoundTrip.*:PersistCorruption.Truncated*' 2>&1)
for counter in cache.persist_hits cache.persist_writes \
    cache.persist_rejects cache.persist_shared_maps; do
  if ! printf '%s\n' "$stats_out" | \
      grep -E "$counter[[:space:]]+[1-9][0-9]*" > /dev/null; then
    echo "FAIL: $counter missing or zero in BREW_STATS output" >&2
    printf '%s\n' "$stats_out" | grep "cache\.persist" >&2 || true
    exit 1
  fi
done
echo "cache.persist_* counters present in BREW_STATS"

# Asynchronous rewriting: the dispatch suite's async misses and epoch bumps
# all go through SpecManager::rewriteBatch, so a BREW_STATS run must show
# respecializations submitted and batch items installing code.
stats_out=$(BREW_STATS=1 ./tests/core_dispatch_test 2>&1)
for counter in dispatch.async_respecs cache.async_installs; do
  if ! printf '%s\n' "$stats_out" | \
      grep -E "$counter[[:space:]]+[1-9][0-9]*" > /dev/null; then
    echo "FAIL: $counter missing or zero in BREW_STATS output" >&2
    printf '%s\n' "$stats_out" | grep -E "async" >&2 || true
    exit 1
  fi
done
echo "async batch counters present in BREW_STATS"
echo "telemetry/concurrency tests are TSan-clean"
