/* The large kernel of the warm_restart workload: a straight-line chain of
 * 4096 dependent arithmetic steps. With `k` known, one specialization
 * emulates and re-emits every step (tens of ms to trace, ~100 KiB of code),
 * while its persisted form loads with one read, a checksum and a mapping.
 * A loop would not do: the tracer keeps a loop with an unknown accumulator
 * as a loop, so trace cost would not scale with the kernel.
 */
#include "chain.h"

#define STEP acc = acc * 31 + (acc >> 7) + k;
#define STEP8 STEP STEP STEP STEP STEP STEP STEP STEP
#define STEP64 STEP8 STEP8 STEP8 STEP8 STEP8 STEP8 STEP8 STEP8
#define STEP512 STEP64 STEP64 STEP64 STEP64 STEP64 STEP64 STEP64 STEP64
#define STEP4096 \
  STEP512 STEP512 STEP512 STEP512 STEP512 STEP512 STEP512 STEP512

__attribute__((noinline)) uint64_t perfbench_chain(uint64_t x, uint64_t k) {
  uint64_t acc = x | 1;
  STEP4096
  return acc;
}
