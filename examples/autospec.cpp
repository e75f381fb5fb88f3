// §III-D end to end — profile-guided automatic specialization: "statistical
// information can be collected by profiling ... a specific variant can be
// generated which is called after a check for the parameter actually being
// 42. Otherwise, the original function should be executed."
//
// A generic polynomial kernel is called through a VariantDispatcher's
// entry: its miss path first observes the model index across calls, then
// transparently installs specialized variants for the hot models behind
// the inline-cache key check.
//
//   $ ./autospec
#include <cstdio>

#include "core/dispatch.hpp"
#include "support/timer.hpp"

using namespace brew;

namespace {

// Pre-compiled generic kernel: evaluate model `m`'s polynomial at x. The
// model table lives in .rodata, so specialization folds the table lookup
// AND the coefficient loads to constants and unrolls the loop.
const double kModels[8][6] = {
    {1, 0.5, 0.25, 0.125, 0.0625, 0.03125},
    {2, -1, 0.5, -0.25, 0.125, -0.0625},
    {0, 1, 0, -0.1666, 0, 0.00833},
    {1, -1, 1, -1, 1, -1},
    {3, 0, 2, 0, 1, 0},
    {0.1, 0.2, 0.3, 0.4, 0.5, 0.6},
    {5, 4, 3, 2, 1, 0},
    {1, 1, 1, 1, 1, 1},
};

__attribute__((noinline)) double evalModel(long m, double x) {
  const double* c = kModels[m];
  double sum = 0.0, p = 1.0;
  for (int i = 0; i < 6; i++) {
    sum += c[i] * p;
    p *= x;
  }
  return sum;
}
using pow_t = double (*)(long, double);

double workload(pow_t fn, int calls) {
  // 80% of calls use model 4, 15% model 1, 5% scattered.
  double sum = 0.0;
  for (int i = 0; i < calls; ++i) {
    long m = 4;
    if (i % 20 >= 16) m = 1;
    if (i % 20 == 19) m = i % 8;
    sum += fn(m, 1.0 + 1e-9 * i);
  }
  return sum;
}

}  // namespace

int main() {
  // No seeds: the dispatcher's own miss path samples the model index and
  // specializes the hot ones once `sampleCalls` calls have been observed.
  SpecManager& manager = SpecManager::process();
  DispatchOptions options = manager.options().dispatch;
  options.sampleCalls = 200;
  options.maxVariants = 2;
  VariantDispatcher dispatcher(
      manager, reinterpret_cast<const void*>(&evalModel), /*paramIndex=*/0,
      {ArgValue::fromInt(0), ArgValue::fromDouble(0.0)},
      Config{}.setReturnKind(ReturnKind::Float), options);
  auto fn = dispatcher.as<pow_t>();

  std::printf("sampling phase (first %zu calls)...\n", options.sampleCalls);
  workload(fn, 256);
  std::printf("live variants:");
  for (const VariantInfo& v : dispatcher.variants())
    std::printf("  m=%llu:%llu hits%s",
                static_cast<unsigned long long>(v.key),
                static_cast<unsigned long long>(v.hits),
                v.inlineCached ? " (inline)" : "");
  std::printf("\nspecialized: %s (%zu variants)\n",
              dispatcher.variantCount() > 0 ? "yes" : "no",
              dispatcher.variantCount());

  // Correctness across hot and cold values.
  const double x = 1.5;
  for (long m : {0L, 1L, 4L, 7L}) {
    const double got = fn(m, x);
    const double want = evalModel(m, x);
    std::printf("  model %ld at %.1f = %-12g %s\n", m, x, got,
                got == want ? "(matches original)" : "MISMATCH");
  }

  // Throughput: the hot-exponent loop now runs through an unrolled,
  // multiplication-chain variant instead of the generic loop.
  const int calls = 2'000'000;
  Timer timer;
  double s1 = 0;
  for (int i = 0; i < calls; ++i) s1 += evalModel(4, 1.0 + 1e-9 * (i & 7));
  const double generic = timer.seconds();
  timer.reset();
  // Steady state: the hot model hits an inline-cache way of the stub.
  double s2 = 0;
  for (int i = 0; i < calls; ++i) s2 += fn(4, 1.0 + 1e-9 * (i & 7));
  const double specialized = timer.seconds();
  std::printf("\n%d calls with hot model 4: generic %.1f ms, "
              "auto-specialized %.1f ms (%.2fx)%s\n",
              calls, generic * 1e3, specialized * 1e3,
              generic / specialized, s1 == s2 ? "" : "  MISMATCH");
  return 0;
}
