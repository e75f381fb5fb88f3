// brew_options / brew_configure: the unified configuration surface. This
// suite lives in its own test binary on purpose — brew_configure must run
// BEFORE anything constructs the process-wide SpecManager, and every other
// C API test binary constructs it on its first rewrite.
#include <gtest/gtest.h>

#include "core/brew.h"
#include "jit/assembler.hpp"

namespace {

int addmul(int a, int b) { return a * 7 + b; }
typedef int (*addmul_t)(int, int);

// addmul as the subject, built with jit::Assembler: a compiled-C subject
// picks up sanitizer instrumentation the tracer cannot follow.
brew::ExecMemory buildAddmul() {
  using brew::isa::Operand;
  using brew::isa::Reg;
  brew::jit::Assembler as;
  as.emit(brew::isa::makeInstr(brew::isa::Mnemonic::Imul, 4,
                               Operand::makeReg(Reg::rax),
                               Operand::makeReg(Reg::rdi),
                               Operand::makeImm(7)));
  as.aluRegReg(brew::isa::Mnemonic::Add, Reg::rax, Reg::rsi, 4);
  as.ret();
  auto mem = as.finalizeExecutable();
  EXPECT_TRUE(mem.ok());
  return std::move(*mem);
}

TEST(CApiOptions, NullAndBogusValuesAreSafe) {
  EXPECT_EQ(brew_configure(nullptr), -1);
  brew_options_free(nullptr);  // no-op
  // Setters on NULL are no-ops, not crashes.
  brew_options_set_workers(nullptr, 4);
  brew_options_set_cache_bytes(nullptr, 1);
  brew_options_set_max_variants(nullptr, 1);
  brew_options_set_sample_calls(nullptr, 1);
  brew_options_set_decay_interval(nullptr, 1);
  brew_options_set_async_specialize(nullptr, 1);
}

// One ordered test so configuration provably precedes first use and the
// freeze provably follows it.
TEST(CApiOptions, ConfigureShapesTheProcessRuntimeThenFreezes) {
  brew_options* options = brew_options_init();
  ASSERT_NE(options, nullptr);
  brew_options_set_workers(options, 1);
  brew_options_set_cache_bytes(options, 8u << 20);
  brew_options_set_max_variants(options, 3);
  brew_options_set_sample_calls(options, 4);
  brew_options_set_decay_interval(options, 16);
  brew_options_set_async_specialize(options, 0);

  // Before first use: accepted, and a second call overwrites wholesale.
  EXPECT_EQ(brew_configure(options), 0);
  EXPECT_EQ(brew_configure(options), 0);
  brew_options_free(options);

  // First rewrite constructs the runtime from the staged options.
  brew::ExecMemory subject = buildAddmul();
  ASSERT_EQ(((addmul_t)subject.data())(3, 4), addmul(3, 4));
  brew_conf* conf = brew_initConf();
  brew_setnpar(conf, 2);
  brew_setpar(conf, 1, BREW_KNOWN);
  brew_setret(conf, BREW_RET_INT);
  brew_func* h = brew_rewrite2(conf, subject.data(), (uint64_t)3, (uint64_t)0);
  ASSERT_NE(h, nullptr) << brew_lastError(conf);
  EXPECT_EQ(((addmul_t)brew_func_entry(h))(0, 2), 3 * 7 + 2);
  brew_release_h(h);

  brew_cache_stats cache;
  brew_getcachestats(&cache);
  EXPECT_EQ(cache.shards, 16u);  // not settable from C
  EXPECT_EQ(cache.capacity_bytes, 8u << 20);

  // The dispatcher inherits the configured variant budget (3) even when
  // more keys are hot.
  brew_conf* dconf = brew_initConf();
  brew_setnpar(dconf, 2);
  brew_setret(dconf, BREW_RET_INT);
  brew_dispatch* d = brew_dispatch_create(dconf, subject.data(), 1,
                                          (uint64_t)0, (uint64_t)0);
  ASSERT_NE(d, nullptr) << brew_lastError(dconf);
  addmul_t entry = (addmul_t)brew_dispatch_entry(d);
  for (int round = 0; round < 200; ++round)
    for (int key = 1; key <= 5; ++key)
      ASSERT_EQ(entry(key, round), addmul(key, round));
  EXPECT_LE(brew_dispatch_variant_count(d), 3u);
  brew_dispatch_free(d);
  brew_freeConf(dconf);

  // After first use the configuration is frozen.
  brew_options* late = brew_options_init();
  EXPECT_EQ(brew_configure(late), -1);
  brew_options_free(late);
  brew_freeConf(conf);
}

}  // namespace
