// A cached hit allocates nothing: SpecManager::rewrite writes its key into
// a per-thread buffer and probes the cache by view, and brew_rewrite2
// reuses released brew_func shells. The global operator new/delete are
// replaced with versions that count the calling thread's allocations.
// Plain registration, outside the concurrency label: ThreadSanitizer
// interposes the allocator.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "core/brew.h"
#include "core/spec_manager.hpp"
#include "pgas/pgas.h"
#include "pgas/runtime.hpp"
#include "stencil/stencil.h"
#include "stencil/stencil.hpp"

namespace {

thread_local bool t_counting = false;
thread_local size_t t_allocations = 0;

void* countedAlloc(std::size_t size, std::size_t align) {
  if (t_counting) ++t_allocations;
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t))
    p = std::malloc(size);
  else if (posix_memalign(&p, align, size) != 0)
    p = nullptr;
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = countedAlloc(size, 0)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = countedAlloc(size, static_cast<std::size_t>(align))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return countedAlloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return countedAlloc(size, 0);
}
// These deletes free what countedAlloc took from malloc; GCC cannot see
// that pairing through the replaced operator new.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace brew {
namespace {

constexpr int kHits = 1000;
constexpr int kXs = 64;

// Heap allocations the calling thread makes inside `body`.
template <typename Body>
size_t allocationsDuring(Body&& body) {
  t_allocations = 0;
  t_counting = true;
  body();
  t_counting = false;
  return t_allocations;
}

// The three respecialized subjects: the flat 5-point stencil, its grouped
// form (the largest key, 2368 bytes) and the PGAS reader over a view.
struct Subjects {
  brew_stencil flat = stencil::fivePoint();
  brew_gstencil grouped = stencil::fivePointGrouped();
  pgas::Runtime runtime{pgas::Runtime::Options{
      .ranks = 4, .myRank = 0, .elementsPerRank = 256}};
  brew_pgas_view view = runtime.view(1);
};

struct Request {
  Config config;
  const void* fn;
  std::vector<ArgValue> args;
};

Config stencilConfig(size_t bytes) {
  Config config;
  config.setParamKnown(1);
  config.setParamKnownPtr(2, bytes);
  config.setReturnKind(ReturnKind::Float);
  return config;
}

std::vector<Request> requests(const Subjects& s) {
  Config pgasConfig;
  pgasConfig.setParamKnownPtr(0, sizeof(brew_pgas_view));
  pgasConfig.setReturnKind(ReturnKind::Float);
  pgasConfig.setFunctionOptions(
      reinterpret_cast<const void*>(&brew_pgas_remote_read),
      FunctionOptions{.inlineCalls = false, .pure = true});
  return {
      {stencilConfig(sizeof s.flat),
       reinterpret_cast<const void*>(&brew_stencil_apply),
       {ArgValue::fromPtr(nullptr), ArgValue::fromInt(kXs),
        ArgValue::fromPtr(&s.flat)}},
      {stencilConfig(sizeof s.grouped),
       reinterpret_cast<const void*>(&brew_stencil_apply_grouped),
       {ArgValue::fromPtr(nullptr), ArgValue::fromInt(kXs),
        ArgValue::fromPtr(&s.grouped)}},
      {pgasConfig, reinterpret_cast<const void*>(&brew_pgas_read),
       {ArgValue::fromPtr(&s.view), ArgValue::fromInt(0)}},
  };
}

TEST(HitAllocations, SpecManagerHitAllocatesNothing) {
  Subjects subjects;
  const std::vector<Request> reqs = requests(subjects);
  SpecManager manager{SpecManager::Options{.workers = 1}};
  std::vector<const CodeBlock*> blocks;
  for (const Request& r : reqs) {
    auto built = manager.rewrite(r.config, PassOptions{}, r.fn, r.args);
    ASSERT_TRUE(built.ok()) << built.error().message();
    blocks.push_back(built->get());
  }
  EXPECT_GE(makeCacheKey(reqs[1].config, {}, reqs[1].fn, reqs[1].args)
                .bytes.size(),
            2048u);
  // Warm the per-thread state (key buffer, epoch slot, sampled timer).
  for (int i = 0; i < 128; ++i)
    for (const Request& r : reqs)
      (void)manager.rewrite(r.config, PassOptions{}, r.fn, r.args);

  for (size_t k = 0; k < reqs.size(); ++k) {
    const Request& r = reqs[k];
    int wrong = 0;
    const size_t allocations = allocationsDuring([&] {
      for (int i = 0; i < kHits; ++i) {
        auto hit = manager.rewrite(r.config, PassOptions{}, r.fn, r.args);
        if (!hit.ok() || hit->get() != blocks[k]) ++wrong;
      }
    });
    EXPECT_EQ(wrong, 0) << "subject " << k;
    EXPECT_EQ(allocations, 0u) << "subject " << k << ": " << allocations
                               << " allocations over " << kHits << " hits";
  }
  EXPECT_EQ(manager.cache().stats().misses, reqs.size());
}

brew_conf* stencilConf(size_t bytes) {
  brew_conf* conf = brew_initConf();
  brew_setnpar(conf, 3);
  brew_setpar(conf, 2, BREW_KNOWN);
  brew_setpar_ptr(conf, 3, bytes);
  brew_setret(conf, BREW_RET_DOUBLE);
  return conf;
}

TEST(HitAllocations, CapiHitAllocatesNothing) {
  Subjects subjects;
  brew_conf* flatConf = stencilConf(sizeof subjects.flat);
  brew_conf* groupedConf = stencilConf(sizeof subjects.grouped);
  brew_conf* pgasConf = brew_initConf();
  brew_setnpar(pgasConf, 2);
  brew_setpar_ptr(pgasConf, 1, sizeof subjects.view);
  brew_setret(pgasConf, BREW_RET_DOUBLE);
  brew_setfn(pgasConf, reinterpret_cast<const void*>(&brew_pgas_remote_read),
             BREW_FN_NOINLINE | BREW_FN_PURE);

  auto flat = [&] {
    return brew_rewrite2(flatConf,
                         reinterpret_cast<const void*>(&brew_stencil_apply),
                         static_cast<const double*>(nullptr), long{kXs},
                         &subjects.flat);
  };
  auto grouped = [&] {
    return brew_rewrite2(
        groupedConf,
        reinterpret_cast<const void*>(&brew_stencil_apply_grouped),
        static_cast<const double*>(nullptr), long{kXs}, &subjects.grouped);
  };
  auto pgas = [&] {
    return brew_rewrite2(pgasConf,
                         reinterpret_cast<const void*>(&brew_pgas_read),
                         &subjects.view, 0L);
  };

  // Each call form once (the miss) and then warm, keeping the entry.
  auto check = [&](auto&& call, const brew_conf* conf, const char* name) {
    brew_func* first = call();
    ASSERT_NE(first, nullptr) << name << ": " << brew_lastError(conf);
    void* entry = brew_func_entry(first);
    for (int i = 0; i < 128; ++i) brew_release_h(call());
    int wrong = 0;
    const size_t allocations = allocationsDuring([&] {
      for (int i = 0; i < kHits; ++i) {
        brew_func* hit = call();
        if (brew_func_entry(hit) != entry) ++wrong;
        brew_release_h(hit);
      }
    });
    brew_release_h(first);
    EXPECT_EQ(wrong, 0) << name;
    EXPECT_EQ(allocations, 0u) << name << ": " << allocations
                               << " allocations over " << kHits << " hits";
  };
  check(flat, flatConf, "flat stencil");
  check(grouped, groupedConf, "grouped stencil");
  check(pgas, pgasConf, "PGAS view");

  brew_freeConf(flatConf);
  brew_freeConf(groupedConf);
  brew_freeConf(pgasConf);
}

}  // namespace
}  // namespace brew
