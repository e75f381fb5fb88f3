// Support-layer tests: errors, hexdump, memory map, printer output, PRNG
// determinism, executable-memory placement.
#include <gtest/gtest.h>

#include "isa/decoder.hpp"
#include "isa/printer.hpp"
#include "support/error.hpp"
#include "support/exec_memory.hpp"
#include "support/hexdump.hpp"
#include "support/memory_map.hpp"
#include "support/perf_map.hpp"
#include "support/prng.hpp"
#include "support/telemetry.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace brew {
namespace {

TEST(ErrorTest, MessageFormatting) {
  Error e{ErrorCode::UndecodableInstruction, 0x1234, "bad byte"};
  const std::string msg = e.message();
  EXPECT_NE(msg.find("UndecodableInstruction"), std::string::npos);
  EXPECT_NE(msg.find("0x1234"), std::string::npos);
  EXPECT_NE(msg.find("bad byte"), std::string::npos);

  Error plain{ErrorCode::VariantLimit, 0, ""};
  EXPECT_EQ(plain.message(), "VariantLimit");
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  Result<int> bad = Error{ErrorCode::InvalidArgument, 0, "nope"};
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::InvalidArgument);

  Status s;
  EXPECT_TRUE(s.ok());
  Status f = Error{ErrorCode::CodeBufferFull, 0, ""};
  EXPECT_FALSE(f.ok());
}

TEST(HexDumpTest, Bytes) {
  const uint8_t data[] = {0x48, 0x89, 0xf8};
  EXPECT_EQ(hexBytes(data), "48 89 f8");
  EXPECT_EQ(hexBytes(std::span<const uint8_t>{}), "");
  const std::string dump = hexDump(data, 0x1000);
  EXPECT_NE(dump.find("001000"), std::string::npos);
  EXPECT_NE(dump.find("48 89 f8"), std::string::npos);
}

TEST(MemoryMapTest, ClassifiesKnownRegions) {
  // Code of this test binary: read-only (r-xp counts as writable==false?
  // r-x has perms[1] == '-' only for r--; r-xp has x in perms[2]).
  // String literals live in r--p .rodata: readable, not writable.
  static const char* literal = "brew-memory-map-probe";
  EXPECT_TRUE(
      isReadOnlyMapping(reinterpret_cast<uint64_t>(literal), 8));
  // Writable static data is not read-only.
  static int64_t writable = 5;
  EXPECT_FALSE(
      isReadOnlyMapping(reinterpret_cast<uint64_t>(&writable), 8));
  // Stack is not read-only.
  int64_t local = 7;
  EXPECT_FALSE(isReadOnlyMapping(reinterpret_cast<uint64_t>(&local), 8));
  // Unmapped garbage address.
  EXPECT_FALSE(isReadOnlyMapping(0x10, 8));
  invalidateMemoryMapCache();
  EXPECT_TRUE(
      isReadOnlyMapping(reinterpret_cast<uint64_t>(literal), 8));
}

TEST(PrngTest, DeterministicAcrossRuns) {
  Prng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  Prng c(124);
  EXPECT_NE(a.next(), c.next());
}

TEST(PrngTest, RangeBounds) {
  Prng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(PrinterTest, InstructionText) {
  auto text = [](std::initializer_list<uint8_t> bytes) {
    std::vector<uint8_t> buf(bytes);
    auto instr = isa::decodeOne(buf, 0x1000);
    EXPECT_TRUE(instr.ok());
    return instr.ok() ? isa::toString(*instr) : std::string();
  };
  EXPECT_EQ(text({0x49, 0x89, 0xf8}), "mov r8, rdi");
  EXPECT_EQ(text({0x85, 0xff}), "test edi, edi");
  EXPECT_EQ(text({0x48, 0x83, 0xec, 0x18}), "sub rsp, 0x18");
  EXPECT_EQ(text({0xf2, 0x0f, 0x59, 0x42, 0xf8}),
            "mulsd xmm0, qword ptr [rdx-0x8]");
  EXPECT_EQ(text({0xf2, 0x41, 0x0f, 0x10, 0x04, 0xc0}),
            "movsd xmm0, qword ptr [r8+rax*8]");
  EXPECT_EQ(text({0x7e, 0x10}), "jle 0x1012");
  EXPECT_EQ(text({0xc3}), "ret");
  EXPECT_EQ(text({0x48, 0x99}), "cqo");
  EXPECT_EQ(text({0x0f, 0x94, 0xc0}), "sete al");
  EXPECT_EQ(text({0x48, 0x0f, 0x44, 0xc1}), "cmove rax, rcx");
}

TEST(PrinterTest, DisassemblyStopsAtRet) {
  const uint8_t code[] = {0x90, 0xc3, 0xcc, 0xcc};
  const std::string out = isa::disassemble(code, 0);
  EXPECT_NE(out.find("nop"), std::string::npos);
  EXPECT_NE(out.find("ret"), std::string::npos);
  EXPECT_EQ(out.find("int3"), std::string::npos);
}

TEST(PrinterTest, UndecodableNoted) {
  const uint8_t code[] = {0x0f, 0xa2};
  const std::string out = isa::disassemble(code, 0);
  EXPECT_NE(out.find("undecodable"), std::string::npos);
}

TEST(PerfMapTest, WritesEntriesWhenEnabled) {
  setPerfMap(true);
  perfMapRegister(reinterpret_cast<const void*>(0x123400), 0x40,
                  "brew_test_symbol");
  setPerfMap(false);
  perfMapRegister(reinterpret_cast<const void*>(0x99), 1, "not_written");
  char path[64];
  std::snprintf(path, sizeof path, "/tmp/perf-%d.map", getpid());
  std::FILE* f = std::fopen(path, "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  char line[256];
  while (std::fgets(line, sizeof line, f)) content += line;
  std::fclose(f);
  EXPECT_NE(content.find("123400 40 brew_test_symbol"), std::string::npos);
  EXPECT_EQ(content.find("not_written"), std::string::npos);
}

// --- ExecMemory placement ---------------------------------------------
//
// ctest also runs this group with BREW_STRICT_WX=1
// (support_placement_strict_wx), which the library reads once per process,
// so both the dual and the single-mapping scheme are covered.

bool strictWx() {
  const char* v = std::getenv("BREW_STRICT_WX");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

// An anchor in this binary's text, as a specialization's subject would be.
int placementAnchor(int x) { return x + 1; }
const void* testAnchor() {
  return reinterpret_cast<const void*>(&placementAnchor);
}

// All of [code, code+size) shares the anchor's 4 GiB window and lies within
// rel32 reach of it.
bool inAnchorWindow(const void* anchor, const void* code, size_t size) {
  const auto a = reinterpret_cast<uintptr_t>(anchor);
  const auto lo = reinterpret_cast<uintptr_t>(code);
  const uintptr_t hi = lo + size;
  return (lo >> 32) == (a >> 32) && ((hi - 1) >> 32) == (a >> 32) &&
         std::max(hi, a) - std::min(lo, a) < (uintptr_t{1} << 31);
}

// `mov eax, 42; ret` into the region, finalized and called.
int runReturns42(ExecMemory& mem) {
  static const uint8_t kCode[] = {0xB8, 42, 0, 0, 0, 0xC3};
  std::memcpy(mem.writeView(), kCode, sizeof kCode);
  EXPECT_TRUE(mem.finalize().ok());
  return mem.entry<int (*)()>()();
}

uint64_t farMaps() {
  return telemetry::counter(telemetry::CounterId::ExecFarMaps).value();
}

TEST(ExecPlacement, AnchoredAllocationLandsInAnchorWindow) {
  const uint64_t far0 = farMaps();
  std::vector<ExecMemory> live;
  for (const size_t size : {size_t{64}, size_t{5000}, size_t{1} << 20}) {
    auto mem = ExecMemory::allocate(size, testAnchor());
    ASSERT_TRUE(mem.ok()) << mem.error().message();
    EXPECT_TRUE(inAnchorWindow(testAnchor(), mem->data(), mem->size()))
        << static_cast<const void*>(mem->data()) << " for anchor "
        << testAnchor();
    // The scheme is unchanged: only the executable view is placed.
    EXPECT_EQ(mem->writeView() == mem->data(), strictWx());
    EXPECT_EQ(runReturns42(*mem), 42);
    live.push_back(std::move(*mem));
  }
  EXPECT_EQ(farMaps(), far0);
  EXPECT_EQ(placementAnchor(1), 2);
}

TEST(ExecPlacement, SharedAdoptLandsInAnchorWindow) {
  const int fd = ::memfd_create("brew-placement-test", MFD_CLOEXEC);
  ASSERT_GE(fd, 0);
  // The code sits one page into the file, as a persisted entry's payload
  // sits after its header and tables.
  static const uint8_t kCode[] = {0xB8, 42, 0, 0, 0, 0xC3};
  ASSERT_EQ(::ftruncate(fd, 2 * 4096), 0);
  ASSERT_EQ(::pwrite(fd, kCode, sizeof kCode, 4096),
            static_cast<ssize_t>(sizeof kCode));
  auto mem = ExecMemory::adoptShared(fd, 4096, 4096, testAnchor());
  ::close(fd);
  ASSERT_TRUE(mem.ok()) << mem.error().message();
  EXPECT_TRUE(inAnchorWindow(testAnchor(), mem->data(), mem->size()));
  EXPECT_EQ(mem->entry<int (*)()>()(), 42);
}

TEST(ExecPlacement, SharedMapCycleReusesOneAddress) {
  // A shared mapping is unmapped on release, never pooled; the window's
  // search edge steps back with it, so a map/release cycle (one persisted
  // entry probed again and again) does not walk down the window.
  const int rw = ::memfd_create("brew-placement-cycle", MFD_CLOEXEC);
  ASSERT_GE(rw, 0);
  ASSERT_EQ(::ftruncate(rw, 4096), 0);
  // Read-only, like an entry file: the kernel then refuses to make the
  // mapping writable, so release cannot park it in the pool.
  const int fd = ::open(("/proc/self/fd/" + std::to_string(rw)).c_str(),
                        O_RDONLY | O_CLOEXEC);
  ::close(rw);
  ASSERT_GE(fd, 0);
  const uint8_t* first = nullptr;
  for (int i = 0; i < 3; ++i) {
    auto mem = ExecMemory::adoptShared(fd, 0, 4096, testAnchor());
    ASSERT_TRUE(mem.ok()) << mem.error().message();
    if (first == nullptr) first = mem->data();
    EXPECT_EQ(mem->data(), first) << "cycle " << i;
  }
  ::close(fd);
}

TEST(ExecPlacement, PooledRegionFromAnotherWindowIsNotHandedToNearRequest) {
  // A size no other test here uses, so the pool's only candidate is ours.
  constexpr size_t kSize = 7 * 4096 + 100;
  const uint8_t* farBase = nullptr;
  {
    auto far = ExecMemory::allocate(kSize);
    ASSERT_TRUE(far.ok());
    if (inAnchorWindow(testAnchor(), far->data(), far->size()))
      GTEST_SKIP() << "mmap placed unanchored code in the test's window";
    farBase = far->data();
  }  // parked in the region pool
  auto near = ExecMemory::allocate(kSize, testAnchor());
  ASSERT_TRUE(near.ok());
  EXPECT_NE(near->data(), farBase);
  EXPECT_TRUE(inAnchorWindow(testAnchor(), near->data(), near->size()));
  // The far region is still parked: an unanchored request takes it.
  auto any = ExecMemory::allocate(kSize);
  ASSERT_TRUE(any.ok());
  EXPECT_EQ(any->data(), farBase);
  EXPECT_EQ(runReturns42(*near), 42);
  EXPECT_EQ(runReturns42(*any), 42);
}

TEST(ExecPlacement, FallbackIsCountedAndStillRuns) {
  // An anchor in the kernel half of the address space: no user mapping
  // can go in its window, so the region must fall back.
  const auto* anchor =
      reinterpret_cast<const void*>(uintptr_t{0xffff900000001000});
  const uint64_t far0 = farMaps();
  auto mem = ExecMemory::allocate(100, anchor);
  ASSERT_TRUE(mem.ok()) << mem.error().message();
  EXPECT_EQ(farMaps(), far0 + 1);
  EXPECT_FALSE(inAnchorWindow(anchor, mem->data(), mem->size()));
  EXPECT_EQ(runReturns42(*mem), 42);
  // No anchor is no fallback.
  auto plain = ExecMemory::allocate(100);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(farMaps(), far0 + 1);
}

}  // namespace
}  // namespace brew
