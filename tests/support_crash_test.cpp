// Crash-attribution tests (support/profiler.hpp crash section): each test
// forks a child that executes a generated code blob built to fault, and
// asserts the child (a) died by the expected signal — the handler re-raises
// with the original disposition, it never swallows the crash — and (b) left
// a report naming the specialization, its fingerprint, and the flight
// recorder's recent events. Reports go to the child's stderr (inherited;
// scripts/check_observability.sh greps it there) and to the per-test
// BREW_CRASH_FILE path this suite reads back.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/rewriter.hpp"
#include "jit/assembler.hpp"
#include "support/flight_recorder.hpp"
#include "support/perf_map.hpp"
#include "support/profiler.hpp"

namespace brew {
namespace {

std::string readFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

std::string crashFilePath(const char* test) {
  return std::string("/tmp/brew_crash_test_") + test + "." +
         std::to_string(::getpid());
}

// Emits a blob that faults: `kind` selects ud2 (SIGILL) or a store through
// a null pointer (SIGSEGV). The blob is registered like any specialization
// so the handler can attribute the PC.
ExecMemory buildFaultingCode(int kind) {
  jit::Assembler as;
  if (kind == SIGILL) {
    static constexpr uint8_t ud2[] = {0x0f, 0x0b};
    as.emitBytes(ud2);
  } else {
    // xor edi, edi ; mov [rdi], rax — a store to address 0.
    static constexpr uint8_t storeNull[] = {0x31, 0xff, 0x48, 0x89, 0x07};
    as.emitBytes(storeNull);
  }
  as.ret();
  auto mem = as.finalizeExecutable();
  if (!mem.ok()) std::abort();
  return std::move(*mem);
}

// Forks; the child registers a faulting blob under `name`, stamps a flight
// event, points the crash report at `reportPath` and jumps into the blob.
// Returns the signal that killed the child (0 on anomaly).
int runCrashChild(int kind, const char* name, const std::string& reportPath) {
  const pid_t pid = ::fork();
  if (pid < 0) return 0;
  if (pid == 0) {
    ExecMemory code = buildFaultingCode(kind);
    registerGeneratedCode(code.data(), code.size(),
                          reinterpret_cast<const void*>(&runCrashChild),
                          0xfeedf00dULL, name);
    prof::setCrashFile(reportPath.c_str());
    flight::record(flight::Event::TestMark, 0x7e57, 1);
    reinterpret_cast<void (*)()>(code.data())();
    ::_exit(0);  // unreachable: the blob faults
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return 0;
  return WIFSIGNALED(status) ? WTERMSIG(status) : 0;
}

TEST(CrashAttribution, SigillInGeneratedCodeIsAttributed) {
  const std::string path = crashFilePath("sigill");
  ASSERT_EQ(runCrashChild(SIGILL, "ud2", path), SIGILL);

  const std::string report = readFile(path);
  ASSERT_FALSE(report.empty()) << "child wrote no crash report";
  EXPECT_NE(report.find("=== brew crash report (SIGILL) ==="),
            std::string::npos);
  // Attribution: the registered provenance name and fingerprint.
  EXPECT_NE(report.find("specialization: "), std::string::npos);
  EXPECT_NE(report.find("ud2"), std::string::npos);
  EXPECT_NE(report.find("config_fingerprint: 0xfeedf00d"), std::string::npos);
  EXPECT_NE(report.find("region: base=0x"), std::string::npos);
  // Runtime history: the flight dump including the child's own marker.
  EXPECT_NE(report.find("flight recorder"), std::string::npos);
  EXPECT_NE(report.find("test.mark"), std::string::npos);
  // Code bytes: the hex window marks the faulting instruction.
  EXPECT_NE(report.find("--- code window ---"), std::string::npos);
  EXPECT_NE(report.find(">0f"), std::string::npos);  // PC at the ud2
  EXPECT_NE(report.find("=== end brew crash report ==="), std::string::npos);
  std::remove(path.c_str());
}

TEST(CrashAttribution, SigsegvNamesFaultAddress) {
  const std::string path = crashFilePath("sigsegv");
  ASSERT_EQ(runCrashChild(SIGSEGV, "nullstore", path), SIGSEGV);

  const std::string report = readFile(path);
  ASSERT_FALSE(report.empty()) << "child wrote no crash report";
  EXPECT_NE(report.find("=== brew crash report (SIGSEGV) ==="),
            std::string::npos);
  EXPECT_NE(report.find("nullstore"), std::string::npos);
  // The store targets address 0.
  EXPECT_NE(report.find("fault_addr: 0x0 "), std::string::npos);
  std::remove(path.c_str());
}

TEST(CrashAttribution, ForeignCrashIsNotClaimed) {
  // A fault with its PC outside every registered region must pass straight
  // through to the default disposition without a brew report: attribution
  // must never claim code it does not own.
  const std::string path = crashFilePath("foreign");
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Register a region (installs the handler), then fault in plain C++.
    static const uint8_t blob[16] = {0xc3};
    prof::registerCodeRegion(blob, sizeof blob, "bystander", 1);
    prof::setCrashFile(path.c_str());
    volatile int* p = nullptr;
    *p = 42;  // SIGSEGV with PC in this test binary, not in `blob`
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);
  EXPECT_EQ(readFile(path), "") << "handler claimed a foreign crash";
  std::remove(path.c_str());
}

TEST(CrashAttribution, ReportIncludesDisassemblyWhenRegistered) {
  // rewriter.cpp static-registers the disassembler callback; referencing a
  // symbol it defines forces its object (and that initializer) into this
  // binary, so child reports carry a disassembly section, not just hex.
  auto* volatile forceLink = &compileSpecialization;
  (void)forceLink;
  const std::string path = crashFilePath("disasm");
  ASSERT_EQ(runCrashChild(SIGILL, "disasmcase", path), SIGILL);
  const std::string report = readFile(path);
  ASSERT_FALSE(report.empty());
  EXPECT_NE(report.find("--- disassembly ---"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace brew
