#include "core/rewriter.hpp"

#include <cstdio>

#include "core/spec_manager.hpp"
#include "isa/printer.hpp"
#include "support/log.hpp"
#include "support/perf_map.hpp"
#include "support/profiler.hpp"
#include "support/telemetry.hpp"

#include <cstring>

namespace brew {

namespace {
const TraceStats kEmptyTraceStats{};
const ir::EmitStats kEmptyEmitStats{};

// The crash handler's disassembly window goes through this callback:
// support/ cannot link isa/, so the printer is plugged in from here (any
// binary that can rewrite can also disassemble its crash reports).
size_t crashDisassemble(const uint8_t* code, size_t size, uint64_t address,
                        char* out, size_t cap) {
  if (out == nullptr || cap == 0) return 0;
  const std::string text =
      isa::disassemble(std::span<const uint8_t>(code, size), address, 32);
  const size_t n = text.size() < cap - 1 ? text.size() : cap - 1;
  std::memcpy(out, text.data(), n);
  out[n] = '\0';
  return n;
}

struct CrashDisassemblerInit {
  CrashDisassemblerInit() { prof::setCrashDisassembler(&crashDisassemble); }
};
CrashDisassemblerInit g_crashDisassemblerInit;

// Folds one rewrite's per-instance stats into the process-wide registry.
void publishStats(const TraceStats& ts, const ir::EmitStats& es) {
  using telemetry::counter;
  using telemetry::CounterId;
  counter(CounterId::TraceInstructions).add(ts.tracedInstructions);
  counter(CounterId::TraceCaptured).add(ts.capturedInstructions);
  counter(CounterId::TraceElided).add(ts.elidedInstructions);
  counter(CounterId::TraceBlocks).add(ts.blocks);
  counter(CounterId::TraceInlinedCalls).add(ts.inlinedCalls);
  counter(CounterId::TraceKeptCalls).add(ts.keptCalls);
  counter(CounterId::TraceResolvedBranches).add(ts.resolvedBranches);
  counter(CounterId::TraceCapturedBranches).add(ts.capturedBranches);
  counter(CounterId::TraceMigrations).add(ts.migrations);
  counter(CounterId::BlocksStarted).add(ts.startedBlocks);
  counter(CounterId::BlocksChained).add(ts.chainedBlocks);
  counter(CounterId::BlocksReused).add(ts.reusedBlocks);
  counter(CounterId::BlocksMerged).add(ts.mergedBlocks);
  counter(CounterId::BlocksSideExits).add(ts.sideExits);
  counter(CounterId::EmitInstructions).add(es.instructions);
  counter(CounterId::EmitCodeBytes).add(es.codeBytes);
  counter(CounterId::EmitPoolBytes).add(es.poolBytes);
  counter(CounterId::EmitLoopLatches).add(es.loopLatches);
}
}  // namespace

const TraceStats& RewrittenFunction::traceStats() const {
  return handle_ ? handle_->traceStats : kEmptyTraceStats;
}

const ir::EmitStats& RewrittenFunction::emitStats() const {
  return handle_ ? handle_->emitStats : kEmptyEmitStats;
}

std::string RewrittenFunction::dumpCaptured() const {
  return handle_ ? handle_->captured.dump() : std::string{};
}

std::string RewrittenFunction::disassembly() const {
  if (!handle_) return {};
  const ExecMemory& memory = handle_->memory;
  return isa::disassemble(
      std::span<const uint8_t>(memory.data(), memory.size()),
      reinterpret_cast<uint64_t>(memory.data()),
      /*maxInstructions=*/100000);
}

Result<CodeHandle> compileSpecialization(const Config& config,
                                         const PassOptions& passes,
                                         const void* fn,
                                         std::span<const ArgValue> args,
                                         uint64_t variantTag) {
  if (fn == nullptr)
    return Error{ErrorCode::InvalidArgument, 0, "null function pointer"};

  using telemetry::counter;
  using telemetry::CounterId;
  using telemetry::histogram;
  using telemetry::HistogramId;

  counter(CounterId::RewriteAttempts).add();
  const bool tracing = telemetry::tracingEnabled();
  const uint64_t configFp = configKeyHash(config, passes);
  // Phase stamps use the raw TSC unless span tracing is on (spans need
  // wall-clock-aligned timestamps); deltas are converted once per phase.
  const auto stamp = [tracing]() {
    return tracing ? telemetry::nowNs() : telemetry::fastTicks();
  };
  const auto deltaNs = [tracing](uint64_t from, uint64_t to) {
    return tracing ? to - from : telemetry::ticksToNs(to - from);
  };
  const uint64_t t0 = stamp();

  Tracer tracer(config);
  auto captured = tracer.trace(reinterpret_cast<uint64_t>(fn), args);
  const uint64_t tTrace = stamp();
  if (!captured) {
    counter(CounterId::RewriteFailures).add();
    BREW_LOG_INFO("rewrite of %p failed: %s", fn,
                  captured.error().message().c_str());
    return captured.error();
  }

  runPasses(*captured, passes);
  const uint64_t tPasses = stamp();

  ir::EmitStats emitStats;
  auto memory = ir::emit(*captured, config.limits().maxCodeBytes, &emitStats);
  const uint64_t tEmit = stamp();
  if (!memory) {
    counter(CounterId::RewriteFailures).add();
    BREW_LOG_INFO("emit of %p failed: %s", fn,
                  memory.error().message().c_str());
    return memory.error();
  }

  // Install: provenance registration (region index + perf map / jitdump)
  // + block adoption.
  registerGeneratedCode(memory->data(), emitStats.codeBytes, fn,
                        variantTag != 0 ? variantTag : configFp);

  auto* block = new CodeBlock();
  block->memory = std::move(*memory);
  block->captured = std::move(*captured);
  block->traceStats = tracer.stats();
  block->emitStats = emitStats;
  const uint64_t tInstall = stamp();

  const TraceStats& ts = block->traceStats;
  publishStats(ts, emitStats);
  // The decoder runs interleaved with emulation, so the decode share is
  // accounted separately by the tracer and the emulate phase is the rest
  // of the trace window.
  const uint64_t traceWindow = deltaNs(t0, tTrace);
  const uint64_t decodeNs =
      ts.decodeNs < traceWindow ? ts.decodeNs : traceWindow;
  histogram(HistogramId::PhaseDecodeNs).record(decodeNs);
  histogram(HistogramId::PhaseEmulateNs).record(traceWindow - decodeNs);
  // Split of the trace window: decoder time, known-world-state bookkeeping
  // (snapshots/digests/meets, clocked by the tracer), and the emulation
  // rest. The three parts sum to the decode+emulate window by construction.
  const uint64_t shadowNs = ts.shadowNs < traceWindow - decodeNs
                                ? ts.shadowNs
                                : traceWindow - decodeNs;
  histogram(HistogramId::PhaseEmulateDecodeNs).record(decodeNs);
  histogram(HistogramId::PhaseEmulateShadowNs).record(shadowNs);
  histogram(HistogramId::PhaseEmulateExecNs)
      .record(traceWindow - decodeNs - shadowNs);
  histogram(HistogramId::PhasePassesNs).record(deltaNs(tTrace, tPasses));
  histogram(HistogramId::PhaseEmitNs).record(deltaNs(tPasses, tEmit));
  histogram(HistogramId::PhaseChainNs).record(emitStats.chainNs);
  histogram(HistogramId::PhaseInstallNs).record(deltaNs(tEmit, tInstall));
  histogram(HistogramId::RewriteNs).record(deltaNs(t0, tInstall));

  if (tracing) {
    telemetry::recordSpan("decode", t0, t0 + decodeNs);
    telemetry::recordSpan("emulate", t0 + decodeNs, tTrace);
    telemetry::recordSpan("passes", tTrace, tPasses);
    telemetry::recordSpan("emit", tPasses, tEmit);
    telemetry::recordSpan("install", tEmit, tInstall);
    char rewriteArgs[160];
    char fnName[96];
    perfSymbolName(fnName, sizeof fnName, fn, variantTag != 0 ? variantTag
                                                              : configFp);
    std::snprintf(rewriteArgs, sizeof rewriteArgs,
                  "\"fn\":\"%s\",\"config\":\"%016llx\",\"key\":\"%016llx\"",
                  fnName, static_cast<unsigned long long>(configFp),
                  static_cast<unsigned long long>(variantTag));
    telemetry::recordSpan("rewrite", t0, tInstall, rewriteArgs);
  }

  BREW_LOG_INFO(
      "rewrote %p: %zu traced, %zu captured, %zu elided, %zu blocks, "
      "%zu bytes",
      fn, ts.tracedInstructions, ts.capturedInstructions,
      ts.elidedInstructions, ts.blocks, block->emitStats.codeBytes);
  return CodeHandle::adopt(block);
}

Result<RewrittenFunction> Rewriter::rewrite(const void* fn,
                                            std::span<const ArgValue> args) {
  Result<CodeHandle> handle =
      manager_ != nullptr
          ? manager_->rewrite(config_, passOptions_, fn, args)
          : compileSpecialization(config_, passOptions_, fn, args);
  if (!handle.ok()) return handle.error();
  return RewrittenFunction(std::move(*handle));
}

}  // namespace brew
