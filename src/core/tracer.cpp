#include "core/tracer.hpp"

#include <algorithm>
#include <cstring>

#include "isa/decode_cache.hpp"
#include "isa/decoder.hpp"
#include "isa/printer.hpp"
#include "support/log.hpp"
#include "support/memory_map.hpp"
#include "support/telemetry.hpp"

namespace brew {

using emu::Tag;
using emu::Value;
using isa::Cond;
using isa::Family;
using isa::Instruction;
using isa::makeInstr;
using isa::MemOperand;
using isa::Mnemonic;
using isa::Operand;
using isa::Reg;

namespace {

bool fitsS32(int64_t v) { return v >= INT32_MIN && v <= INT32_MAX; }

// Can a known GPR value be folded into an immediate operand of `width`?
// For width 8 the immediate field is sign-extended imm32.
bool immFoldable(uint64_t bits, unsigned width) {
  if (width == 8) return fitsS32(static_cast<int64_t>(bits));
  return true;  // narrower widths truncate anyway
}

Value readLane(const emu::XmmValue& x, bool high) { return high ? x.hi : x.lo; }

// Accumulates wall time into a TraceStats field across early returns
// (phase.emulate_shadow_ns attribution).
// Accumulates elapsed TSC ticks into `sink`; the tracer converts the total
// to nanoseconds once per trace. Two of these run per basic block, so the
// cheap tick source matters (rdtsc vs clock_gettime is ~15ns per reading).
struct TickAccumulator {
  uint64_t& sink;
  uint64_t start;
  explicit TickAccumulator(uint64_t& s)
      : sink(s), start(telemetry::fastTicks()) {}
  ~TickAccumulator() { sink += telemetry::fastTicks() - start; }
};

}  // namespace

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

Result<ir::CapturedFunction> Tracer::trace(uint64_t fn,
                                           std::span<const ArgValue> args) {
  entryFunction_ = fn;
  emu::KnownWorldState initial;

  // Assign arguments to System V registers in signature order.
  size_t intIndex = 0, sseIndex = 0;
  for (size_t i = 0; i < args.size(); ++i) {
    const ParamSpec spec =
        (i < Config::kMaxParams) ? config_.param(i) : ParamSpec{};
    const bool isFloat = spec.isFloat || args[i].isFloat;
    if (isFloat) {
      if (sseIndex >= 8)
        return Error{ErrorCode::InvalidArgument, fn, "too many SSE args"};
      const Reg reg = isa::abi::kSseArgs[sseIndex++];
      if (spec.kind != ParamKind::Unknown) {
        // Known parameters are baked in, not read from the argument
        // register: callers of the rewritten function may pass anything
        // there (paper Fig. 3 "ignores value 1"), so the register is
        // treated as unmaterialized and the constant folds/materializes.
        initial.xmm(reg).lo = Value::known(args[i].bits, false);
        initial.xmm(reg).hi = Value::known(0, false);
      }
    } else {
      if (intIndex >= 6)
        return Error{ErrorCode::InvalidArgument, fn, "too many int args"};
      const Reg reg = isa::abi::kIntArgs[intIndex++];
      if (spec.kind != ParamKind::Unknown)
        initial.gpr(reg) = Value::known(args[i].bits, false);
      if (spec.kind == ParamKind::KnownPtr && spec.pointeeSize > 0) {
        // The pointed-to data is declared constant; register it so loads
        // through this pointer fold (the user's brew_setmem can add more).
        extraRegions_.push_back(
            MemRegion{args[i].bits, args[i].bits + spec.pointeeSize});
      }
    }
  }

  auto entryVariant = getOrCreateVariant(fn, initial, fn);
  if (!entryVariant) return entryVariant.error();
  out_.setEntry(entryVariant->blockId);
  // What a `ret` hands back, for the passes' register liveness.
  const ReturnKind ret = config_.returnKind();
  out_.setLiveAtRet(ir::liveAtRetMask(
      ret != ReturnKind::Float && ret != ReturnKind::Void,
      ret != ReturnKind::Int && ret != ReturnKind::Void));

  if (config_.injection().onEntry != nullptr) {
    // Instrumentation goes into the entry block before anything else.
    curId_ = entryVariant->blockId;
    st_ = initial;
    currentFunction_ = fn;
    emitInjectedCall(config_.injection().onEntry, fn);
  }

  // Decode time and cache activity are accounted as deltas of the
  // thread-local decode-cache stats across the whole trace loop.
  const isa::DecodeCacheStats decodeBefore = isa::decodeCacheThreadStats();
  auto& queueDepth =
      telemetry::histogram(telemetry::HistogramId::TraceQueueDepth);
  while (!queue_.empty()) {
    queueDepth.record(queue_.size());
    Pending pending = std::move(queue_.front());
    queue_.pop_front();
    if (Status s = traceBlock(std::move(pending)); !s) return s.error();
  }
  const isa::DecodeCacheStats& decodeAfter = isa::decodeCacheThreadStats();
  // Miss time is exact; hit time is the 1-in-64 sampled estimate, so warm
  // traces (all hits) still report a nonzero decode share.
  stats_.decodeNs = (decodeAfter.missNs - decodeBefore.missNs) +
                    (decodeAfter.hitNs - decodeBefore.hitNs);
  stats_.decodeCacheHits = decodeAfter.hits - decodeBefore.hits;
  stats_.decodeCacheMisses = decodeAfter.misses - decodeBefore.misses;
  telemetry::counter(telemetry::CounterId::DecodeCacheHits)
      .add(stats_.decodeCacheHits);
  telemetry::counter(telemetry::CounterId::DecodeCacheMisses)
      .add(stats_.decodeCacheMisses);
  stats_.blocks = static_cast<size_t>(out_.blockCount());
  stats_.shadowNs = telemetry::ticksToNs(shadowTicks_);
  return std::move(out_);
}

// ---------------------------------------------------------------------------
// Block queue and variants (§III-F, §III-G)
// ---------------------------------------------------------------------------

Result<Tracer::VariantRef> Tracer::getOrCreateVariant(
    uint64_t address, const emu::KnownWorldState& state,
    uint64_t currentFunction, OnMiss mode, int forkDepth) {
  TickAccumulator timeShadow(shadowTicks_);
  markSeen(address);
  auto& list = variantsFor(address);
  // Digest prefilter: unrolling can create thousands of variants per
  // address, and then full content comparison should only run on hash
  // hits. But hashing the whole register file costs more than a handful
  // of sameContent early-exits, so short lists skip it entirely; digests
  // are computed lazily (0 = not yet computed) once a list grows past the
  // threshold.
  constexpr size_t kDigestThreshold = 8;
  const bool useDigest = list.size() >= kDigestThreshold;
  const uint64_t digest = useDigest ? state.quickDigest() : 0;
  for (Variant& v : list) {
    if (useDigest) {
      if (v.digest == 0) v.digest = v.state->quickDigest();
      if (v.digest != digest) continue;
    }
    if (!v.state->sameContent(state)) continue;
    // Content matches, but the target block may have been traced assuming
    // some locations are live in the runtime registers (materialized)
    // while the current path kept them folded. Emit compensation
    // materializations; these go into the current block and are valid for
    // any sibling path because they only realize values the shared state
    // already knows. Flags cannot be materialized: a mismatch there
    // rejects the variant (`state` aliases st_ for every caller that can
    // reach an existing variant, so the helpers below act on st_).
    if (v.state->flags().known != 0 && v.state->flags().materialized &&
        !st_.flags().materialized)
      continue;
    bool ok = true;
    for (unsigned i = 0; i < 16 && ok; ++i) {
      const Reg r = isa::gprFromNum(i);
      const Value& want = v.state->gpr(r);
      Value& have = st_.gpr(r);
      if (!want.isUnknown() && want.materialized && !have.materialized) {
        Status status =
            have.isStackRel() ? materializeStackRel(r) : materializeGpr(r);
        if (!status) ok = false;
      }
      const Reg x = isa::xmmFromNum(i);
      const emu::XmmValue& wantX = v.state->xmm(x);
      emu::XmmValue& haveX = st_.xmm(x);
      if (((wantX.lo.isKnown() && wantX.lo.materialized &&
            !haveX.lo.materialized) ||
           (wantX.hi.isKnown() && wantX.hi.materialized &&
            !haveX.hi.materialized))) {
        if (Status status = materializeXmmLo(x); !status) ok = false;
      }
    }
    if (!ok) continue;  // cannot adapt to this variant; try another
    ++stats_.reusedBlocks;
    return VariantRef{v.blockId, false, false};
  }

  // Reconvergence (docs/BLOCKS.md): instead of tracing a second variant of
  // a join both fork arms reach, weaken a still-pending variant's entry
  // state to the meet of the two states. The meet is only taken when every
  // fact it drops is already realized on the edge that knew it; the
  // incoming edge's unrealized facts get compensation code here (valid for
  // this edge only — it goes into the current block).
  if (pendingCount_ > 0 && curId_ >= 0) {
    for (Variant& v : list) {
      if (!v.pending) continue;
      const emu::IntersectPlan plan = emu::planIntersect(*v.state, st_);
      if (!plan.feasible) continue;
      bool ok = true;
      for (unsigned i = 0; i < 16 && ok; ++i) {
        if (plan.materializeGprs & (1u << i)) {
          const Reg r = isa::gprFromNum(i);
          Status s = st_.gpr(r).isStackRel() ? materializeStackRel(r)
                                             : materializeGpr(r);
          if (!s) ok = false;
        }
        if (ok && (plan.materializeXmms & (1u << i))) {
          if (Status s = materializeXmmLanes(isa::xmmFromNum(i)); !s)
            ok = false;
        }
      }
      if (!ok) continue;  // compensation failed; fork normally
      v.state->intersectWith(st_);
      v.digest = 0;  // weakened: recompute lazily if the list grows
      out_.block(v.blockId).stateDigest = 0;
      ++stats_.mergedBlocks;
      return VariantRef{v.blockId, false, false};
    }
  }

  if (static_cast<int>(list.size()) >=
      config_.limits().maxVariantsPerAddress)
    return migrateToVariant(address, state, currentFunction, forkDepth);

  if (out_.blockCount() >= static_cast<int>(config_.limits().maxBlocks))
    return Error{ErrorCode::VariantLimit, address, "block limit exceeded"};

  const int id = out_.newBlock(address, digest);
  ++stats_.startedBlocks;
  auto snapshot = std::make_unique<emu::KnownWorldState>(state);
  if (mode == OnMiss::Inline) {
    // The caller keeps tracing into the block right now with `state`
    // (which is st_): no queue round-trip, no restore, not weakenable.
    list.push_back(Variant{digest, id, false, std::move(snapshot)});
    return VariantRef{id, true, true};
  }
  queueInsert(Pending{address, id, currentFunction, snapshot.get(),
                      forkDepth});
  list.push_back(Variant{digest, id, true, std::move(snapshot)});
  ++pendingCount_;
  return VariantRef{id, true, false};
}

void Tracer::queueInsert(Pending pending) {
  auto it = std::upper_bound(
      queue_.begin(), queue_.end(), pending.address,
      [](uint64_t addr, const Pending& p) { return addr < p.address; });
  queue_.insert(it, std::move(pending));
}

Result<Tracer::VariantRef> Tracer::migrateToVariant(
    uint64_t address, emu::KnownWorldState state, uint64_t currentFunction,
    int forkDepth) {
  auto& list = variantsFor(address);

  // Candidates must agree on the shadow call stack (same continuation).
  auto callStackMatches = [&](const Variant& v) {
    const auto& a = v.state->callStack();
    const auto& b = state.callStack();
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i)
      if (a[i].returnAddress != b[i].returnAddress) return false;
    return true;
  };

  const Variant* best = nullptr;
  int bestScore = -1;
  for (const Variant& v : list) {
    if (!callStackMatches(v)) continue;
    int score = 0;
    for (unsigned i = 0; i < 16; ++i) {
      const Reg r = isa::gprFromNum(i);
      if (v.state->gpr(r).sameContent(state.gpr(r))) ++score;
      if (v.state->xmm(isa::xmmFromNum(i)).sameContent(
              state.xmm(isa::xmmFromNum(i))))
        ++score;
    }
    if (score > bestScore) {
      bestScore = score;
      best = &v;
    }
  }
  if (best == nullptr)
    return Error{ErrorCode::VariantLimit, address,
                 "variant threshold hit with incompatible call stacks"};

  // Build the generalized state G: keep locations that agree, drop the rest
  // to unknown. Dropping requires the runtime to hold the value, so
  // known-but-unmaterialized locations get compensation code (emitted into
  // the current block, valid for the fall-through sibling too because it
  // shares this state).
  emu::KnownWorldState general = state;
  for (unsigned i = 0; i < 16; ++i) {
    const Reg r = isa::gprFromNum(i);
    if (!best->state->gpr(r).sameContent(state.gpr(r))) {
      const Value& v = state.gpr(r);
      if (!v.isUnknown() && !v.materialized) {
        Status s = v.isStackRel() ? materializeStackRel(r) : materializeGpr(r);
        if (!s) return s.error();
      }
      general.gpr(r) = Value::unknown();
    }
    const Reg x = isa::xmmFromNum(i);
    if (!best->state->xmm(x).sameContent(state.xmm(x))) {
      const emu::XmmValue& v = state.xmm(x);
      if ((v.lo.isKnown() && !v.lo.materialized) ||
          (v.hi.isKnown() && !v.hi.materialized)) {
        if (Status s = materializeXmmLo(x); !s) return s.error();
        // materializeXmmLo zeroes the high lane; reflected in st_, mirror it.
        general.xmm(x) = st_.xmm(x);
      }
      general.xmm(x) = emu::XmmValue::unknown();
    }
  }
  if (best->state->flags().known != state.flags().known ||
      ((best->state->flags().values ^ state.flags().values) &
       best->state->flags().known) != 0) {
    if (state.flags().known != 0 && !state.flags().materialized) {
      // Stale flags (elided writer) that disagree with the candidate:
      // meet per bit. Agreeing bits stay known (branches on them resolve
      // identically on every path); the rest drop to unknown while
      // staying unmaterialized, so a later captured consumer fails the
      // trace cleanly instead of reading garbage runtime flags.
      emu::FlagsState& gf = general.flags();
      const emu::FlagsState& bf = best->state->flags();
      const uint8_t agree =
          bf.known & gf.known & static_cast<uint8_t>(~(bf.values ^ gf.values));
      gf.known = agree;
      gf.values &= agree;
      gf.materialized = gf.materialized && bf.materialized;
    } else {
      general.flags().clobber();
    }
  }
  if (!best->state->stack().sameContent(state.stack())) {
    // Shadow bytes are always materialized (stores are captured), so the
    // runtime stack already holds everything; dropping knowledge is free.
    general.stack().clobber();
    // Re-add the bytes both states agree on.
    best->state->stack().forEachKnownByte(
        [&](int64_t off, uint8_t byteValue, bool) {
          const Value mine = state.stack().read(off, 1);
          if (mine.isKnown() && static_cast<uint8_t>(mine.bits) == byteValue)
            general.stack().write(off, 1, Value::known(byteValue, true));
        });
    for (const auto& [off, slot] : best->state->stack().stackRelSlots()) {
      const Value mine = state.stack().read(off, 8);
      if (mine.sameContent(slot)) general.stack().write(off, 8, mine);
    }
  }

  ++stats_.migrations;
  // The generalized state may match an existing variant; otherwise a new
  // one is created (allowed past the threshold — each migration strictly
  // reduces knowledge, so the chain terminates at the all-unknown state).
  for (const Variant& v : list)
    if (v.state->sameContent(general))
      return VariantRef{v.blockId, false, false};
  if (out_.blockCount() >= static_cast<int>(config_.limits().maxBlocks))
    return Error{ErrorCode::VariantLimit, address, "block limit exceeded"};
  const int id = out_.newBlock(address, 0);
  ++stats_.startedBlocks;
  auto snapshot =
      std::make_unique<emu::KnownWorldState>(std::move(general));
  queueInsert(Pending{address, id, currentFunction, snapshot.get(),
                      forkDepth});
  list.push_back(Variant{0, id, true, std::move(snapshot)});
  ++pendingCount_;
  return VariantRef{id, true, false};
}

// ---------------------------------------------------------------------------
// Block tracing loop
// ---------------------------------------------------------------------------

Status Tracer::traceBlock(Pending pending) {
  {
    // The block is no longer pending (weakenable) once tracing starts, and
    // the entry-state restore is known-world bookkeeping time.
    TickAccumulator timeShadow(shadowTicks_);
    for (Variant& v : variantsFor(pending.address)) {
      if (v.blockId == pending.blockId && v.pending) {
        v.pending = false;
        --pendingCount_;
        break;
      }
    }
    st_ = *pending.entryState;
  }
  currentFunction_ = pending.currentFunction;
  curId_ = pending.blockId;
  forkDepth_ = pending.forkDepth;
  blockDone_ = false;
  chainPending_ = false;

  uint64_t address = pending.address;
  // `entered` suppresses the fall-in check for an address we arrived at via
  // an explicit edge (block entry, chain, inline continue) — it is a block
  // start, but the current output block IS that block.
  bool entered = true;
  while (!blockDone_) {
    if (!entered && isBlockStart(address)) {
      // Fell through into a known block start (e.g. a join already traced
      // or pending): close/merge via the edge machinery instead of
      // duplicating the join's tail.
      if (Status s = continueAt(address); !s) return s.error();
      if (chainPending_) {
        // continueAt chose to keep tracing inline at the same address.
        chainPending_ = false;
        entered = true;
        continue;
      }
      break;
    }
    entered = false;
    if (++stats_.tracedInstructions > config_.limits().maxTraceSteps)
      return Error{ErrorCode::TraceStepLimit, address,
                   "trace step limit (endless unrolling?)"};
    // Early code-budget check: 2 bytes is a hard lower bound per captured
    // instruction, so exceeding it here guarantees the emitter would too.
    if (stats_.capturedInstructions * 2 > config_.limits().maxCodeBytes)
      return Error{ErrorCode::CodeBufferFull, address,
                   "captured code exceeds the configured maximum"};
    auto decoded = decode_.at(address);
    if (!decoded) return decoded.error();
    // The pointer stays valid until the next decode; traceOne consumes the
    // instruction fully before this loop comes back around.
    const Instruction& in = **decoded;
    const uint64_t next = address + in.length;
    BREW_LOG_TRACE("0x%llx: %s", static_cast<unsigned long long>(address),
                   isa::toString(in).c_str());
    traceAddr_ = address;
    if (Status s = traceOne(in, next); !s) return s.error();
    if (chainPending_) {
      // continueAt redirected the trace (resolved jump, inline call/ret,
      // or a freshly opened inline block): keep going in this loop.
      chainPending_ = false;
      address = chainTo_;
      entered = true;
    } else {
      address = next;
    }
  }
  return Status::okStatus();
}

Status Tracer::traceOne(const Instruction& in, uint64_t next) {
  switch (isa::row(in.mnemonic).family) {
    case Family::Nop: return Status::okStatus();
    case Family::Mov: return traceMov(in, next);
    case Family::Lea: return traceLea(in, next);
    case Family::Push: return tracePush(in, next);
    case Family::Pop: return tracePop(in, next);
    case Family::GprArith: return traceGprArith(in, next);
    case Family::WideMulDiv: return traceWideMulDiv(in, next);
    case Family::CmovSetcc: return traceCmovSetcc(in, next);
    case Family::Branch: return traceBranch(in, next);
    case Family::SseMove: case Family::SseScalar: case Family::SsePacked:
    case Family::SseLogic: case Family::SseShuffle: case Family::SseCompare:
    case Family::SseConvert:
      return traceSse(in, next);
    case Family::None: break;
  }
  return Error{ErrorCode::UnsupportedInstruction, in.address,
               isa::row(in.mnemonic).name};
}

// ---------------------------------------------------------------------------
// Control flow
// ---------------------------------------------------------------------------

int64_t Tracer::rspOffset() const {
  return st_.gpr(Reg::rsp).stackOffset();
}

bool Tracer::inKnownRegion(uint64_t addr, unsigned width) const {
  if (config_.isKnownRegion(addr, width)) return true;
  for (const MemRegion& r : extraRegions_)
    if (r.contains(addr, width)) return true;
  return false;
}

Status Tracer::checkStackAccess(int64_t offset, uint64_t guestAddr) const {
  // Inside an inlined callee, offsets at or above the callee's entry rsp
  // address the (nonexistent) return-address slot or stack arguments.
  if (!st_.callStack().empty() &&
      offset >= st_.callStack().back().entrySpOffset)
    return Error{ErrorCode::NonInlinableCall, guestAddr,
                 "inlined callee touches return-address/stack-arg area"};
  return Status::okStatus();
}

Status Tracer::continueAt(uint64_t address) {
  // Ordering guard: while forks are outstanding, only chain to addresses
  // that stay below every pending block, so the queue's program-order
  // processing is preserved and joins are still pending (mergeable) when
  // the later arm reaches them. Fork-free traces chain unrestricted.
  const bool ordered = queue_.empty() || address < queue_.front().address;

  if (ordered && address > traceAddr_ && !isBlockStart(address)) {
    // Chain: the edge is strictly forward in program order (terminates)
    // and the target was never a block start, so keep tracing inline in
    // the current output block — no snapshot, no digest, no queue.
    markSeen(address);
    ++stats_.chainedBlocks;
    ++stats_.startedBlocks;
    chainPending_ = true;
    chainTo_ = address;
    return Status::okStatus();
  }

  const OnMiss mode = ordered ? OnMiss::Inline : OnMiss::Queue;
  auto v = getOrCreateVariant(address, st_, currentFunction_, mode,
                              forkDepth_);
  if (!v) return v.error();
  ir::Block& block = out_.block(curId_);
  block.term.kind = ir::Terminator::Kind::Jmp;
  block.term.taken = v->blockId;
  if (v->inlineContinue) {
    // Fresh block, no compatible variant: keep tracing into it right now
    // with the current state (st_ is its entry snapshot's source).
    curId_ = v->blockId;
    chainPending_ = true;
    chainTo_ = address;
    return Status::okStatus();
  }
  blockDone_ = true;
  return Status::okStatus();
}

Status Tracer::endBlockCond(Cond cond, uint64_t takenAddress,
                            uint64_t fallAddress) {
  ++stats_.capturedBranches;
  auto taken = getOrCreateVariant(takenAddress, st_, currentFunction_,
                                  OnMiss::Queue, forkDepth_ + 1);
  if (!taken) return taken.error();
  auto fall = getOrCreateVariant(fallAddress, st_, currentFunction_,
                                 OnMiss::Queue, forkDepth_ + 1);
  if (!fall) return fall.error();
  ir::Block& block = out_.block(curId_);
  block.term.kind = ir::Terminator::Kind::CondJmp;
  block.term.cond = cond;
  block.term.taken = taken->blockId;
  block.term.fall = fall->blockId;
  blockDone_ = true;
  return Status::okStatus();
}

Status Tracer::endBlockRet() {
  if (Status s = materializeForReturn(); !s) return s;
  if (config_.injection().onExit != nullptr)
    emitInjectedCall(config_.injection().onExit, entryFunction_);
  ir::Block& block = out_.block(curId_);
  block.term.kind = ir::Terminator::Kind::Ret;
  blockDone_ = true;
  return Status::okStatus();
}

bool Tracer::trySideExit(const isa::Instruction& in) {
  // A side exit re-enters the ORIGINAL code at the branch, so the runtime
  // state there must be exactly the architectural state: no inlined frames
  // left to unwind, real flags, a tracked-and-real rsp, and every known
  // stack byte/slot already written through to the runtime stack.
  if (!st_.callStack().empty()) return false;
  if (!st_.flags().materialized) return false;
  const Value rsp = st_.gpr(Reg::rsp);
  if (!rsp.isStackRel() || !rsp.materialized) return false;
  bool stackReal = true;
  st_.stack().forEachKnownByte([&](int64_t, uint8_t, bool materialized) {
    if (!materialized) stackReal = false;
  });
  if (!stackReal) return false;
  for (const auto& [off, slot] : st_.stack().stackRelSlots()) {
    (void)off;
    if (!slot.materialized) return false;
  }
  // Realize every known-but-folded register. A failure mid-way is fine:
  // the caller falls back to a normal fork, and the materializations
  // already emitted only realize values the shared state knows.
  for (unsigned i = 0; i < 16; ++i) {
    const Reg r = isa::gprFromNum(i);
    const Value& v = st_.gpr(r);
    if (!v.isUnknown() && !v.materialized) {
      Status s = v.isStackRel() ? materializeStackRel(r) : materializeGpr(r);
      if (!s) return false;
    }
    if (Status s = materializeXmmLanes(isa::xmmFromNum(i)); !s) return false;
  }
  ir::Block& block = out_.block(curId_);
  block.term.kind = ir::Terminator::Kind::SideExit;
  block.term.guestTarget = in.address;
  block.term.poolSlot = out_.addPoolConstant(in.address);
  ++stats_.sideExits;
  blockDone_ = true;
  return true;
}

Status Tracer::traceBranch(const Instruction& in, uint64_t next) {
  const FunctionOptions opts = policy();
  switch (in.mnemonic) {
    case Mnemonic::Jmp: {
      const uint64_t target = static_cast<uint64_t>(in.ops[0].imm);
      if (!config_.functionOptions(target).inlineCalls &&
          target != currentFunction_) {
        // Tail call to a function configured not-to-inline: keep the
        // transfer. The callee returns straight to our caller.
        if (Status s = materializeForCall(in.address); !s) return s;
        ++stats_.keptCalls;
        Instruction tgt =
            makeInstr(Mnemonic::Mov, 8, Operand::makeReg(Reg::r11),
                      Operand::makeImm(static_cast<int64_t>(target)));
        tgt.absCode = true;
        capture(tgt);
        capture(makeInstr(Mnemonic::JmpInd, 8, Operand::makeReg(Reg::r11)));
        out_.block(curId_).term.kind = ir::Terminator::Kind::Stop;
        blockDone_ = true;
        return Status::okStatus();
      }
      ++stats_.resolvedBranches;
      return continueAt(target);
    }

    case Mnemonic::JmpInd: {
      auto target = readOperand(in, in.ops[0], 8, next);
      if (!target) return target.error();
      if (target->isKnown()) {
        if (!config_.functionOptions(target->bits).inlineCalls &&
            target->bits != currentFunction_) {
          if (Status s = materializeForCall(in.address); !s) return s;
          ++stats_.keptCalls;
          Instruction tgt = makeInstr(
              Mnemonic::Mov, 8, Operand::makeReg(Reg::r11),
              Operand::makeImm(static_cast<int64_t>(target->bits)));
          tgt.absCode = true;
          capture(tgt);
          capture(
              makeInstr(Mnemonic::JmpInd, 8, Operand::makeReg(Reg::r11)));
          out_.block(curId_).term.kind = ir::Terminator::Kind::Stop;
          blockDone_ = true;
          return Status::okStatus();
        }
        ++stats_.resolvedBranches;
        return continueAt(target->bits);
      }
      return Error{ErrorCode::IndirectUnknownJump, in.address,
                   "indirect jump with unknown target"};
    }

    case Mnemonic::Jcc: {
      const uint8_t needed = isa::condFlagsRead(in.cond);
      const bool known = st_.flags().isKnown(needed);
      const bool preferCapture =
          opts.forceUnknownResults && st_.flags().materialized;
      if (known && !preferCapture) {
        ++stats_.resolvedBranches;
        const bool taken = emu::evalCond(in.cond, st_.flags().values);
        return continueAt(taken ? static_cast<uint64_t>(in.ops[0].imm)
                                : next);
      }
      if (!known && !st_.flags().materialized)
        return Error{ErrorCode::UnsupportedInstruction, in.address,
                     "branch on flags of an elided instruction"};
      if (forkDepth_ >= config_.limits().maxForkDepth && trySideExit(in))
        return Status::okStatus();
      return endBlockCond(in.cond, static_cast<uint64_t>(in.ops[0].imm),
                          next);
    }

    case Mnemonic::Call:
    case Mnemonic::CallInd: {
      uint64_t target = 0;
      bool targetKnown = false;
      if (in.mnemonic == Mnemonic::Call) {
        target = static_cast<uint64_t>(in.ops[0].imm);
        targetKnown = true;
      } else {
        auto tv = readOperand(in, in.ops[0], 8, next);
        if (!tv) return tv.error();
        if (tv->isKnown()) {
          target = tv->bits;
          targetKnown = true;
        }
      }
      if (targetKnown) {
        const FunctionOptions calleeOpts = config_.functionOptions(target);
        if (calleeOpts.inlineCalls) {
          if (static_cast<int>(st_.callStack().size()) >=
              config_.limits().maxInlineDepth)
            return Error{ErrorCode::InlineDepthLimit, in.address, ""};
          ++stats_.inlinedCalls;
          st_.callStack().push_back(emu::CallFrame{
              next, currentFunction_, target, rspOffset()});
          currentFunction_ = target;
          return continueAt(target);
        }
        // Kept call to a known target: movabs r11, target; call r11.
        if (Status s = materializeForCall(in.address); !s) return s;
        ++stats_.keptCalls;
        Instruction tgt =
            makeInstr(Mnemonic::Mov, 8, Operand::makeReg(Reg::r11),
                      Operand::makeImm(static_cast<int64_t>(target)));
        tgt.absCode = true;
        capture(tgt);
        capture(makeInstr(Mnemonic::CallInd, 8, Operand::makeReg(Reg::r11)));
        st_.applyCallClobbers(!calleeOpts.pure);
        if (calleeOpts.pure) st_.stack().clobberBelow(rspOffset());
        return Status::okStatus();
      }
      // Unknown indirect call: keep it; the register/memory operand holds
      // the runtime target.
      if (Status s = materializeForCall(in.address); !s) return s;
      ++stats_.keptCalls;
      Instruction kept = in;
      if (kept.ops[0].isMem()) {
        if (Status s = prepareMemOperand(kept.ops[0].mem, next, false); !s)
          return s;
      } else if (kept.ops[0].isReg()) {
        if (Status s = prepareRegOperand(kept.ops[0], 8, false); !s) return s;
      }
      capture(kept);
      st_.applyCallClobbers(true);
      return Status::okStatus();
    }

    case Mnemonic::Ret: {
      if (in.nops == 1 && in.ops[0].imm != 0)
        return Error{ErrorCode::UnsupportedInstruction, in.address,
                     "ret imm16"};
      if (st_.callStack().empty()) return endBlockRet();
      const emu::CallFrame frame = st_.callStack().back();
      st_.callStack().pop_back();
      currentFunction_ = frame.callerFunction;
      return continueAt(frame.returnAddress);
    }

    case Mnemonic::Leave: {
      // leave = mov rsp, rbp; pop rbp — the runtime rbp must be real.
      const Value rbp = st_.gpr(Reg::rbp);
      if (!rbp.isStackRel())
        return Error{ErrorCode::UnknownStackPointer, in.address,
                     "leave with untracked frame pointer"};
      if (!rbp.materialized)
        if (Status s = materializeStackRel(Reg::rbp); !s) return s;
      capture(makeInstr(Mnemonic::Leave, 8));
      st_.gpr(Reg::rsp) = Value::stackRel(rbp.stackOffset(), true);
      const int64_t off = rbp.stackOffset();
      if (Status s = checkStackAccess(off, in.address); !s) return s;
      Value popped = st_.stack().read(off, 8);
      popped.materialized = true;
      st_.gpr(Reg::rbp) = popped;
      st_.gpr(Reg::rsp) = Value::stackRel(off + 8, true);
      return Status::okStatus();
    }

    default:
      return Error{ErrorCode::UnsupportedInstruction, in.address, "branch"};
  }
}

// ---------------------------------------------------------------------------
// Operand plumbing
// ---------------------------------------------------------------------------

Value Tracer::memAddress(const MemOperand& m, uint64_t nextRip) const {
  if (m.ripRelative)
    return Value::known(nextRip + static_cast<int64_t>(m.disp));
  Value acc = Value::known(static_cast<uint64_t>(
      static_cast<int64_t>(m.disp)));
  if (m.base != Reg::none) {
    const Value& base = st_.gpr(m.base);
    if (base.isUnknown()) return Value::unknown();
    if (base.isStackRel())
      acc = Value::stackRel(base.stackOffset() +
                            static_cast<int64_t>(acc.bits));
    else
      acc = Value{acc.tag, acc.bits + base.bits, false};
  }
  if (m.index != Reg::none) {
    const Value& index = st_.gpr(m.index);
    if (!index.isKnown()) return Value::unknown();
    acc.bits += index.bits * m.scale;
  }
  acc.materialized = false;
  return acc;
}

Result<Value> Tracer::loadAbstract(const Value& addr, unsigned width,
                                   uint64_t guestAddr) {
  if (addr.isStackRel()) {
    const int64_t off = addr.stackOffset();
    if (Status s = checkStackAccess(off, guestAddr); !s) return s.error();
    return st_.stack().read(off, width);
  }
  if (addr.isKnown()) {
    // Declared-constant regions and read-only mappings (.rodata, literal
    // pools of previously generated code) are stable: fold the load.
    if (inKnownRegion(addr.bits, width) ||
        isReadOnlyMapping(addr.bits, width)) {
      uint64_t bits = 0;
      std::memcpy(&bits, reinterpret_cast<const void*>(addr.bits),
                  std::min(width, 8u));
      return Value::known(bits, false);
    }
    return Value::unknown();
  }
  return Value::unknown();
}

Status Tracer::storeAbstract(const Value& addr, unsigned width,
                             const Value& value, uint64_t guestAddr) {
  if (addr.isStackRel()) {
    const int64_t off = addr.stackOffset();
    if (Status s = checkStackAccess(off, guestAddr); !s) return s;
    Value stored = value;
    // Captured stores place the real bits on the runtime stack. Knownness
    // flows through stores even under forceUnknownResults — a spill
    // creates no value, and loop-carried values reach stores only through
    // arithmetic, which the policy already made unknown.
    stored.materialized = true;
    st_.stack().write(off, width, stored);
    return Status::okStatus();
  }
  if (addr.isKnown() && inKnownRegion(addr.bits, width))
    return Error{ErrorCode::WriteToKnownMemory, guestAddr,
                 "store into memory declared constant"};
  return Status::okStatus();
}

Result<Value> Tracer::readOperand(const Instruction& instr, const Operand& op,
                                  unsigned width, uint64_t next) {
  switch (op.kind) {
    case Operand::Kind::Imm:
      return Value::known(static_cast<uint64_t>(op.imm), true);
    case Operand::Kind::Reg: {
      const Value v = st_.gpr(op.reg);
      if (v.isStackRel() && width < 8) return Value::unknown();
      return v;
    }
    case Operand::Kind::Mem:
      return loadAbstract(memAddress(op.mem, next), width, instr.address);
    default:
      return Value::unknown();
  }
}

Status Tracer::writeRegResult(Reg reg, unsigned width, const Value& value) {
  Value& slot = st_.gpr(reg);
  if (value.isStackRel()) {
    slot = value;
    return Status::okStatus();
  }
  if (value.isUnknown()) {
    slot = Value::unknown();
    return Status::okStatus();
  }
  // Partial-width merge needs the old bits; callers guarantee they elide
  // only when the merged result is fully known.
  if (width >= 4 || slot.isKnown()) {
    const uint64_t old = slot.isKnown() ? slot.bits : 0;
    slot = Value::known(emu::mergeWrite(old, value.bits, width),
                        value.materialized);
    return Status::okStatus();
  }
  slot = Value::unknown();
  return Status::okStatus();
}

// ---------------------------------------------------------------------------
// Capture machinery
// ---------------------------------------------------------------------------

void Tracer::capture(Instruction instr) {
  // §III-D injection: call the configured handler before every captured
  // data-memory access. Stack bookkeeping (push/pop/leave) and literal-pool
  // reads are not data accesses; the injected sequences themselves are
  // excluded via the reentrancy flag.
  if (!injecting_) {
    const bool isStore = instr.nops > 0 && instr.ops[0].isMem() &&
                         isa::row(instr.mnemonic).writesOp0();
    bool readsData = false;
    for (unsigned i = 0; i < instr.nops; ++i)
      if (instr.ops[i].isMem() && instr.ops[i].mem.poolSlot < 0 &&
          !(isStore && i == 0) && instr.mnemonic != Mnemonic::Lea)
        readsData = true;
    if (readsData && config_.injection().onLoad != nullptr)
      emitInjectedCall(config_.injection().onLoad, instr.address);
    if (isStore && config_.injection().onStore != nullptr)
      emitInjectedCall(config_.injection().onStore, instr.address);
  }
  ++stats_.capturedInstructions;
  out_.block(curId_).instrs.push_back(instr);
}

Status Tracer::materializeGpr(Reg reg) {
  Value& v = st_.gpr(reg);
  const int64_t imm = static_cast<int64_t>(v.bits);
  if (v.bits <= UINT32_MAX) {
    capture(makeInstr(Mnemonic::Mov, 4, Operand::makeReg(reg),
                      Operand::makeImm(imm)));  // zero-extending mov r32
  } else {
    capture(makeInstr(Mnemonic::Mov, 8, Operand::makeReg(reg),
                      Operand::makeImm(imm)));
  }
  v.materialized = true;
  return Status::okStatus();
}

Status Tracer::materializeStackRel(Reg reg) {
  Value& v = st_.gpr(reg);
  const Value& rsp = st_.gpr(Reg::rsp);
  if (!rsp.isStackRel())
    return Error{ErrorCode::UnknownStackPointer, 0,
                 "cannot materialize stack address"};
  const int64_t delta = v.stackOffset() - rsp.stackOffset();
  if (!fitsS32(delta))
    return Error{ErrorCode::UnencodableInstruction, 0, "stack delta"};
  MemOperand m;
  m.base = Reg::rsp;
  m.disp = static_cast<int32_t>(delta);
  capture(makeInstr(Mnemonic::Lea, 8, Operand::makeReg(reg),
                    Operand::makeMem(m)));
  v.materialized = true;
  return Status::okStatus();
}

Status Tracer::materializeXmmLo(Reg reg) {
  emu::XmmValue& x = st_.xmm(reg);
  if (!x.lo.isKnown())
    return Error{ErrorCode::UnencodableInstruction, 0,
                 "materialize of unknown xmm lane"};
  if (x.hi.isUnknown()) {
    // The high lane holds a live runtime value: movlpd loads the low
    // qword and preserves the high one.
    const int slot = out_.addPoolConstant(x.lo.bits, 0);
    MemOperand m;
    m.ripRelative = true;
    m.poolSlot = slot;
    capture(makeInstr(Mnemonic::Movlpd, 8, Operand::makeReg(reg),
                      Operand::makeMem(m)));
    x.lo.materialized = true;
    return Status::okStatus();
  }
  if (x.hi.isKnown() && x.hi.bits != 0) {
    // Full 16-byte materialization keeps the (known, nonzero) high lane.
    const int slot = out_.addPoolConstant(x.lo.bits, x.hi.bits);
    MemOperand m;
    m.ripRelative = true;
    m.poolSlot = slot;
    capture(makeInstr(Mnemonic::Movapd, 16, Operand::makeReg(reg),
                      Operand::makeMem(m)));
    x.lo.materialized = true;
    x.hi.materialized = true;
    return Status::okStatus();
  }
  const int slot = out_.addPoolConstant(x.lo.bits, 0);
  MemOperand m;
  m.ripRelative = true;
  m.poolSlot = slot;
  capture(makeInstr(Mnemonic::Movsd, 8, Operand::makeReg(reg),
                    Operand::makeMem(m)));
  x.lo.materialized = true;
  x.hi = Value::known(0, true);  // movsd load zeroes the high lane
  return Status::okStatus();
}

Status Tracer::materializeXmmHi(Reg reg) {
  emu::XmmValue& x = st_.xmm(reg);
  if (!x.hi.isKnown())
    return Error{ErrorCode::UnencodableInstruction, 0,
                 "materialize of unknown xmm high lane"};
  const int slot = out_.addPoolConstant(x.hi.bits, 0);
  MemOperand m;
  m.ripRelative = true;
  m.poolSlot = slot;
  // movhpd loads 8 bytes into the HIGH lane, preserving the low one.
  capture(makeInstr(Mnemonic::Movhpd, 8, Operand::makeReg(reg),
                    Operand::makeMem(m)));
  x.hi.materialized = true;
  return Status::okStatus();
}

Status Tracer::materializeXmmLanes(Reg reg) {
  emu::XmmValue& x = st_.xmm(reg);
  if (x.lo.isKnown() && !x.lo.materialized)
    if (Status s = materializeXmmLo(reg); !s) return s;
  if (x.hi.isKnown() && !x.hi.materialized)
    if (Status s = materializeXmmHi(reg); !s) return s;
  return Status::okStatus();
}

Status Tracer::prepareRegOperand(Operand& op, unsigned width,
                                 bool canFoldImm) {
  if (!op.isReg() || !isa::isGpr(op.reg)) return Status::okStatus();
  Value& v = st_.gpr(op.reg);
  if (v.isKnown() && !v.materialized) {
    if (canFoldImm && immFoldable(v.bits, width)) {
      const int64_t imm =
          (width == 8) ? static_cast<int64_t>(v.bits)
                       : static_cast<int64_t>(emu::zeroExtend(v.bits, width));
      op = Operand::makeImm(imm);
      return Status::okStatus();
    }
    return materializeGpr(op.reg);
  }
  if (v.isStackRel() && !v.materialized) return materializeStackRel(op.reg);
  return Status::okStatus();
}

bool Tracer::tryPoolFold(MemOperand& m, uint64_t addr, unsigned width) {
  // Declared-constant regions fold, and so do loads from read-only
  // mappings (.rodata, compiler literal pools): immutable between trace
  // time and execution.
  if (!inKnownRegion(addr, width) && !isReadOnlyMapping(addr, width))
    return false;
  uint64_t lo = 0, hi = 0;
  std::memcpy(&lo, reinterpret_cast<const void*>(addr), std::min(width, 8u));
  if (width == 16)
    std::memcpy(&hi, reinterpret_cast<const void*>(addr + 8), 8);
  const int slot = out_.addPoolConstant(lo, hi);
  m = MemOperand{};
  m.ripRelative = true;
  m.poolSlot = slot;
  return true;
}

Status Tracer::prepareMemOperand(MemOperand& m, uint64_t nextRip,
                                 bool isAddressOnly) {
  if (m.ripRelative) {
    if (m.poolSlot >= 0) return Status::okStatus();  // already a pool ref
    const int64_t target = static_cast<int64_t>(nextRip) + m.disp;
    m.ripTarget = target;
    m.disp = 0;
    return Status::okStatus();
  }
  // Fold a known index into the displacement.
  if (m.index != Reg::none) {
    const Value& idx = st_.gpr(m.index);
    if (idx.isKnown()) {
      const int64_t folded =
          static_cast<int64_t>(m.disp) +
          static_cast<int64_t>(idx.bits) * static_cast<int64_t>(m.scale);
      if (fitsS32(folded)) {
        m.disp = static_cast<int32_t>(folded);
        m.index = Reg::none;
        m.scale = 1;
      } else if (!idx.materialized) {
        if (Status s = materializeGpr(m.index); !s) return s;
      }
    } else if (idx.isStackRel() && !idx.materialized) {
      if (Status s = materializeStackRel(m.index); !s) return s;
    }
  }
  if (m.base != Reg::none) {
    const Value base = st_.gpr(m.base);
    if (base.isKnown()) {
      // Fold the base into the displacement. The [index*scale + disp32]
      // (or bare [disp32]) form carries the rest; only possible when the
      // absolute part fits a signed 32-bit displacement.
      const int64_t folded =
          static_cast<int64_t>(m.disp) + static_cast<int64_t>(base.bits);
      if (fitsS32(folded)) {
        m.disp = static_cast<int32_t>(folded);
        m.base = Reg::none;
      } else if (!base.materialized) {
        if (Status s = materializeGpr(m.base); !s) return s;
      }
    } else if (base.isStackRel() && !base.materialized) {
      if (Status s = materializeStackRel(m.base); !s) return s;
    }
  }
  (void)isAddressOnly;
  return Status::okStatus();
}

Status Tracer::materializeForCall(uint64_t guestAddr) {
  (void)guestAddr;
  // A kept call may consume any ABI argument register (including rax for
  // varargs); anything known-but-unmaterialized there must become real.
  for (Reg r : isa::abi::kIntArgs) {
    Value& v = st_.gpr(r);
    if (v.isKnown() && !v.materialized)
      if (Status s = materializeGpr(r); !s) return s;
    if (v.isStackRel() && !v.materialized)
      if (Status s = materializeStackRel(r); !s) return s;
  }
  {
    Value& rax = st_.gpr(Reg::rax);
    if (rax.isKnown() && !rax.materialized)
      if (Status s = materializeGpr(Reg::rax); !s) return s;
    if (rax.isStackRel() && !rax.materialized)
      if (Status s = materializeStackRel(Reg::rax); !s) return s;
  }
  for (Reg r : isa::abi::kSseArgs) {
    emu::XmmValue& x = st_.xmm(r);
    if (x.lo.isKnown() && !x.lo.materialized)
      if (Status s = materializeXmmLo(r); !s) return s;
  }
  return Status::okStatus();
}

Status Tracer::materializeForReturn() {
  // Return registers per the ABI: rax/rdx and xmm0/xmm1 — narrowed by the
  // configured return kind when the user declared one.
  const ReturnKind kind = config_.returnKind();
  if (kind == ReturnKind::Void) return Status::okStatus();
  if (kind == ReturnKind::Unknown || kind == ReturnKind::Int)
  for (Reg r : {Reg::rax, Reg::rdx}) {
    Value& v = st_.gpr(r);
    if (v.isKnown() && !v.materialized)
      if (Status s = materializeGpr(r); !s) return s;
    if (v.isStackRel() && !v.materialized)
      if (Status s = materializeStackRel(r); !s) return s;
  }
  if (kind == ReturnKind::Unknown || kind == ReturnKind::Float)
  for (Reg r : {Reg::xmm0, Reg::xmm1}) {
    emu::XmmValue& x = st_.xmm(r);
    if (x.lo.isKnown() && !x.lo.materialized)
      if (Status s = materializeXmmLo(r); !s) return s;
  }
  return Status::okStatus();
}

void Tracer::emitInjectedCall(Injection::Handler handler, uint64_t arg) {
  injecting_ = true;
  // State-transparent call: skip the red zone, preserve flags and all
  // caller-saved registers, realign, call, restore. Deliberately emitted
  // without touching the known-world state (net machine effect is zero).
  auto mem = [](Reg base, int32_t disp) {
    MemOperand m;
    m.base = base;
    m.disp = disp;
    return Operand::makeMem(m);
  };
  auto leaRsp = [&](int32_t delta) {
    MemOperand m;
    m.base = Reg::rsp;
    m.disp = delta;
    capture(makeInstr(Mnemonic::Lea, 8, Operand::makeReg(Reg::rsp),
                      Operand::makeMem(m)));
  };
  leaRsp(-128);  // red zone
  capture(makeInstr(Mnemonic::Pushfq, 8));
  const Reg gprs[] = {Reg::rax, Reg::rcx, Reg::rdx, Reg::rsi, Reg::rdi,
                      Reg::r8, Reg::r9, Reg::r10, Reg::r11};
  for (Reg r : gprs)
    capture(makeInstr(Mnemonic::Push, 8, Operand::makeReg(r)));
  // 16 xmm * 16 bytes, plus 8 to restore 16-byte alignment at the call:
  // entry rsp = 8 (mod 16); after -128, pushfq, 9 pushes the parity is
  // tracked via the StackRel offset when available, otherwise assume the
  // canonical entry alignment.
  int64_t off = 0;
  if (st_.gpr(Reg::rsp).isStackRel()) off = rspOffset();
  const int64_t atCall = off - 128 - 8 - 9 * 8 - 256;
  const int pad = static_cast<int>(((atCall + 8) % 16 + 16) % 16);
  leaRsp(-256 - pad);
  for (int i = 0; i < 16; ++i)
    capture(makeInstr(Mnemonic::Movups, 16, mem(Reg::rsp, i * 16),
                      Operand::makeReg(isa::xmmFromNum(i))));
  capture(makeInstr(Mnemonic::Mov, 8, Operand::makeReg(Reg::rdi),
                    Operand::makeImm(static_cast<int64_t>(arg))));
  Instruction hcall =
      makeInstr(Mnemonic::Mov, 8, Operand::makeReg(Reg::r11),
                Operand::makeImm(static_cast<int64_t>(
                    reinterpret_cast<uintptr_t>(handler))));
  hcall.absCode = true;
  capture(hcall);
  capture(makeInstr(Mnemonic::CallInd, 8, Operand::makeReg(Reg::r11)));
  for (int i = 0; i < 16; ++i)
    capture(makeInstr(Mnemonic::Movups, 16, Operand::makeReg(isa::xmmFromNum(i)),
                      mem(Reg::rsp, i * 16)));
  leaRsp(256 + pad);
  for (auto it = std::rbegin(gprs); it != std::rend(gprs); ++it)
    capture(makeInstr(Mnemonic::Pop, 8, Operand::makeReg(*it)));
  capture(makeInstr(Mnemonic::Popfq, 8));
  leaRsp(128);
  injecting_ = false;
}

// ---------------------------------------------------------------------------
// Generic capture for GPR-shaped instructions
// ---------------------------------------------------------------------------

Status Tracer::captureGeneric(Instruction in, uint64_t next, bool resultKnown,
                              const Value& knownResult) {
  // Captured consumers of flags need runtime-real flags.
  const uint8_t fr = isa::flagsRead(in);
  if (fr != 0 && st_.flags().known != 0 && !st_.flags().materialized)
    return Error{ErrorCode::UnsupportedInstruction, in.address,
                 "captured instruction consumes elided flags"};

  // Remember the abstract store target before operands are rewritten.
  Value storeAddr = Value::unknown();
  bool isStore = false;
  unsigned storeWidth = in.width;
  if (in.nops > 0 && in.ops[0].isMem() && isa::writesMemory(in)) {
    isStore = true;
    storeAddr = memAddress(in.ops[0].mem, next);
  }
  // Partial-width register writes preserve the remaining bytes, so the
  // destination is effectively an input that must be runtime-correct —
  // including for setcc (its one-byte write merges into the register).
  const isa::MnemonicInfo& row = isa::row(in.mnemonic);
  const bool destIsRead = row.has(isa::kReadsDst) ||
                          (in.width < 4 && in.nops > 0 && in.ops[0].isReg());
  const bool destReadsAsInput =
      destIsRead && !(in.mnemonic == Mnemonic::Imul && in.nops == 3);

  // ops[0]
  if (in.nops > 0) {
    if (in.ops[0].isMem()) {
      const bool loadFoldable =
          !isStore && in.mnemonic != Mnemonic::Lea;
      MemOperand& m = in.ops[0].mem;
      Value addr = memAddress(m, next);
      if (loadFoldable && addr.isKnown() &&
          tryPoolFold(m, addr.bits, in.width)) {
        // folded to pool
      } else if (Status s = prepareMemOperand(m, next, false); !s) {
        return s;
      }
    } else if (in.ops[0].isReg() && isa::isGpr(in.ops[0].reg)) {
      const bool isPureDest =
          !destReadsAsInput &&
          (row.family == Family::Mov || row.family == Family::Lea ||
           row.family == Family::Pop ||
           (in.mnemonic == Mnemonic::Imul && in.nops == 3));
      if (!isPureDest || row.has(isa::kCompare)) {
        if (Status s = prepareRegOperand(in.ops[0], in.width,
                                         /*canFoldImm=*/false);
            !s)
          return s;
      }
    }
  }
  // ops[1]
  if (in.nops > 1) {
    if (in.ops[1].isMem()) {
      MemOperand& m = in.ops[1].mem;
      Value addr = memAddress(m, next);
      const bool loadFoldable = in.mnemonic != Mnemonic::Lea;
      if (loadFoldable && addr.isKnown() &&
          tryPoolFold(m, addr.bits,
                      in.srcWidth != 0 ? in.srcWidth : in.width)) {
        // folded
      } else if (Status s =
                     prepareMemOperand(m, next, in.mnemonic == Mnemonic::Lea);
                 !s) {
        return s;
      }
    } else if (in.ops[1].isReg() && isa::isGpr(in.ops[1].reg)) {
      const unsigned w = in.srcWidth != 0 ? in.srcWidth : in.width;
      if (Status s = prepareRegOperand(in.ops[1], w, row.has(isa::kImm32Src));
          !s)
        return s;
    }
  }

  capture(in);

  // State update: flag writers produce runtime flags; register destinations
  // become unknown unless the caller proved the result.
  if (isa::flagsWritten(in) != 0) st_.flags().setAll(0, 0, true);
  if (in.nops > 0 && in.ops[0].isReg() && isa::isGpr(in.ops[0].reg) &&
      !row.has(isa::kCompare)) {
    Value v = resultKnown && !policy().forceUnknownResults
                  ? Value::known(knownResult.bits, true)
                  : Value::unknown();
    st_.gpr(in.ops[0].reg) =
        v.isKnown()
            ? Value::known(emu::mergeWrite(0, v.bits, in.width), true)
            : Value::unknown();
    if (v.isKnown() && in.width < 4) st_.gpr(in.ops[0].reg) = Value::unknown();
  }
  if (isStore) {
    const Value stored = resultKnown ? knownResult : Value::unknown();
    if (Status s = storeAbstract(storeAddr, storeWidth, stored, in.address);
        !s)
      return s;
  }
  return Status::okStatus();
}

// ---------------------------------------------------------------------------
// Instruction families
// ---------------------------------------------------------------------------

Status Tracer::traceGprArith(const Instruction& in, uint64_t next) {
  const unsigned w = in.width;
  const bool force = policy().forceUnknownResults;
  const bool isUnary = (in.nops == 1);
  const isa::MnemonicInfo& row = isa::row(in.mnemonic);
  const bool isCompare = row.has(isa::kCompare);
  const bool isShift = row.has(isa::kCountInCl);
  const bool needsCf = (row.flagsRead & isa::kFlagCF) != 0;

  auto a = readOperand(in, in.ops[0], w, next);
  if (!a) return a.error();
  Result<Value> b = Value::known(0, true);
  if (!isUnary) {
    const unsigned bw = (isShift && in.ops[1].isReg()) ? 1 : w;  // CL
    b = readOperand(in, in.ops[1], bw, next);
    if (!b) return b.error();
  }

  // Special case: xor r, r is a zeroing idiom — known even if r is unknown.
  if (in.mnemonic == Mnemonic::Xor && in.ops[0].isReg() &&
      in.ops[1].isReg() && in.ops[0].reg == in.ops[1].reg && !force) {
    ++stats_.elidedInstructions;
    st_.gpr(in.ops[0].reg) = Value::known(0, false);
    const emu::OpResult r = emu::evalAlu(Mnemonic::Xor, w, 0, 0);
    st_.flags().setAll(r.flagsKnown, r.flagsValue, false);
    return Status::okStatus();
  }

  // Stack-pointer arithmetic: add/sub rsp (or any StackRel register), imm.
  if ((in.mnemonic == Mnemonic::Add || in.mnemonic == Mnemonic::Sub) &&
      in.ops[0].isReg() && a->isStackRel() && b->isKnown() && w == 8) {
    const int64_t delta = (in.mnemonic == Mnemonic::Add)
                              ? static_cast<int64_t>(b->bits)
                              : -static_cast<int64_t>(b->bits);
    // The adjustment must really happen at runtime (rsp is materialized),
    // so capture it; flags of address arithmetic are never folded.
    Instruction kept = in;
    if (Status s = prepareRegOperand(kept.ops[1], w, true); !s) return s;
    if (!st_.gpr(in.ops[0].reg).materialized)
      if (Status s = materializeStackRel(in.ops[0].reg); !s) return s;
    capture(kept);
    st_.flags().setAll(0, 0, true);
    st_.gpr(in.ops[0].reg) =
        Value::stackRel(a->stackOffset() + delta, true);
    return Status::okStatus();
  }

  // Pointer comparison of two stack addresses resolves at trace time.
  if (in.mnemonic == Mnemonic::Cmp && a->isStackRel() && b->isStackRel() &&
      !force) {
    ++stats_.elidedInstructions;
    const emu::OpResult r = emu::evalAlu(
        Mnemonic::Cmp, 8, static_cast<uint64_t>(a->stackOffset()),
        static_cast<uint64_t>(b->stackOffset()));
    // Only the flags that transfer from offsets to addresses are kept.
    const uint8_t transferable = isa::kFlagCF | isa::kFlagZF | isa::kFlagSF;
    st_.flags().setAll(r.flagsKnown & transferable, r.flagsValue, false);
    return Status::okStatus();
  }
  // Subtracting stack addresses yields a known distance.
  if (in.mnemonic == Mnemonic::Sub && a->isStackRel() && b->isStackRel() &&
      in.ops[0].isReg() && !force) {
    ++stats_.elidedInstructions;
    const uint64_t diff = static_cast<uint64_t>(a->stackOffset()) -
                          static_cast<uint64_t>(b->stackOffset());
    st_.gpr(in.ops[0].reg) = Value::known(diff, false);
    st_.flags().setAll(0, 0, false);
    return Status::okStatus();
  }

  const bool inputsKnown =
      a->isKnown() && (isUnary || b->isKnown()) &&
      (!needsCf || st_.flags().isKnown(isa::kFlagCF));
  const bool destOk =
      isCompare || (in.ops[0].isReg() && (w >= 4 || a->isKnown()));

  if (!force && inputsKnown && destOk) {
    ++stats_.elidedInstructions;
    emu::OpResult r;
    if (isUnary) {
      r = emu::evalUnary(in.mnemonic, w, a->bits);
    } else if (isShift) {
      r = emu::evalShift(in.mnemonic, w, a->bits, b->bits);
      if (r.flagsKnown == 0 && (b->bits & (w == 8 ? 63 : 31)) == 0) {
        // count 0: flags unchanged, and so is the value, except that a
        // 32-bit destination still has its upper half cleared.
        if (w != 4) return Status::okStatus();
        return writeRegResult(in.ops[0].reg, w, Value::known(r.value, false));
      }
    } else if (in.mnemonic == Mnemonic::Imul) {
      const uint64_t lhs = (in.nops == 3) ? b->bits : a->bits;
      const uint64_t rhs = (in.nops == 3)
                               ? static_cast<uint64_t>(in.ops[2].imm)
                               : b->bits;
      r = emu::evalImul(w, lhs, rhs);
    } else {
      r = emu::evalAlu(in.mnemonic, w, a->bits, b->bits,
                       st_.flags().values & isa::kFlagCF);
    }
    if (!isCompare) {
      if (Status s = writeRegResult(in.ops[0].reg, w,
                                    Value::known(r.value, false));
          !s)
        return s;
    }
    // Inc/Dec preserve CF: keep its previous known-state.
    uint8_t known = r.flagsKnown;
    uint8_t values = r.flagsValue;
    if (in.mnemonic == Mnemonic::Inc || in.mnemonic == Mnemonic::Dec) {
      known |= st_.flags().known & isa::kFlagCF;
      values |= st_.flags().values & isa::kFlagCF;
    }
    st_.flags().setAll(known, values, false);
    return Status::okStatus();
  }

  // 3-operand imul with a known r/m source folds it through the pool or
  // immediate path inside captureGeneric.
  return captureGeneric(in, next);
}

Status Tracer::traceMov(const Instruction& in, uint64_t next) {
  const unsigned w = in.width;
  const unsigned srcW = in.srcWidth != 0 ? in.srcWidth : w;
  const bool force = policy().forceUnknownResults;
  const Operand& dst = in.ops[0];

  auto v = readOperand(in, in.ops[1], srcW, next);
  if (!v) return v.error();

  Value value = *v;
  if (value.isKnown()) {
    switch (in.mnemonic) {
      case Mnemonic::Movsxd:
      case Mnemonic::Movsx:
        // 32-bit destinations zero-extend the sign-extended result into
        // the full register.
        value = Value::known(
            w == 4 ? emu::zeroExtend(emu::signExtend(value.bits, srcW), 4)
                   : emu::signExtend(value.bits, srcW),
            false);
        break;
      case Mnemonic::Movzx:
        value = Value::known(emu::zeroExtend(value.bits, srcW), false);
        break;
      default:
        break;
    }
  } else if (value.isStackRel() &&
             (in.mnemonic != Mnemonic::Mov || w != 8)) {
    value = Value::unknown();
  }

  // Writes to rsp are never elided: the runtime stack pointer must track
  // the traced one exactly (every other rsp-relative capture depends on it).
  if (dst.isReg() && dst.reg == Reg::rsp) {
    if (!value.isStackRel())
      return Error{ErrorCode::UnknownStackPointer, in.address,
                   "mov to rsp with untracked source"};
    Instruction kept = in;
    if (Status s = prepareRegOperand(kept.ops[1], 8, false); !s) return s;
    capture(kept);
    st_.gpr(Reg::rsp) = Value::stackRel(value.stackOffset(), true);
    return Status::okStatus();
  }

  if (dst.isReg()) {
    const bool mergeable = w >= 4 || st_.gpr(dst.reg).isKnown();
    // forceUnknownResults targets values CREATED by operations (§III-F:
    // "not touching values passed in as parameters"); a plain copy or
    // extension creates nothing, so known-ness flows through it. This is
    // what keeps call targets known (and callees specializable) under the
    // no-unroll policy.
    (void)force;
    if ((value.isKnown() || value.isStackRel()) && mergeable) {
      ++stats_.elidedInstructions;
      Value stored = value;
      stored.materialized = false;
      return writeRegResult(dst.reg, in.mnemonic == Mnemonic::Mov ? w : 8,
                            stored);
    }
    return captureGeneric(in, next);
  }

  // Store: always captured; the shadow learns the stored value.
  Value stored = value;
  return captureGeneric(in, next, stored.isKnown(), stored);
}

Status Tracer::traceLea(const Instruction& in, uint64_t next) {
  const Value addr = memAddress(in.ops[1].mem, next);

  // rsp writes are always captured (runtime must follow) and must stay
  // stack-tracked.
  if (in.ops[0].reg == Reg::rsp) {
    if (!addr.isStackRel() || in.width != 8)
      return Error{ErrorCode::UnknownStackPointer, in.address,
                   "lea to rsp with untracked address"};
    Instruction kept = in;
    if (Status s = prepareMemOperand(kept.ops[1].mem, next, true); !s)
      return s;
    capture(kept);
    st_.gpr(Reg::rsp) = Value::stackRel(addr.stackOffset(), true);
    return Status::okStatus();
  }

  // Stack addresses stay tracked even under forceUnknownResults (the
  // policy exempts address tracking — it only exists to stop unrolling).
  if (in.width == 8 &&
      (addr.isStackRel() ||
       (addr.isKnown() && !policy().forceUnknownResults))) {
    ++stats_.elidedInstructions;
    Value v = addr;
    v.materialized = false;
    st_.gpr(in.ops[0].reg) = v;
    return Status::okStatus();
  }
  // 32-bit lea zero-extends; elide when the value is fully known.
  if (in.width == 4 && addr.isKnown() && !policy().forceUnknownResults) {
    ++stats_.elidedInstructions;
    st_.gpr(in.ops[0].reg) =
        Value::known(emu::zeroExtend(addr.bits, 4), false);
    return Status::okStatus();
  }
  return captureGeneric(in, next);
}

Status Tracer::tracePush(const Instruction& in, uint64_t next) {
  const Value rsp = st_.gpr(Reg::rsp);
  if (!rsp.isStackRel())
    return Error{ErrorCode::UnknownStackPointer, in.address, "push"};
  auto v = readOperand(in, in.ops[0], 8, next);
  if (!v) return v.error();

  Instruction kept = in;
  if (kept.ops[0].isReg()) {
    if (Status s = prepareRegOperand(kept.ops[0], 8, /*canFoldImm=*/true);
        !s)
      return s;
    if (kept.ops[0].isImm() && !fitsS32(kept.ops[0].imm)) {
      // push imm64 does not exist; undo the fold.
      kept.ops[0] = in.ops[0];
      if (Status s = prepareRegOperand(kept.ops[0], 8, false); !s) return s;
    }
  } else if (kept.ops[0].isMem()) {
    MemOperand& m = kept.ops[0].mem;
    Value addr = memAddress(m, next);
    if (!(addr.isKnown() && tryPoolFold(m, addr.bits, 8)))
      if (Status s = prepareMemOperand(m, next, false); !s) return s;
  }
  capture(kept);

  const int64_t newOff = rsp.stackOffset() - 8;
  st_.gpr(Reg::rsp) = Value::stackRel(newOff, true);
  Value stored = *v;
  stored.materialized = true;
  st_.stack().write(newOff, 8, stored);
  return Status::okStatus();
}

Status Tracer::tracePop(const Instruction& in, uint64_t next) {
  (void)next;
  const Value rsp = st_.gpr(Reg::rsp);
  if (!rsp.isStackRel())
    return Error{ErrorCode::UnknownStackPointer, in.address, "pop"};
  const int64_t off = rsp.stackOffset();
  if (Status s = checkStackAccess(off, in.address); !s) return s;
  if (!in.ops[0].isReg())
    return Error{ErrorCode::UnsupportedInstruction, in.address,
                 "pop to memory"};

  capture(in);
  Value v = st_.stack().read(off, 8);
  v.materialized = true;  // the runtime pop just loaded it
  st_.gpr(in.ops[0].reg) = v;
  st_.gpr(Reg::rsp) = Value::stackRel(off + 8, true);
  return Status::okStatus();
}

Status Tracer::traceWideMulDiv(const Instruction& in, uint64_t next) {
  const unsigned w = in.width;
  const bool force = policy().forceUnknownResults;
  const Value rax = st_.gpr(Reg::rax);
  const Value rdx = st_.gpr(Reg::rdx);
  // cbw and cwd write only ax and dx; the handlers below model the 32- and
  // 64-bit forms.
  if (w == 2 && (in.mnemonic == Mnemonic::Cdqe || in.mnemonic == Mnemonic::Cdq))
    return Error{ErrorCode::UnsupportedInstruction, in.address,
                 in.mnemonic == Mnemonic::Cdqe ? "cbw" : "cwd"};

  switch (in.mnemonic) {
    case Mnemonic::Cdqe: {
      if (!force && rax.isKnown()) {
        ++stats_.elidedInstructions;
        const uint64_t v = (w == 8)
                               ? emu::signExtend(rax.bits, 4)
                               : emu::mergeWrite(rax.bits,
                                                 emu::signExtend(rax.bits, 2),
                                                 4);
        st_.gpr(Reg::rax) = Value::known(v, false);
        return Status::okStatus();
      }
      Instruction kept = in;
      if (rax.isKnown() && !rax.materialized)
        if (Status s = materializeGpr(Reg::rax); !s) return s;
      capture(kept);
      st_.gpr(Reg::rax) = Value::unknown();
      return Status::okStatus();
    }
    case Mnemonic::Cdq: {
      if (!force && rax.isKnown()) {
        // w is 4 or 8, so the write covers the full register.
        ++stats_.elidedInstructions;
        const uint64_t sign =
            (rax.bits & (1ULL << (w * 8 - 1))) ? emu::maskForWidth(w) : 0;
        st_.gpr(Reg::rdx) =
            Value::known(emu::mergeWrite(0, sign, w), false);
        return Status::okStatus();
      }
      if (rax.isKnown() && !rax.materialized)
        if (Status s = materializeGpr(Reg::rax); !s) return s;
      capture(in);
      st_.gpr(Reg::rdx) = Value::unknown();
      return Status::okStatus();
    }
    case Mnemonic::ImulWide:
    case Mnemonic::MulWide: {
      auto src = readOperand(in, in.ops[0], w, next);
      if (!src) return src.error();
      if (!force && rax.isKnown() && src->isKnown()) {
        ++stats_.elidedInstructions;
        const emu::WideMulResult r = emu::evalWideMul(
            in.mnemonic == Mnemonic::ImulWide, w, rax.bits, src->bits);
        st_.gpr(Reg::rax) = Value::known(
            emu::mergeWrite(rax.bits, r.lo, w), false);
        st_.gpr(Reg::rdx) = Value::known(
            emu::mergeWrite(rdx.isKnown() ? rdx.bits : 0, r.hi, w), false);
        if (w < 4 && !rdx.isKnown()) st_.gpr(Reg::rdx) = Value::unknown();
        st_.flags().setAll(r.flagsKnown, r.flagsValue, false);
        return Status::okStatus();
      }
      Instruction kept = in;
      if (rax.isKnown() && !rax.materialized)
        if (Status s = materializeGpr(Reg::rax); !s) return s;
      if (kept.ops[0].isReg()) {
        if (Status s = prepareRegOperand(kept.ops[0], w, false); !s) return s;
      } else if (kept.ops[0].isMem()) {
        MemOperand& m = kept.ops[0].mem;
        Value addr = memAddress(m, next);
        if (!(addr.isKnown() && tryPoolFold(m, addr.bits, w)))
          if (Status s = prepareMemOperand(m, next, false); !s) return s;
      }
      capture(kept);
      st_.gpr(Reg::rax) = Value::unknown();
      st_.gpr(Reg::rdx) = Value::unknown();
      st_.flags().setAll(0, 0, true);
      return Status::okStatus();
    }
    case Mnemonic::Idiv:
    case Mnemonic::Div: {
      auto src = readOperand(in, in.ops[0], w, next);
      if (!src) return src.error();
      if (!force && rax.isKnown() && rdx.isKnown() && src->isKnown()) {
        const emu::DivResult r =
            emu::evalDiv(in.mnemonic == Mnemonic::Idiv, w,
                         rdx.bits, rax.bits, src->bits);
        if (r.fault)
          return Error{ErrorCode::UnsupportedInstruction, in.address,
                       "divide fault during trace"};
        ++stats_.elidedInstructions;
        st_.gpr(Reg::rax) =
            Value::known(emu::mergeWrite(rax.bits, r.quotient, w), false);
        st_.gpr(Reg::rdx) =
            Value::known(emu::mergeWrite(rdx.bits, r.remainder, w), false);
        st_.flags().setAll(0, 0, false);  // flags undefined
        return Status::okStatus();
      }
      Instruction kept = in;
      if (rax.isKnown() && !rax.materialized)
        if (Status s = materializeGpr(Reg::rax); !s) return s;
      if (rdx.isKnown() && !rdx.materialized)
        if (Status s = materializeGpr(Reg::rdx); !s) return s;
      if (kept.ops[0].isReg()) {
        if (Status s = prepareRegOperand(kept.ops[0], w, false); !s) return s;
      } else if (kept.ops[0].isMem()) {
        MemOperand& m = kept.ops[0].mem;
        Value addr = memAddress(m, next);
        if (!(addr.isKnown() && tryPoolFold(m, addr.bits, w)))
          if (Status s = prepareMemOperand(m, next, false); !s) return s;
      }
      capture(kept);
      st_.gpr(Reg::rax) = Value::unknown();
      st_.gpr(Reg::rdx) = Value::unknown();
      st_.flags().setAll(0, 0, true);
      return Status::okStatus();
    }
    default:
      return Error{ErrorCode::UnsupportedInstruction, in.address, ""};
  }
}

Status Tracer::traceCmovSetcc(const Instruction& in, uint64_t next) {
  const uint8_t needed = isa::condFlagsRead(in.cond);
  const bool condKnown = st_.flags().isKnown(needed) &&
                         !policy().forceUnknownResults;
  if (condKnown) {
    const bool taken = emu::evalCond(in.cond, st_.flags().values);
    if (in.mnemonic == Mnemonic::Setcc) {
      // setcc writes one byte; elide only when the full register stays
      // representable.
      if (in.ops[0].isReg() && (st_.gpr(in.ops[0].reg).isKnown())) {
        ++stats_.elidedInstructions;
        return writeRegResult(in.ops[0].reg, 1,
                              Value::known(taken ? 1 : 0, false));
      }
      return captureGeneric(in, next, true,
                            Value::known(taken ? 1 : 0, true));
    }
    // cmov resolved: becomes a plain mov (taken) or, for 32-bit, a
    // zero-extension of the existing value (not taken).
    if (taken) {
      Instruction mov = in;
      mov.mnemonic = Mnemonic::Mov;
      return traceMov(mov, next);
    }
    if (in.width == 4) {
      const Value old = st_.gpr(in.ops[0].reg);
      if (old.isKnown()) {
        ++stats_.elidedInstructions;
        st_.gpr(in.ops[0].reg) =
            Value::known(emu::zeroExtend(old.bits, 4), old.materialized);
        return Status::okStatus();
      }
      // Unknown old value: runtime upper half must be cleared.
      Instruction mov = makeInstr(Mnemonic::Mov, 4, in.ops[0], in.ops[0]);
      return captureGeneric(mov, next);
    }
    ++stats_.elidedInstructions;
    return Status::okStatus();  // 64-bit not-taken cmov: nothing happens
  }
  if (st_.flags().known != 0 && !st_.flags().materialized)
    return Error{ErrorCode::UnsupportedInstruction, in.address,
                 "cmov/setcc on flags of an elided instruction"};
  return captureGeneric(in, next);
}

// ---------------------------------------------------------------------------
// SSE
// ---------------------------------------------------------------------------

Status Tracer::traceSse(const Instruction& in, uint64_t next) {
  const bool force = policy().forceUnknownResults;
  const Operand& dst = in.ops[0];
  const Operand& src = in.nops > 1 ? in.ops[1] : in.ops[0];

  auto laneOf = [&](const Operand& op, bool high,
                    unsigned width) -> Result<Value> {
    if (op.isReg() && isa::isXmm(op.reg))
      return readLane(st_.xmm(op.reg), high);
    if (op.isReg()) {  // GPR source (movq/movd/cvtsi2sd)
      const Value v = st_.gpr(op.reg);
      if (v.isStackRel()) return Value::unknown();
      return v;
    }
    if (op.isMem()) {
      Value addr = memAddress(op.mem, next);
      if (high) {
        if (addr.isKnown()) addr.bits += 8;
        else if (addr.isStackRel())
          addr = Value::stackRel(addr.stackOffset() + 8);
      }
      return loadAbstract(addr, std::min(width, 8u), in.address);
    }
    return Value::unknown();
  };

  // Prepares a captured SSE instruction's source operand: memory operands
  // fold through the pool, register operands with known-but-unmaterialized
  // lanes are themselves replaced by pool references.
  auto prepareSseSrc = [&](Instruction& kept, unsigned width,
                           bool needsHigh) -> Status {
    if (kept.nops < 2) return Status::okStatus();
    Operand& op = kept.ops[1];
    if (op.isMem()) {
      MemOperand& m = op.mem;
      Value addr = memAddress(m, next);
      if (addr.isKnown() && tryPoolFold(m, addr.bits, width))
        return Status::okStatus();
      return prepareMemOperand(m, next, false);
    }
    if (op.isReg() && isa::isXmm(op.reg)) {
      emu::XmmValue& x = st_.xmm(op.reg);
      const bool loStale = x.lo.isKnown() && !x.lo.materialized;
      const bool hiStale = x.hi.isKnown() && !x.hi.materialized;
      if (!loStale && !hiStale) return Status::okStatus();
      if (!needsHigh && x.lo.isKnown()) {
        if (!loStale) return Status::okStatus();
        // Replace the register read by a pool load of the known value.
        const int slot = out_.addPoolConstant(x.lo.bits, 0);
        MemOperand m;
        m.ripRelative = true;
        m.poolSlot = slot;
        op = Operand::makeMem(m);
        return Status::okStatus();
      }
      if (x.lo.isKnown() && x.hi.isKnown()) {
        const int slot = out_.addPoolConstant(x.lo.bits, x.hi.bits);
        MemOperand m;
        m.ripRelative = true;
        m.poolSlot = slot;
        op = Operand::makeMem(m);
        return Status::okStatus();
      }
      return materializeXmmLanes(op.reg);
    }
    if (op.isReg()) return prepareRegOperand(op, in.srcWidth != 0
                                                     ? in.srcWidth
                                                     : in.width,
                                             false);
    return Status::okStatus();
  };

  auto materializeDstLo = [&](Reg reg) -> Status {
    emu::XmmValue& x = st_.xmm(reg);
    if (x.lo.isKnown() && !x.lo.materialized) return materializeXmmLo(reg);
    return Status::okStatus();
  };
  auto materializeDstFull = [&](Reg reg) -> Status {
    return materializeXmmLanes(reg);
  };

  const isa::MnemonicInfo& row = isa::row(in.mnemonic);
  switch (row.family) {
    // --- scalar arithmetic ---
    case Family::SseScalar: {
      const unsigned w = row.enc.arg;
      const bool isSqrt = !row.has(isa::kReadsDst);  // reads its source only
      auto a = laneOf(dst, false, w);
      auto b = laneOf(src, false, w);
      if (!a) return a.error();
      if (!b) return b.error();
      // An ss result keeps the lane's bits 32-63, so it folds only onto a
      // known lane; sqrtsd replaces the lane whole.
      if (!force && b->isKnown() && (a->isKnown() || (isSqrt && w == 8))) {
        ++stats_.elidedInstructions;
        const uint64_t r = emu::evalFpScalar(
            in.mnemonic, w, a->isKnown() ? a->bits : 0, b->bits);
        emu::XmmValue& x = st_.xmm(dst.reg);
        x.lo = Value::known(emu::mergeXmmLo(x.lo.bits, r, w), false);
        return Status::okStatus();
      }
      // Zero-seeded accumulator: "addsd acc(+0.0), y" is a copy of y.
      // Exactness needs both accumulator lanes to be (unmaterialized)
      // +0.0 — the pxor idiom — and, for the register form, the source's
      // high lane to really hold 0 at runtime.
      if (!force && in.mnemonic == Mnemonic::Addsd &&
          config_.foldZeroAccumulator() && a->isKnown() && a->bits == 0) {
        emu::XmmValue& x = st_.xmm(dst.reg);
        const bool accIsZeroSeed = !x.lo.materialized && x.hi.isKnown() &&
                                   x.hi.bits == 0;
        if (accIsZeroSeed && src.isMem()) {
          Instruction repl = makeInstr(Mnemonic::Movsd, 8, in.ops[0],
                                       in.ops[1]);
          if (Status s = prepareSseSrc(repl, 8, false); !s) return s;
          capture(repl);
          x.lo = Value::unknown();
          x.hi = Value::known(0, true);  // the load zeroes the high lane
          return Status::okStatus();
        }
        if (accIsZeroSeed && src.isReg() && isa::isXmm(src.reg)) {
          const emu::XmmValue& sx = st_.xmm(src.reg);
          const bool srcReal =
              (sx.lo.isUnknown() || sx.lo.materialized) &&
              sx.hi.isKnown() && sx.hi.bits == 0 && sx.hi.materialized;
          if (srcReal) {
            capture(makeInstr(Mnemonic::Movapd, 16, in.ops[0], in.ops[1]));
            x.lo = sx.lo;
            x.hi = Value::known(0, true);
            return Status::okStatus();
          }
        }
      }
      Instruction kept = in;
      if (!isSqrt)
        if (Status s = materializeDstLo(dst.reg); !s) return s;
      if (Status s = prepareSseSrc(kept, w, false); !s) return s;
      capture(kept);
      st_.xmm(dst.reg).lo = Value::unknown();
      return Status::okStatus();
    }

    // --- packed arithmetic / logicals ---
    case Family::SsePacked: case Family::SseLogic: case Family::SseShuffle: {
      const bool zeroIdiom = row.laneOp == Mnemonic::Xor && src.isReg() &&
                             dst.reg == src.reg;
      if (zeroIdiom && !force) {
        ++stats_.elidedInstructions;
        st_.xmm(dst.reg).lo = Value::known(0, false);
        st_.xmm(dst.reg).hi = Value::known(0, false);
        return Status::okStatus();
      }
      auto alo = laneOf(dst, false, 8);
      auto ahi = laneOf(dst, true, 8);
      auto blo = laneOf(src, false, 8);
      auto bhi = laneOf(src, true, 8);
      if (!alo || !ahi || !blo || !bhi)
        return (!alo ? alo.error()
                     : !ahi ? ahi.error() : !blo ? blo.error() : bhi.error());
      if (!force && alo->isKnown() && ahi->isKnown() && blo->isKnown() &&
          bhi->isKnown()) {
        ++stats_.elidedInstructions;
        const emu::Lanes r = emu::evalPacked(
            in.mnemonic, {alo->bits, ahi->bits}, {blo->bits, bhi->bits},
            in.nops > 2 ? static_cast<uint8_t>(in.ops[2].imm) : 0);
        st_.xmm(dst.reg).lo = Value::known(r.lo, false);
        st_.xmm(dst.reg).hi = Value::known(r.hi, false);
        return Status::okStatus();
      }
      Instruction kept = in;
      if (Status s = materializeDstFull(dst.reg); !s) return s;
      if (Status s = prepareSseSrc(kept, 16, true); !s) return s;
      capture(kept);
      st_.xmm(dst.reg) = emu::XmmValue::unknown();
      return Status::okStatus();
    }

    // --- compares ---
    case Family::SseCompare: {
      const unsigned w = row.enc.arg;
      auto a = laneOf(dst, false, w);
      auto b = laneOf(src, false, w);
      if (!a) return a.error();
      if (!b) return b.error();
      if (!force && a->isKnown() && b->isKnown()) {
        ++stats_.elidedInstructions;
        const emu::OpResult r = emu::evalFpCompare(w, a->bits, b->bits);
        st_.flags().setAll(r.flagsKnown, r.flagsValue, false);
        return Status::okStatus();
      }
      Instruction kept = in;
      if (Status s = materializeDstLo(dst.reg); !s) return s;
      if (Status s = prepareSseSrc(kept, w, false); !s) return s;
      capture(kept);
      st_.flags().setAll(0, 0, true);
      return Status::okStatus();
    }

    default:
      break;
  }

  switch (in.mnemonic) {
    case Mnemonic::Movlpd:
    case Mnemonic::Movhpd: {
      const bool isLow = in.mnemonic == Mnemonic::Movlpd;
      if (dst.isReg() && isa::isXmm(dst.reg)) {  // lane load
        auto v = laneOf(src, false, 8);
        if (!v) return v.error();
        if (!force && v->isKnown()) {
          ++stats_.elidedInstructions;
          (isLow ? st_.xmm(dst.reg).lo : st_.xmm(dst.reg).hi) =
              Value::known(v->bits, false);
          return Status::okStatus();
        }
        Instruction kept = in;
        if (Status s = prepareSseSrc(kept, 8, false); !s) return s;
        (isLow ? st_.xmm(dst.reg).lo : st_.xmm(dst.reg).hi) =
            Value::unknown();
        capture(kept);
        return Status::okStatus();
      }
      // lane store
      emu::XmmValue& x = st_.xmm(src.reg);
      Value lane = isLow ? x.lo : x.hi;
      if (lane.isKnown() && !lane.materialized) {
        if (Status s = materializeXmmLo(src.reg); !s) return s;
        // materializeXmmLo only guarantees the LOW lane; storing a stale
        // high lane is unsound.
        if (!isLow && !st_.xmm(src.reg).hi.materialized &&
            st_.xmm(src.reg).hi.isKnown())
          return Error{ErrorCode::UnencodableInstruction, in.address,
                       "movhpd store of an unmaterialized high lane"};
      }
      Instruction kept = in;
      MemOperand& m = kept.ops[0].mem;
      const Value addr = memAddress(m, next);
      if (Status s = prepareMemOperand(m, next, false); !s) return s;
      capture(kept);
      return storeAbstract(addr, 8, lane, in.address);
    }

    // --- scalar moves ---
    case Mnemonic::Movsd:
    case Mnemonic::Movss: {
      const unsigned w = (in.mnemonic == Mnemonic::Movsd) ? 8 : 4;
      if (dst.isReg() && isa::isXmm(dst.reg)) {
        auto v = laneOf(src, false, w);
        if (!v) return v.error();
        const bool regSrc = src.isReg() && isa::isXmm(src.reg);
        // A reg-reg movss merge needs the old low lane to stay
        // representable; loads replace the whole lane.
        const bool mergeOk =
            w == 8 || !regSrc || st_.xmm(dst.reg).lo.isKnown();
        if (!force && v->isKnown() && mergeOk) {
          ++stats_.elidedInstructions;
          emu::XmmValue& x = st_.xmm(dst.reg);
          if (w == 4 && regSrc) {
            x.lo = Value::known(emu::mergeXmmLo(x.lo.bits, v->bits, 4),
                                false);
          } else if (w == 4) {
            x.lo = Value::known(emu::zeroExtend(v->bits, 4), false);
          } else {
            x.lo = Value::known(v->bits, false);
          }
          if (!regSrc) x.hi = Value::known(0, false);  // load zeroes high
          return Status::okStatus();
        }
        // Captured.
        Instruction kept = in;
        if (Status s = prepareSseSrc(kept, w, false); !s) return s;
        // If the source became a memory/pool load, the high lane is zeroed.
        const bool zeroesHigh = !kept.ops[1].isReg();
        if (w == 4 && kept.ops[1].isReg() && isa::isXmm(kept.ops[1].reg)) {
          // movss reg-reg merges into known-unmat low lane: need dst real.
          if (Status s = materializeDstLo(dst.reg); !s) return s;
        }
        capture(kept);
        emu::XmmValue& x = st_.xmm(dst.reg);
        x.lo = Value::unknown();
        if (zeroesHigh) x.hi = Value::known(0, true);
        return Status::okStatus();
      }
      // Store.
      auto v = laneOf(src, false, w);
      if (!v) return v.error();
      Instruction kept = in;
      {
        emu::XmmValue& x = st_.xmm(src.reg);
        if (x.lo.isKnown() && !x.lo.materialized)
          if (Status s = materializeXmmLo(src.reg); !s) return s;
      }
      MemOperand& m = kept.ops[0].mem;
      const Value addr = memAddress(m, next);
      if (Status s = prepareMemOperand(m, next, false); !s) return s;
      capture(kept);
      Value stored = *v;
      return storeAbstract(addr, w, stored, in.address);
    }

    // --- 16-byte moves ---
    case Mnemonic::Movapd: case Mnemonic::Movaps:
    case Mnemonic::Movupd: case Mnemonic::Movups:
    case Mnemonic::Movdqa: case Mnemonic::Movdqu: {
      if (dst.isReg() && isa::isXmm(dst.reg)) {
        auto lo = laneOf(src, false, 8);
        auto hi = laneOf(src, true, 8);
        if (!lo) return lo.error();
        if (!hi) return hi.error();
        if (!force && lo->isKnown() && hi->isKnown()) {
          ++stats_.elidedInstructions;
          st_.xmm(dst.reg).lo = Value::known(lo->bits, false);
          st_.xmm(dst.reg).hi = Value::known(hi->bits, false);
          return Status::okStatus();
        }
        Instruction kept = in;
        if (Status s = prepareSseSrc(kept, 16, true); !s) return s;
        capture(kept);
        st_.xmm(dst.reg) = emu::XmmValue::unknown();
        return Status::okStatus();
      }
      // 16-byte store.
      Instruction kept = in;
      if (Status s = materializeDstFull(src.reg); !s) return s;
      MemOperand& m = kept.ops[0].mem;
      const Value addr = memAddress(m, next);
      if (Status s = prepareMemOperand(m, next, false); !s) return s;
      capture(kept);
      const emu::XmmValue& x = st_.xmm(src.reg);
      Value loAddr = addr;
      Value hiAddr = addr;
      if (addr.isKnown()) hiAddr.bits += 8;
      if (addr.isStackRel()) hiAddr = Value::stackRel(addr.stackOffset() + 8);
      if (Status s = storeAbstract(loAddr, 8, x.lo, in.address); !s) return s;
      return storeAbstract(hiAddr, 8, x.hi, in.address);
    }

    // --- GPR bridges ---
    case Mnemonic::Movq:
    case Mnemonic::Movd: {
      const unsigned w = (in.mnemonic == Mnemonic::Movq) ? 8 : 4;
      if (dst.isReg() && isa::isXmm(dst.reg)) {
        auto v = laneOf(src, false, w);
        if (!v) return v.error();
        if (!force && v->isKnown()) {
          ++stats_.elidedInstructions;
          st_.xmm(dst.reg).lo =
              Value::known(emu::zeroExtend(v->bits, w), false);
          st_.xmm(dst.reg).hi = Value::known(0, false);
          return Status::okStatus();
        }
        Instruction kept = in;
        if (Status s = prepareSseSrc(kept, w, false); !s) return s;
        capture(kept);
        st_.xmm(dst.reg).lo = Value::unknown();
        st_.xmm(dst.reg).hi = Value::known(0, true);
        return Status::okStatus();
      }
      // xmm -> gpr or memory
      auto v = laneOf(src, false, w);
      if (!v) return v.error();
      if (dst.isReg()) {
        if (!force && v->isKnown()) {
          ++stats_.elidedInstructions;
          st_.gpr(dst.reg) =
              Value::known(emu::zeroExtend(v->bits, w), false);
          return Status::okStatus();
        }
        Instruction kept = in;
        if (src.isReg() && isa::isXmm(src.reg)) {
          emu::XmmValue& x = st_.xmm(src.reg);
          if (x.lo.isKnown() && !x.lo.materialized)
            if (Status s = materializeXmmLo(src.reg); !s) return s;
        }
        capture(kept);
        st_.gpr(dst.reg) = Value::unknown();
        return Status::okStatus();
      }
      // store form
      Instruction kept = in;
      {
        emu::XmmValue& x = st_.xmm(src.reg);
        if (x.lo.isKnown() && !x.lo.materialized)
          if (Status s = materializeXmmLo(src.reg); !s) return s;
      }
      MemOperand& m = kept.ops[0].mem;
      const Value addr = memAddress(m, next);
      if (Status s = prepareMemOperand(m, next, false); !s) return s;
      capture(kept);
      return storeAbstract(addr, w, *v, in.address);
    }

    // --- conversions ---
    case Mnemonic::Cvtsi2sd: case Mnemonic::Cvtsi2ss: {
      const unsigned fpW = (in.mnemonic == Mnemonic::Cvtsi2sd) ? 8 : 4;
      auto v = laneOf(src, false, in.srcWidth);
      if (!v) return v.error();
      emu::XmmValue& x = st_.xmm(dst.reg);
      if (!force && v->isKnown() && (fpW == 8 || x.lo.isKnown())) {
        ++stats_.elidedInstructions;
        const uint64_t r = emu::evalCvtIntToFp(fpW, in.srcWidth, v->bits);
        x.lo = Value::known(emu::mergeXmmLo(x.lo.bits, r, fpW), false);
        return Status::okStatus();
      }
      Instruction kept = in;
      if (Status s = prepareSseSrc(kept, in.srcWidth, false); !s) return s;
      if (fpW == 4)
        if (Status s = materializeDstLo(dst.reg); !s) return s;
      capture(kept);
      st_.xmm(dst.reg).lo = Value::unknown();
      return Status::okStatus();
    }
    case Mnemonic::Cvttsd2si: case Mnemonic::Cvttss2si: {
      const unsigned fpW = (in.mnemonic == Mnemonic::Cvttsd2si) ? 8 : 4;
      auto v = laneOf(src, false, fpW);
      if (!v) return v.error();
      if (!force && v->isKnown()) {
        ++stats_.elidedInstructions;
        st_.gpr(dst.reg) = Value::known(
            emu::mergeWrite(0, emu::evalCvtFpToInt(in.width, fpW, v->bits),
                            in.width == 4 ? 4 : 8),
            false);
        return Status::okStatus();
      }
      Instruction kept = in;
      if (Status s = prepareSseSrc(kept, fpW, false); !s) return s;
      capture(kept);
      st_.gpr(dst.reg) = Value::unknown();
      return Status::okStatus();
    }
    case Mnemonic::Cvtsd2ss: case Mnemonic::Cvtss2sd: {
      const unsigned srcW = (in.mnemonic == Mnemonic::Cvtsd2ss) ? 8 : 4;
      const unsigned dstW = (in.mnemonic == Mnemonic::Cvtsd2ss) ? 4 : 8;
      auto v = laneOf(src, false, srcW);
      if (!v) return v.error();
      emu::XmmValue& x = st_.xmm(dst.reg);
      if (!force && v->isKnown() && (dstW == 8 || x.lo.isKnown())) {
        ++stats_.elidedInstructions;
        const uint64_t r = emu::evalCvtFpToFp(dstW, v->bits);
        x.lo = Value::known(emu::mergeXmmLo(x.lo.bits, r, dstW), false);
        return Status::okStatus();
      }
      Instruction kept = in;
      if (Status s = prepareSseSrc(kept, srcW, false); !s) return s;
      if (dstW == 4)
        if (Status s = materializeDstLo(dst.reg); !s) return s;
      capture(kept);
      st_.xmm(dst.reg).lo = Value::unknown();
      return Status::okStatus();
    }

    default:
      return Error{ErrorCode::UnsupportedInstruction, in.address,
                   isa::row(in.mnemonic).name};
  }
}

}  // namespace brew
