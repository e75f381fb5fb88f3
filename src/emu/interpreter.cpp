#include "emu/interpreter.hpp"

#include <cstring>

#include "emu/value.hpp"
#include "isa/decoder.hpp"

namespace brew::emu {

using isa::Cond;
using isa::Instruction;
using isa::MemOperand;
using isa::Mnemonic;
using isa::Operand;
using isa::Reg;

namespace {
// Sentinel return address marking the outermost frame.
constexpr uint64_t kReturnSentinel = 0xB4EEB4EEB4EEB4EEULL;
}  // namespace

Interpreter::Interpreter(Options options)
    : options_(options), stack_(options.stackBytes) {}

double Interpreter::CallResult::fpResult() const {
  double d;
  std::memcpy(&d, &fpResultBits, 8);
  return d;
}

Result<Interpreter::CallResult> Interpreter::call(
    uint64_t fn, std::span<const uint64_t> intArgs,
    std::span<const double> fpArgs) {
  if (intArgs.size() > 6 || fpArgs.size() > 8)
    return Error{ErrorCode::InvalidArgument, 0,
                 "too many register arguments"};
  std::memset(gpr_, 0, sizeof gpr_);
  std::memset(xmm_, 0, sizeof xmm_);
  flags_ = 0;
  steps_ = 0;

  for (size_t i = 0; i < intArgs.size(); ++i)
    gpr_[isa::regNum(isa::abi::kIntArgs[i])] = intArgs[i];
  for (size_t i = 0; i < fpArgs.size(); ++i)
    std::memcpy(&xmm_[isa::regNum(isa::abi::kSseArgs[i])][0], &fpArgs[i], 8);

  // 16-byte aligned stack top, then the sentinel return address (so rsp is
  // return-address-aligned exactly like after a real call).
  uint64_t rsp = reinterpret_cast<uint64_t>(stack_.data() + stack_.size());
  rsp &= ~uint64_t{15};
  rsp -= 8;
  std::memcpy(reinterpret_cast<void*>(rsp), &kReturnSentinel, 8);
  gpr_[static_cast<int>(Reg::rsp)] = rsp;
  rip_ = fn;

  while (rip_ != kReturnSentinel) {
    if (++steps_ > options_.maxSteps)
      return Error{ErrorCode::TraceStepLimit, rip_, "interpreter step limit"};
    if (Status s = step(); !s) return s.error();
  }
  CallResult result;
  result.intResult = gpr_[0];
  result.fpResultBits = xmm_[0][0];
  result.steps = steps_;
  return result;
}

Status Interpreter::step() {
  auto decoded = isa::decodeAt(rip_);
  if (!decoded) return decoded.error();
  const Instruction& in = *decoded;
  const uint64_t next = rip_ + in.length;
  const unsigned w = in.width;

  auto effAddr = [&](const MemOperand& m) -> uint64_t {
    if (m.ripRelative) return next + static_cast<int64_t>(m.disp);
    uint64_t addr = static_cast<uint64_t>(static_cast<int64_t>(m.disp));
    if (m.base != Reg::none) addr += gpr_[isa::regNum(m.base)];
    if (m.index != Reg::none)
      addr += gpr_[isa::regNum(m.index)] * m.scale;
    return addr;
  };
  auto loadMem = [&](uint64_t addr, unsigned width) -> uint64_t {
    uint64_t v = 0;
    std::memcpy(&v, reinterpret_cast<const void*>(addr), width);
    return v;
  };
  auto storeMem = [&](uint64_t addr, unsigned width, uint64_t v) {
    std::memcpy(reinterpret_cast<void*>(addr), &v, width);
  };
  auto readGprOp = [&](const Operand& op, unsigned width) -> uint64_t {
    switch (op.kind) {
      case Operand::Kind::Reg: return zeroExtend(gpr_[isa::regNum(op.reg)],
                                                 width);
      case Operand::Kind::Imm: return zeroExtend(
          static_cast<uint64_t>(op.imm), width);
      case Operand::Kind::Mem: return loadMem(effAddr(op.mem), width);
      default: return 0;
    }
  };
  auto writeGprOp = [&](const Operand& op, unsigned width, uint64_t v) {
    if (op.isReg()) {
      uint64_t& r = gpr_[isa::regNum(op.reg)];
      r = mergeWrite(r, v, width);
    } else if (op.isMem()) {
      storeMem(effAddr(op.mem), width, v);
    }
  };
  auto readXmmLo = [&](const Operand& op, unsigned width) -> uint64_t {
    if (op.isReg() && isa::isXmm(op.reg))
      return zeroExtend(xmm_[isa::regNum(op.reg)][0], width);
    if (op.isMem()) return loadMem(effAddr(op.mem), width);
    return 0;
  };
  auto applyFlags = [&](const OpResult& r) {
    flags_ = static_cast<uint8_t>((flags_ & ~r.flagsKnown) |
                                  (r.flagsValue & r.flagsKnown));
  };
  auto push64 = [&](uint64_t v) {
    gpr_[static_cast<int>(Reg::rsp)] -= 8;
    storeMem(gpr_[static_cast<int>(Reg::rsp)], 8, v);
  };
  auto pop64 = [&]() -> uint64_t {
    const uint64_t v = loadMem(gpr_[static_cast<int>(Reg::rsp)], 8);
    gpr_[static_cast<int>(Reg::rsp)] += 8;
    return v;
  };

  rip_ = next;

  const isa::MnemonicInfo& row = isa::row(in.mnemonic);
  switch (row.family) {
    case isa::Family::SseScalar: {
      uint64_t* d = xmm_[isa::regNum(in.ops[0].reg)];
      const unsigned fw = row.enc.arg;
      d[0] = mergeXmmLo(
          d[0], evalFpScalar(in.mnemonic, fw, d[0], readXmmLo(in.ops[1], fw)),
          fw);
      return Status::okStatus();
    }
    case isa::Family::SsePacked: case isa::Family::SseLogic:
    case isa::Family::SseShuffle: {
      uint64_t* d = xmm_[isa::regNum(in.ops[0].reg)];
      Lanes src;
      if (in.ops[1].isReg()) {
        src = {xmm_[isa::regNum(in.ops[1].reg)][0],
               xmm_[isa::regNum(in.ops[1].reg)][1]};
      } else {
        const uint64_t addr = effAddr(in.ops[1].mem);
        src = {loadMem(addr, 8), loadMem(addr + 8, 8)};
      }
      const Lanes r =
          evalPacked(in.mnemonic, {d[0], d[1]}, src,
                     in.nops > 2 ? static_cast<uint8_t>(in.ops[2].imm) : 0);
      d[0] = r.lo;
      d[1] = r.hi;
      return Status::okStatus();
    }
    case isa::Family::SseCompare:
      applyFlags(evalFpCompare(row.enc.arg, xmm_[isa::regNum(in.ops[0].reg)][0],
                               readXmmLo(in.ops[1], row.enc.arg)));
      return Status::okStatus();
    default:
      break;
  }

  switch (in.mnemonic) {
    case Mnemonic::Nop:
    case Mnemonic::Endbr64:
      return Status::okStatus();

    case Mnemonic::Mov:
      writeGprOp(in.ops[0], w, readGprOp(in.ops[1], w));
      return Status::okStatus();
    case Mnemonic::Movsxd:
    case Mnemonic::Movsx: {
      const uint64_t src = readGprOp(in.ops[1], in.srcWidth);
      writeGprOp(in.ops[0], w == 4 ? 4 : w, signExtend(src, in.srcWidth));
      return Status::okStatus();
    }
    case Mnemonic::Movzx:
      writeGprOp(in.ops[0], w, readGprOp(in.ops[1], in.srcWidth));
      return Status::okStatus();
    case Mnemonic::Lea:
      writeGprOp(in.ops[0], w, effAddr(in.ops[1].mem));
      return Status::okStatus();

    case Mnemonic::Push:
      push64(readGprOp(in.ops[0], 8));
      return Status::okStatus();
    case Mnemonic::Pop:
      writeGprOp(in.ops[0], 8, pop64());
      return Status::okStatus();
    case Mnemonic::Leave: {
      gpr_[static_cast<int>(Reg::rsp)] = gpr_[static_cast<int>(Reg::rbp)];
      gpr_[static_cast<int>(Reg::rbp)] = pop64();
      return Status::okStatus();
    }

    case Mnemonic::Add: case Mnemonic::Adc: case Mnemonic::Sub:
    case Mnemonic::Sbb: case Mnemonic::And: case Mnemonic::Or:
    case Mnemonic::Xor: {
      const uint64_t a = readGprOp(in.ops[0], w);
      const uint64_t b = readGprOp(in.ops[1], w);
      const OpResult r =
          evalAlu(in.mnemonic, w, a, b, flags_ & isa::kFlagCF);
      writeGprOp(in.ops[0], w, r.value);
      applyFlags(r);
      return Status::okStatus();
    }
    case Mnemonic::Cmp: case Mnemonic::Test: {
      const uint64_t a = readGprOp(in.ops[0], w);
      const uint64_t b = readGprOp(in.ops[1], w);
      applyFlags(evalAlu(in.mnemonic, w, a, b));
      return Status::okStatus();
    }
    case Mnemonic::Not: case Mnemonic::Neg:
    case Mnemonic::Inc: case Mnemonic::Dec: {
      const uint64_t a = readGprOp(in.ops[0], w);
      const OpResult r = evalUnary(in.mnemonic, w, a);
      writeGprOp(in.ops[0], w, r.value);
      applyFlags(r);
      return Status::okStatus();
    }
    case Mnemonic::Shl: case Mnemonic::Shr: case Mnemonic::Sar:
    case Mnemonic::Rol: case Mnemonic::Ror: {
      const uint64_t a = readGprOp(in.ops[0], w);
      const uint64_t count = in.ops[1].isImm()
                                 ? static_cast<uint64_t>(in.ops[1].imm)
                                 : (gpr_[1] & 0xFF);  // CL
      const OpResult r = evalShift(in.mnemonic, w, a, count);
      writeGprOp(in.ops[0], w, r.value);
      applyFlags(r);
      return Status::okStatus();
    }
    case Mnemonic::Imul: {
      const uint64_t a = (in.nops == 3) ? readGprOp(in.ops[1], w)
                                        : readGprOp(in.ops[0], w);
      const uint64_t b = (in.nops == 3)
                             ? static_cast<uint64_t>(in.ops[2].imm)
                             : readGprOp(in.ops[1], w);
      const OpResult r = evalImul(w, a, b);
      writeGprOp(in.ops[0], w, r.value);
      applyFlags(r);
      return Status::okStatus();
    }
    case Mnemonic::ImulWide: case Mnemonic::MulWide: {
      const WideMulResult r =
          evalWideMul(in.mnemonic == Mnemonic::ImulWide, w, gpr_[0],
                      readGprOp(in.ops[0], w));
      gpr_[0] = mergeWrite(gpr_[0], r.lo, w);
      gpr_[2] = mergeWrite(gpr_[2], r.hi, w);
      flags_ = static_cast<uint8_t>((flags_ & ~r.flagsKnown) |
                                    (r.flagsValue & r.flagsKnown));
      return Status::okStatus();
    }
    case Mnemonic::Idiv: case Mnemonic::Div: {
      const DivResult r =
          evalDiv(in.mnemonic == Mnemonic::Idiv, w, gpr_[2], gpr_[0],
                  readGprOp(in.ops[0], w));
      if (r.fault)
        return Error{ErrorCode::UnsupportedInstruction, in.address,
                     "#DE divide fault"};
      gpr_[0] = mergeWrite(gpr_[0], r.quotient, w);
      gpr_[2] = mergeWrite(gpr_[2], r.remainder, w);
      return Status::okStatus();
    }
    case Mnemonic::Cdqe:  // cbw/cwde/cdqe: the low half, sign-extended
      gpr_[0] = mergeWrite(gpr_[0], signExtend(gpr_[0], w / 2), w);
      return Status::okStatus();
    case Mnemonic::Cdq: {
      const uint64_t sign =
          (gpr_[0] & (1ULL << (w * 8 - 1))) ? maskForWidth(w) : 0;
      gpr_[2] = mergeWrite(gpr_[2], sign, w);
      return Status::okStatus();
    }

    case Mnemonic::Cmovcc:
      if (evalCond(in.cond, flags_))
        writeGprOp(in.ops[0], w, readGprOp(in.ops[1], w));
      else if (w == 4)
        writeGprOp(in.ops[0], 4, readGprOp(in.ops[0], 4));  // zero-extend
      return Status::okStatus();
    case Mnemonic::Setcc:
      writeGprOp(in.ops[0], 1, evalCond(in.cond, flags_) ? 1 : 0);
      return Status::okStatus();

    case Mnemonic::Jmp:
      rip_ = static_cast<uint64_t>(in.ops[0].imm);
      return Status::okStatus();
    case Mnemonic::JmpInd:
      rip_ = readGprOp(in.ops[0], 8);
      return Status::okStatus();
    case Mnemonic::Jcc:
      if (evalCond(in.cond, flags_))
        rip_ = static_cast<uint64_t>(in.ops[0].imm);
      return Status::okStatus();
    case Mnemonic::Call:
      push64(next);
      rip_ = static_cast<uint64_t>(in.ops[0].imm);
      return Status::okStatus();
    case Mnemonic::CallInd: {
      const uint64_t target = readGprOp(in.ops[0], 8);
      push64(next);
      rip_ = target;
      return Status::okStatus();
    }
    case Mnemonic::Ret:
      rip_ = pop64();
      if (in.nops == 1)
        gpr_[static_cast<int>(Reg::rsp)] +=
            static_cast<uint64_t>(in.ops[0].imm);
      return Status::okStatus();

    // --- SSE ---
    case Mnemonic::Movsd: case Mnemonic::Movss: {
      const unsigned width = (in.mnemonic == Mnemonic::Movsd) ? 8 : 4;
      const Operand& dst = in.ops[0];
      const Operand& src = in.ops[1];
      if (dst.isReg()) {
        uint64_t* d = xmm_[isa::regNum(dst.reg)];
        if (src.isReg()) {  // reg-reg: merge low lane
          d[0] = mergeXmmLo(d[0], xmm_[isa::regNum(src.reg)][0], width);
        } else {  // load zeroes the rest
          d[0] = loadMem(effAddr(src.mem), width);
          d[1] = 0;
        }
      } else {
        storeMem(effAddr(dst.mem), width, xmm_[isa::regNum(src.reg)][0]);
      }
      return Status::okStatus();
    }
    case Mnemonic::Movapd: case Mnemonic::Movaps:
    case Mnemonic::Movupd: case Mnemonic::Movups:
    case Mnemonic::Movdqa: case Mnemonic::Movdqu: {
      const Operand& dst = in.ops[0];
      const Operand& src = in.ops[1];
      uint64_t lo, hi;
      if (src.isReg()) {
        lo = xmm_[isa::regNum(src.reg)][0];
        hi = xmm_[isa::regNum(src.reg)][1];
      } else {
        const uint64_t addr = effAddr(src.mem);
        lo = loadMem(addr, 8);
        hi = loadMem(addr + 8, 8);
      }
      if (dst.isReg()) {
        xmm_[isa::regNum(dst.reg)][0] = lo;
        xmm_[isa::regNum(dst.reg)][1] = hi;
      } else {
        const uint64_t addr = effAddr(dst.mem);
        storeMem(addr, 8, lo);
        storeMem(addr + 8, 8, hi);
      }
      return Status::okStatus();
    }
    case Mnemonic::Movlpd: case Mnemonic::Movhpd: {
      const int lane = (in.mnemonic == Mnemonic::Movlpd) ? 0 : 1;
      if (in.ops[0].isReg()) {
        xmm_[isa::regNum(in.ops[0].reg)][lane] =
            loadMem(effAddr(in.ops[1].mem), 8);
      } else {
        storeMem(effAddr(in.ops[0].mem), 8,
                 xmm_[isa::regNum(in.ops[1].reg)][lane]);
      }
      return Status::okStatus();
    }

    case Mnemonic::Movq: case Mnemonic::Movd: {
      const unsigned width = (in.mnemonic == Mnemonic::Movq) ? 8 : 4;
      const Operand& dst = in.ops[0];
      const Operand& src = in.ops[1];
      uint64_t v;
      if (src.isReg() && isa::isXmm(src.reg))
        v = zeroExtend(xmm_[isa::regNum(src.reg)][0], width);
      else
        v = readGprOp(src, width);
      if (dst.isReg() && isa::isXmm(dst.reg)) {
        xmm_[isa::regNum(dst.reg)][0] = v;
        xmm_[isa::regNum(dst.reg)][1] = 0;
      } else {
        writeGprOp(dst, width == 4 ? 4 : 8, v);
      }
      return Status::okStatus();
    }

    case Mnemonic::Cvtsi2sd: case Mnemonic::Cvtsi2ss: {
      uint64_t* d = xmm_[isa::regNum(in.ops[0].reg)];
      const unsigned fpW = (in.mnemonic == Mnemonic::Cvtsi2sd) ? 8 : 4;
      const uint64_t v =
          evalCvtIntToFp(fpW, in.srcWidth, readGprOp(in.ops[1], in.srcWidth));
      d[0] = mergeXmmLo(d[0], v, fpW);
      return Status::okStatus();
    }
    case Mnemonic::Cvttsd2si: case Mnemonic::Cvttss2si: {
      const unsigned fpW = (in.mnemonic == Mnemonic::Cvttsd2si) ? 8 : 4;
      writeGprOp(in.ops[0], w,
                 evalCvtFpToInt(w, fpW, readXmmLo(in.ops[1], fpW)));
      return Status::okStatus();
    }
    case Mnemonic::Cvtsd2ss: {
      uint64_t* d = xmm_[isa::regNum(in.ops[0].reg)];
      d[0] = mergeXmmLo(d[0], evalCvtFpToFp(4, readXmmLo(in.ops[1], 8)), 4);
      return Status::okStatus();
    }
    case Mnemonic::Cvtss2sd: {
      uint64_t* d = xmm_[isa::regNum(in.ops[0].reg)];
      d[0] = evalCvtFpToFp(8, readXmmLo(in.ops[1], 4));
      return Status::okStatus();
    }

    case Mnemonic::Ud2:
    case Mnemonic::Int3:
      return Error{ErrorCode::UnsupportedInstruction, in.address,
                   "trap instruction reached"};
    default:
      return Error{ErrorCode::UnsupportedInstruction, in.address,
                   row.name};
  }
}

}  // namespace brew::emu
