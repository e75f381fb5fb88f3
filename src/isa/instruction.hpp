// Decoded-instruction representation shared by the decoder, encoder,
// printer, tracer and passes.
//
// Operand convention follows Intel order: ops[0] is the destination (or the
// first source for compare-like instructions), ops[1] the source, ops[2] an
// optional extra (3-operand imul immediate).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "isa/registers.hpp"

namespace brew::isa {

enum class Mnemonic : uint8_t {
#define X(id, ...) id,
#include "isa/mnemonics.def"
#undef X
  Count_,
};

// Condition codes, numbered like the hardware encoding (Jcc = 0F 80+cc).
enum class Cond : uint8_t {
  O = 0x0, NO = 0x1, B = 0x2, AE = 0x3, E = 0x4, NE = 0x5, BE = 0x6, A = 0x7,
  S = 0x8, NS = 0x9, P = 0xA, NP = 0xB, L = 0xC, GE = 0xD, LE = 0xE, G = 0xF,
};

const char* condName(Cond c) noexcept;
constexpr Cond invert(Cond c) noexcept {
  return static_cast<Cond>(static_cast<uint8_t>(c) ^ 1);
}

// RFLAGS bits the subset models.
enum : uint8_t {
  kFlagCF = 1 << 0,
  kFlagPF = 1 << 1,
  kFlagAF = 1 << 2,
  kFlagZF = 1 << 3,
  kFlagSF = 1 << 4,
  kFlagOF = 1 << 5,
  kAllFlags = kFlagCF | kFlagPF | kFlagAF | kFlagZF | kFlagSF | kFlagOF,
  kArithFlags = kAllFlags,
};

constexpr uint32_t regBit(Reg r) noexcept {
  return isGpr(r) ? (1u << regNum(r)) : (isXmm(r) ? (1u << (16 + regNum(r)))
                                                  : 0u);
}

// --- The instruction table ------------------------------------------------
//
// Every per-mnemonic fact lives in one row of isa/mnemonics.def. The
// decoder, encoder, printer, tracer and passes read its
// columns; none keeps its own list of mnemonics.

// Which tracer handler a mnemonic goes to.
enum class Family : uint8_t {
  None,  // decoded but never traced (traps, RFLAGS save/restore)
  Nop, Mov, Lea, Push, Pop, GprArith, WideMulDiv, CmovSetcc, Branch,
  SseMove, SseScalar, SsePacked, SseLogic, SseShuffle, SseCompare,
  SseConvert,
};

// Row attributes.
enum : uint16_t {
  kReadsDst = 1 << 0,        // ops[0] is read as well as written (add)
  kNoDst = 1 << 1,           // ops[0] is a source only (push, div, jmp)
  kCompare = 1 << 2,         // writes only the flags (cmp, test, ucomisd)
  kCondFlags = 1 << 3,       // reads the flags its condition code tests
  kImm32Src = 1 << 4,        // ops[1] may be an imm32 (mov, ALU group, test)
  kCountInCl = 1 << 5,       // shift: a register count is cl
  kPushes = 1 << 6,          // stores below rsp (push, pushfq, call)
  kXmmWhole = 1 << 7,        // replaces every bit of an XMM destination
  kXmmWholeIfLoad = 1 << 8,  // ... when its source is memory (movsd, movss)
};

// Implicit register operands, as regBit masks.
inline constexpr uint32_t kRax = regBit(Reg::rax);
inline constexpr uint32_t kRdx = regBit(Reg::rdx);
inline constexpr uint32_t kRsp = regBit(Reg::rsp);
inline constexpr uint32_t kRbp = regBit(Reg::rbp);
// SysV ABI: a callee may read rsp, rax (the vararg count) and the argument
// registers, and clobbers rsp, the caller-saved GPRs and every XMM register.
inline constexpr uint32_t kCallReads = [] {
  uint32_t m = kRsp | kRax;
  for (Reg r : abi::kIntArgs) m |= regBit(r);
  for (Reg r : abi::kSseArgs) m |= regBit(r);
  return m;
}();
inline constexpr uint32_t kCallClobbers = [] {
  uint32_t m = kRsp | 0xFFFF0000u;
  for (unsigned i = 0; i < 16; ++i)
    if (abi::isCallerSaved(gprFromNum(i))) m |= 1u << i;
  return m;
}();

// How the legacy ALU group or an SSE `op xmm, xmm/m` form is encoded.
struct Encoding {
  enum class Kind : uint8_t { None, Alu, Sse };
  Kind kind = Kind::None;
  uint8_t prefix = 0;  // SSE: mandatory prefix (0 = none)
  uint8_t opcode = 0;  // ALU: the r/m,r opcode of the wide form; SSE: 0F xx
  uint8_t arg = 0;     // ALU: the /ext of 80/81/83; SSE: the operand width
};

struct MnemonicInfo {
  const char* name;
  Family family;
  uint8_t flagsWritten;
  uint8_t flagsRead;      // kCondFlags adds the condition code's flags
  uint16_t attrs;
  uint32_t implicitReads;
  uint32_t implicitWrites;
  Encoding enc;
  Mnemonic laneOp;        // packed ops: the op applied to each lane
  uint8_t laneWidth;      // packed ops: lane width in bytes

  constexpr bool has(uint16_t a) const { return (attrs & a) != 0; }
  // Whether a register or memory ops[0] is written.
  constexpr bool writesOp0() const { return !has(kNoDst | kCompare); }
};

namespace detail {
#define NO_ENC Encoding{}
#define ALU(opcode, ext) Encoding{Encoding::Kind::Alu, 0, opcode, ext}
#define SSE(prefix, opcode, width) \
  Encoding{Encoding::Kind::Sse, prefix, opcode, width}
#define NO_LANES Mnemonic::Invalid, 0
#define LANES(op, width) Mnemonic::op, width
#define X(id, name, family, fw, fr, attrs, ird, iwr, enc, lanes) \
  MnemonicInfo{name, Family::family, fw, fr, attrs, ird, iwr, enc, lanes},
inline constexpr MnemonicInfo kMnemonicRows[] = {
#include "isa/mnemonics.def"
};
#undef X
#undef LANES
#undef NO_LANES
#undef SSE
#undef ALU
#undef NO_ENC
}  // namespace detail
static_assert(sizeof(detail::kMnemonicRows) / sizeof(MnemonicInfo) ==
              static_cast<size_t>(Mnemonic::Count_));

// The table row of m.
constexpr const MnemonicInfo& row(Mnemonic m) noexcept {
  return detail::kMnemonicRows[static_cast<size_t>(m)];
}

// Memory operand: [base + index*scale + disp], or [rip + disp].
struct MemOperand {
  Reg base = Reg::none;
  Reg index = Reg::none;
  uint8_t scale = 1;      // 1, 2, 4 or 8
  int32_t disp = 0;
  bool ripRelative = false;
  // Set by the rewriter when this operand addresses a slot in the generated
  // function's literal pool; the relocator patches the RIP displacement.
  int32_t poolSlot = -1;
  // For captured RIP-relative operands that keep referencing the *original*
  // data: the absolute target address. The encoder recomputes the
  // displacement for the instruction's new location (and fails gracefully
  // when the target is out of rel32 range).
  int64_t ripTarget = 0;

  bool operator==(const MemOperand&) const = default;
};

struct Operand {
  enum class Kind : uint8_t { None, Reg, Imm, Mem };
  Kind kind = Kind::None;
  Reg reg = Reg::none;
  int64_t imm = 0;
  MemOperand mem;

  static Operand none() { return {}; }
  static Operand makeReg(Reg r) {
    Operand op;
    op.kind = Kind::Reg;
    op.reg = r;
    return op;
  }
  static Operand makeImm(int64_t value) {
    Operand op;
    op.kind = Kind::Imm;
    op.imm = value;
    return op;
  }
  static Operand makeMem(MemOperand m) {
    Operand op;
    op.kind = Kind::Mem;
    op.mem = m;
    return op;
  }
  static Operand ripMem(int32_t disp) {
    MemOperand m;
    m.ripRelative = true;
    m.disp = disp;
    return makeMem(m);
  }

  bool isReg() const noexcept { return kind == Kind::Reg; }
  bool isImm() const noexcept { return kind == Kind::Imm; }
  bool isMem() const noexcept { return kind == Kind::Mem; }
  bool isNone() const noexcept { return kind == Kind::None; }

  bool operator==(const Operand&) const = default;
};

struct Instruction {
  Mnemonic mnemonic = Mnemonic::Invalid;
  Cond cond = Cond::O;       // for Jcc / Setcc / Cmovcc
  uint8_t width = 8;         // main operand width in bytes (1/2/4/8/16)
  uint8_t srcWidth = 0;      // source width for Movsx/Movzx/Cvtsi2sd
  uint8_t nops = 0;
  Operand ops[3];

  // Decode metadata (0 for synthesized instructions).
  uint64_t address = 0;      // guest address this was decoded from
  uint8_t length = 0;        // encoded length in bytes
  // Set by the tracer on synthesized movabs whose immediate is an absolute
  // address into static code (kept call/tail-call targets, injected
  // handlers). The emitter turns these into relocation records so the
  // persistence layer can re-target the bytes when a restarted process maps
  // the module at a different base. Not part of operator== (metadata, like
  // address/length).
  bool absCode = false;

  Operand& op(unsigned i) { return ops[i]; }
  const Operand& op(unsigned i) const { return ops[i]; }

  void setOps(Operand a) {
    nops = 1;
    ops[0] = a;
  }
  void setOps(Operand a, Operand b) {
    nops = 2;
    ops[0] = a;
    ops[1] = b;
  }
  void setOps(Operand a, Operand b, Operand c) {
    nops = 3;
    ops[0] = a;
    ops[1] = b;
    ops[2] = c;
  }

  bool operator==(const Instruction& other) const {
    if (mnemonic != other.mnemonic || cond != other.cond ||
        width != other.width || srcWidth != other.srcWidth ||
        nops != other.nops)
      return false;
    for (unsigned i = 0; i < nops; ++i)
      if (!(ops[i] == other.ops[i])) return false;
    return true;
  }
};

// Convenience factory for synthesized (rewriter-generated) instructions.
Instruction makeInstr(Mnemonic m, uint8_t width);
Instruction makeInstr(Mnemonic m, uint8_t width, Operand a);
Instruction makeInstr(Mnemonic m, uint8_t width, Operand a, Operand b);
Instruction makeInstr(Mnemonic m, uint8_t width, Operand a, Operand b,
                      Operand c);

// --- Instruction-level views of the row --------------------------------

uint8_t condFlagsRead(Cond c) noexcept;

// RFLAGS bits written / read (a jcc/setcc/cmovcc reads its cond's flags).
inline uint8_t flagsWritten(const Instruction& instr) noexcept {
  return row(instr.mnemonic).flagsWritten;
}
inline uint8_t flagsRead(const Instruction& instr) noexcept {
  const MnemonicInfo& r = row(instr.mnemonic);
  return r.flagsRead | (r.has(kCondFlags) ? condFlagsRead(instr.cond) : 0);
}

// True if ops[0] is also read (add, sub, ...) as opposed to pure writes
// (mov, lea, movsd load, setcc...).
inline bool readsDestination(const Instruction& instr) noexcept {
  return row(instr.mnemonic).has(kReadsDst);
}

// True for instructions that write memory: a memory ops[0] that is not a
// source only, or a push below rsp.
bool writesMemory(const Instruction& instr) noexcept;

// Conservative register def/use sets as bitmasks: bit i = GPR i,
// bit 16+i = XMM i. Includes implicit operands (rax/rdx of mul/div,
// rcx of variable shifts, rsp of stack operations).
uint32_t regsWritten(const Instruction& instr) noexcept;
uint32_t regsRead(const Instruction& instr) noexcept;

}  // namespace brew::isa
