// Cross-iteration load elimination over the captured straight-line streams
// that full unrolling produces (§IV). Declarations are internal to the pass
// pipeline; the public knobs live in PassOptions.
#pragma once

#include <cstddef>

#include "ir/captured.hpp"

namespace brew {

// Value-numbered window of live loaded lanes: repeated memory operands of
// the unrolled stream (literal-pool constants especially) are hoisted into
// scratch registers and re-loads become register reuse. Returns the number
// of memory accesses eliminated.
size_t runCrossIterLoads(ir::CapturedFunction& fn);

// Does this instruction replace every bit of XMM register r? Also used by
// the final peephole's return-copy coalescing.
bool fullXmmOverwrite(const isa::Instruction& in, isa::Reg r);

}  // namespace brew
