// Register rules for captured functions whose block graph has a cycle
// (§IV, §V-B): the loops the tracer keeps run their body once per
// iteration, so a copy or a constant load left in it is paid every time.
// Declarations are internal to the pass pipeline; the rules ride on the
// existing PassOptions switches.
#pragma once

#include <cstddef>

#include "ir/captured.hpp"

namespace brew {

struct LoopRegisterStats {
  bool cyclic = false;          // the rules ran: some block reaches itself
  size_t copiesCoalesced = 0;   // XMM copies removed
  size_t constsHoisted = 0;     // registers whose pool load moved to entry
};

// One backward liveness of the XMM registers over the block CFG, then:
//  - `coalesce`: XMM-to-XMM movapd/movaps copies go, by forward copy
//    propagation when the destination dies in the block before either
//    register changes, else by a backward register swap when the copy's
//    source dies at the copy;
//  - `hoist`: an XMM register written only by loads of one pool slot (two
//    or more of them) is loaded once, at function entry.
// Returns with `cyclic` false, changing nothing, for loop-free functions.
LoopRegisterStats runLoopRegisterRules(ir::CapturedFunction& fn,
                                       bool coalesce, bool hoist);

}  // namespace brew
