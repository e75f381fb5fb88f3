#include "core/config.hpp"

#include <algorithm>
#include <cstring>

namespace brew {

ArgValue ArgValue::fromDouble(double d) {
  ArgValue v;
  std::memcpy(&v.bits, &d, 8);
  v.isFloat = true;
  return v;
}

Config& Config::setParam(size_t index, ParamSpec spec) {
  if (index < kMaxParams) {
    params_[index] = spec;
    declaredParams_ = std::max(declaredParams_, index + 1);
  }
  return *this;
}

Config& Config::addKnownRegion(const void* start, size_t bytes) {
  const auto addr = reinterpret_cast<uint64_t>(start);
  knownRegions_.push_back(MemRegion{addr, addr + bytes});
  return *this;
}

bool Config::isKnownRegion(uint64_t addr, size_t bytes) const {
  return std::any_of(knownRegions_.begin(), knownRegions_.end(),
                     [&](const MemRegion& r) { return r.contains(addr, bytes); });
}

Config& Config::setFunctionOptions(const void* fn, FunctionOptions options) {
  perFunction_[reinterpret_cast<uint64_t>(fn)] = options;
  return *this;
}

FunctionOptions Config::functionOptions(uint64_t fn) const {
  auto it = perFunction_.find(fn);
  return it != perFunction_.end() ? it->second : defaults_;
}

namespace {

uint64_t functionOptionBits(const FunctionOptions& options) {
  return static_cast<uint64_t>(options.inlineCalls) |
         static_cast<uint64_t>(options.forceUnknownResults) << 1 |
         static_cast<uint64_t>(options.pure) << 2;
}

}  // namespace

uint8_t* Config::writeKeySection(uint8_t* out, uint64_t passBits) const {
  auto putWord = [&out](uint64_t v) {
    std::memcpy(out, &v, sizeof v);
    out += sizeof v;
  };
  putWord(declaredParams_);
  // A pointee is below 2^47 bytes (user address space), so 48 bits hold
  // every size.
  for (size_t i = 0; i < declaredParams_; ++i)
    putWord(static_cast<uint64_t>(params_[i].kind) |
            static_cast<uint64_t>(params_[i].isFloat) << 8 |
            uint64_t{params_[i].pointeeSize} << 16);
  // perFunction_ is an ordered map, so the entries come out in one order
  // for a given option set.
  putWord(perFunction_.size());
  for (const auto& [address, options] : perFunction_) {
    putWord(address);
    putWord(functionOptionBits(options));
  }
  putWord(functionOptionBits(defaults_) |
          static_cast<uint64_t>(returnKind_) << 8 |
          static_cast<uint64_t>(foldZeroAccumulator_) << 16 | passBits << 24);
  putWord(limits_.maxTraceSteps);
  putWord(limits_.maxCodeBytes);
  putWord(limits_.maxBlocks);
  putWord(static_cast<uint64_t>(limits_.maxVariantsPerAddress));
  putWord(static_cast<uint64_t>(limits_.maxInlineDepth));
  putWord(static_cast<uint64_t>(limits_.maxForkDepth));
  putWord(reinterpret_cast<uint64_t>(injection_.onEntry));
  putWord(reinterpret_cast<uint64_t>(injection_.onExit));
  putWord(reinterpret_cast<uint64_t>(injection_.onLoad));
  putWord(reinterpret_cast<uint64_t>(injection_.onStore));
  return out;
}

}  // namespace brew
