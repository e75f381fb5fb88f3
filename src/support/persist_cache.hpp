// Persistent on-disk specialization cache whose code pages are shared
// between processes through the page cache (docs/CACHE.md "Persistence").
//
// A Store maps a cache directory to a set of immutable entry files, one per
// finalized specialization unit. Entries are keyed by everything their
// bytes depend on:
//
//   subdir            = hex(build-id hash of the main executable)
//   entry file name   = hex(fnv(exe build-id, module id, fn module-offset,
//                               configFp, argsHash))
//
// so a restarted process (same binary, any ASLR layout) recomputes the same
// name and warm-starts with zero trace phases, while a rebuilt binary or a
// different specialization silently misses. The name and header hold only
// hashes, so each entry also stores the exact key bytes it was built for
// (CacheKey::bytes, returned as LoadedEntry::keyBytes); SpecManager adopts
// an entry only when they equal the requesting key's bytes, which makes a
// hash collision a reject, never foreign code. Function addresses are
// stored module-relative; the handful of absolute addresses inside a unit
// (kept call / injected-handler movabs immediates and side-exit pool
// slots — see ir::CodeReloc) are kept as (module, offset) relocation
// records and re-based at load time.
//
// Crash safety: entries are written to an O_EXCL temp file and rename()d
// into place, so readers only ever see complete files; every entry carries
// a format version and two FNV-1a checksums (header; key bytes +
// relocation tables + payload) and any mismatch — truncation, bit flips,
// stale format, foreign build — is a graceful reject that falls back to a
// cold rewrite and bumps cache.persist_rejects. An append-only MANIFEST is
// maintained under flock() for diagnostics. Temp files orphaned by a
// killed writer are swept on open().
//
// Cross-process sharing: each entry's payload starts at a page-aligned
// file offset, so a probe maps the payload of a position-independent entry
// (no relocations) straight from the file, MAP_SHARED and
// read-only-executable; N processes that load one entry share one set of
// physical code pages through the page cache, with no server. Entries with
// relocations, and any refused mapping, are read into a private region.
// No BREW process truncates an entry in place (writers rename, rejecters
// unlink), so a live mapping never loses its backing bytes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "support/exec_memory.hpp"

namespace brew::persist {

// On-disk format version; bumped on any incompatible layout change.
// Entries with a different version are rejected (cold-rewrite fallback).
// 2: exact key bytes after the header; 3: payload at a page-aligned offset.
constexpr uint32_t kFormatVersion = 3;
constexpr uint64_t kEntryMagic = 0x3176'4350'5745'5242ULL;  // "BREWPCv1" LE

// One absolute-address site to re-base at load: the 8 bytes at `offset`
// become (current base of module `moduleIdx`) + `targetOffset`.
struct RawReloc {
  uint32_t offset = 0;
  uint64_t target = 0;  // absolute address at emit time
};

struct WriteRequest {
  const void* fn = nullptr;
  uint64_t configFp = 0;
  uint64_t argsHash = 0;
  std::span<const uint8_t> keyBytes;  // CacheKey::bytes, stored verbatim
  const uint8_t* bytes = nullptr;  // full unit: code + literal pool
  size_t size = 0;
  uint32_t codeBytes = 0;
  uint32_t poolBytes = 0;
  uint32_t instructions = 0;
  uint32_t blockUnits = 0;
  std::span<const RawReloc> relocs;
  // From ir::EmitStats: false when an absolute address was embedded in a
  // form the reloc records cannot express; such units are never written.
  bool portable = true;
};

struct LoadedEntry {
  ExecMemory memory;
  // The key bytes the entry was written with; the caller compares them
  // with its own key before using `memory`.
  std::vector<uint8_t> keyBytes;
  uint32_t codeBytes = 0;
  uint32_t poolBytes = 0;
  uint32_t instructions = 0;
  uint32_t blockUnits = 0;
  // True when `memory` maps the entry file itself (read-only, shared with
  // every process that maps the same entry); false for a private copy.
  bool shared = false;
};

struct ProbeResult {
  std::optional<LoadedEntry> entry;
  // True when an entry file existed but failed validation (corruption,
  // version/build mismatch, unresolvable module) — distinguishes a reject
  // from a plain miss for the cache counters.
  bool rejected = false;
};

// Identity hash of the main executable (GNU build-id note when present,
// path hash otherwise). Exposed for tests that forge foreign entries.
uint64_t selfBuildId();

class Store {
 public:
  // Opens (creating if needed) the cache directory and its per-build-id
  // subdirectory and sweeps temp files orphaned by killed writers.
  // Returns nullptr when the directory cannot be created or is not
  // writable.
  static std::unique_ptr<Store> open(const std::string& dir);

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  // Looks the key up on disk; on success the returned entry holds
  // finalized executable memory with every relocation applied: a shared
  // mapping of the file when the entry has no relocations, a private copy
  // otherwise. Bumps cache.persist_{hits,misses,rejects} and, for a
  // mapping, cache.persist_shared_maps.
  ProbeResult probe(const void* fn, uint64_t configFp, uint64_t argsHash);

  // Serializes one finalized unit (crash-safe: temp file + rename +
  // flock'd manifest append). Returns false — without touching the store —
  // when the unit is not persistable: unportable encodings, or a subject /
  // relocation target outside any loaded module. Bumps
  // cache.persist_writes on success.
  bool write(const WriteRequest& req);

  // The per-build-id subdirectory entries live in.
  const std::string& directory() const { return dir_; }

  // Absolute path the entry for this key lives at (whether or not it
  // exists). Exposed so the corruption tests can truncate / flip bits in a
  // targeted entry.
  std::string entryPathFor(const void* fn, uint64_t configFp,
                           uint64_t argsHash) const;

  // Manifest integrity scan: returns true when every line is well-formed,
  // and reports the number of entry lines seen.
  bool manifestIntact(size_t* lineCount = nullptr) const;

 private:
  explicit Store(std::string dir);

  std::string dir_;  // per-build-id subdirectory
};

}  // namespace brew::persist
