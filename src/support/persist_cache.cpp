#include "support/persist_cache.hpp"

#include <dirent.h>
#include <elf.h>
#include <fcntl.h>
#include <link.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <mutex>

#include "support/telemetry.hpp"

namespace brew::persist {

namespace {

using telemetry::counter;
using telemetry::CounterId;

// ---------------------------------------------------------------------------
// Hashing (FNV-1a 64): entry names, build ids, checksums.
// ---------------------------------------------------------------------------

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t fnvBytes(const void* data, size_t n, uint64_t h = kFnvOffset) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t fnvU64(uint64_t v, uint64_t h) { return fnvBytes(&v, 8, h); }

// ---------------------------------------------------------------------------
// Module identity. One pass over dl_iterate_phdr builds a table of
// [base, end) ranges with a stable per-module id: the GNU build-id note
// when present, a path hash otherwise. Function addresses and relocation
// targets are stored module-relative against these ids.
// ---------------------------------------------------------------------------

struct ModuleInfo {
  uint64_t base = 0;
  uint64_t end = 0;
  uint64_t id = 0;
};

uint64_t buildIdFromNotes(const dl_phdr_info* info) {
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[i];
    if (ph.p_type != PT_NOTE) continue;
    const auto* p = reinterpret_cast<const uint8_t*>(info->dlpi_addr +
                                                     ph.p_vaddr);
    const uint8_t* limit = p + ph.p_memsz;
    while (p + sizeof(ElfW(Nhdr)) <= limit) {
      const auto* nh = reinterpret_cast<const ElfW(Nhdr)*>(p);
      const size_t nameSz = (nh->n_namesz + 3) & ~size_t{3};
      const size_t descSz = (nh->n_descsz + 3) & ~size_t{3};
      const uint8_t* name = p + sizeof(ElfW(Nhdr));
      const uint8_t* desc = name + nameSz;
      if (desc + descSz > limit) break;
      if (nh->n_type == NT_GNU_BUILD_ID && nh->n_namesz == 4 &&
          std::memcmp(name, "GNU", 4) == 0)
        return fnvBytes(desc, nh->n_descsz);
      p = desc + descSz;
    }
  }
  return 0;
}

std::string selfExePath() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  return buf;
}

struct ModuleTable {
  std::mutex mu;
  std::vector<ModuleInfo> modules;
  uint64_t exeId = 0;
};

ModuleTable& moduleTable() noexcept {
  static auto* t = new ModuleTable();
  return *t;
}

int collectModule(dl_phdr_info* info, size_t, void* data) {
  auto* out = static_cast<std::vector<ModuleInfo>*>(data);
  uint64_t lo = UINT64_MAX, hi = 0;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[i];
    if (ph.p_type != PT_LOAD) continue;
    lo = std::min<uint64_t>(lo, info->dlpi_addr + ph.p_vaddr);
    hi = std::max<uint64_t>(hi, info->dlpi_addr + ph.p_vaddr + ph.p_memsz);
  }
  if (lo >= hi) return 0;
  uint64_t id = buildIdFromNotes(info);
  if (id == 0) {
    // No build-id note: fall back to the pathname (the main executable
    // reports an empty name; use its /proc link instead).
    const std::string path = (info->dlpi_name != nullptr &&
                              info->dlpi_name[0] != '\0')
                                 ? std::string(info->dlpi_name)
                                 : selfExePath();
    id = fnvBytes(path.data(), path.size());
  }
  out->push_back(ModuleInfo{lo, hi, id});
  return 0;
}

void refreshModulesLocked(ModuleTable& t) {
  t.modules.clear();
  dl_iterate_phdr(&collectModule, &t.modules);
  // glibc reports the main program first.
  if (!t.modules.empty()) t.exeId = t.modules.front().id;
}

// Returns the module containing `addr`, refreshing the table once on a miss
// (dlopen may have added modules since the last scan).
std::optional<ModuleInfo> moduleFor(uint64_t addr) {
  ModuleTable& t = moduleTable();
  std::lock_guard<std::mutex> lock(t.mu);
  for (int attempt = 0; attempt < 2; ++attempt) {
    for (const ModuleInfo& m : t.modules)
      if (addr >= m.base && addr < m.end) return m;
    refreshModulesLocked(t);
  }
  return std::nullopt;
}

std::optional<ModuleInfo> moduleById(uint64_t id) {
  ModuleTable& t = moduleTable();
  std::lock_guard<std::mutex> lock(t.mu);
  for (int attempt = 0; attempt < 2; ++attempt) {
    for (const ModuleInfo& m : t.modules)
      if (m.id == id) return m;
    refreshModulesLocked(t);
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// On-disk layout: EntryHeader | key bytes | DiskReloc[] | DiskModule[] |
// zero pad | payload. The payload starts at the first page boundary after
// the tables, so a reloc-free payload maps straight from the file.
// Everything little-endian.
// ---------------------------------------------------------------------------

struct EntryHeader {
  uint64_t magic = kEntryMagic;
  uint64_t exeBuildId = 0;
  uint64_t moduleId = 0;   // module containing the subject function
  uint64_t fnOffset = 0;   // subject function, module-relative
  uint64_t configFp = 0;
  uint64_t argsHash = 0;
  uint64_t payloadChecksum = 0;  // fnv over key + reloc + modules + payload
  uint64_t headerChecksum = 0;   // fnv over this header with the field zeroed
  uint32_t version = kFormatVersion;
  uint32_t flags = 0;
  uint32_t payloadBytes = 0;  // code + literal pool
  uint32_t codeBytes = 0;
  uint32_t poolBytes = 0;
  uint32_t instructions = 0;
  uint32_t blockUnits = 0;
  uint32_t relocCount = 0;
  uint32_t moduleCount = 0;
  uint32_t keyBytes = 0;  // exact CacheKey::bytes length
};
static_assert(sizeof(EntryHeader) == 104, "entry header layout drifted");

struct DiskReloc {
  uint32_t offset = 0;
  uint32_t moduleIdx = 0;
  uint64_t targetOffset = 0;
};
static_assert(sizeof(DiskReloc) == 16);

struct DiskModule {
  uint64_t moduleId = 0;
  uint64_t storedBase = 0;  // base at write time (diagnostics only)
};
static_assert(sizeof(DiskModule) == 16);

uint64_t headerChecksum(EntryHeader hdr) {
  hdr.headerChecksum = 0;
  return fnvBytes(&hdr, sizeof hdr);
}

uint64_t nameHashOf(uint64_t exeId, uint64_t moduleId, uint64_t fnOffset,
                    uint64_t configFp, uint64_t argsHash) {
  uint64_t h = kFnvOffset;
  h = fnvU64(exeId, h);
  h = fnvU64(moduleId, h);
  h = fnvU64(fnOffset, h);
  h = fnvU64(configFp, h);
  h = fnvU64(argsHash, h);
  return h;
}

std::string hex16(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string entryFileName(uint64_t nameHash) {
  return hex16(nameHash) + ".bce";
}

size_t pageRound(size_t n) {
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  return (n + page - 1) / page * page;
}

// Page-aligned file offset of the payload: the end of the header and
// tables, rounded up. Writer and reader both derive it from the header.
uint64_t payloadOffset(const EntryHeader& h) {
  return pageRound(sizeof(EntryHeader) + uint64_t{h.keyBytes} +
                   uint64_t{h.relocCount} * sizeof(DiskReloc) +
                   uint64_t{h.moduleCount} * sizeof(DiskModule));
}

// Header checks that need no other bytes: magic, version, section bounds,
// header checksum and the exact file size. The size check precedes any
// mmap, so a truncated entry is rejected and never faults a mapping.
bool headerValid(const EntryHeader& h, uint64_t fileSize) {
  return h.magic == kEntryMagic && h.version == kFormatVersion &&
         h.relocCount <= (1u << 20) && h.moduleCount <= (1u << 16) &&
         h.keyBytes <= (64u << 20) && h.payloadBytes != 0 &&
         h.payloadBytes <= (64u << 20) &&
         headerChecksum(h) == h.headerChecksum &&
         fileSize == payloadOffset(h) + h.payloadBytes;
}

bool preadAll(int fd, void* dst, size_t n, uint64_t off) {
  auto* p = static_cast<uint8_t*>(dst);
  while (n > 0) {
    const ssize_t r = ::pread(fd, p, n, static_cast<off_t>(off));
    if (r <= 0) return false;
    p += r;
    off += static_cast<uint64_t>(r);
    n -= static_cast<size_t>(r);
  }
  return true;
}

bool writeAll(int fd, const void* src, size_t n) {
  const auto* p = static_cast<const uint8_t*>(src);
  while (n > 0) {
    const ssize_t r = ::write(fd, p, n);
    if (r <= 0) return false;
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

// Temp-file prefix; embeds the writer pid so open() can sweep files
// orphaned by a kill-during-write.
constexpr char kTmpPrefix[] = ".tmp-";

}  // namespace

uint64_t selfBuildId() {
  ModuleTable& t = moduleTable();
  std::lock_guard<std::mutex> lock(t.mu);
  if (t.modules.empty()) refreshModulesLocked(t);
  return t.exeId;
}

Store::Store(std::string dir) : dir_(std::move(dir)) {}

std::unique_ptr<Store> Store::open(const std::string& dir) {
  if (dir.empty()) return nullptr;
  ::mkdir(dir.c_str(), 0777);  // EEXIST is fine
  const std::string sub = dir + "/" + hex16(selfBuildId());
  ::mkdir(sub.c_str(), 0777);
  if (::access(sub.c_str(), W_OK | X_OK) != 0) return nullptr;

  auto store = std::unique_ptr<Store>(new Store(sub));

  // Sweep temp files orphaned by killed writers (their pid is embedded in
  // the name and no longer exists).
  if (DIR* d = ::opendir(sub.c_str()); d != nullptr) {
    while (const dirent* ent = ::readdir(d)) {
      if (std::strncmp(ent->d_name, kTmpPrefix, sizeof kTmpPrefix - 1) != 0)
        continue;
      const long pid = std::strtol(ent->d_name + sizeof kTmpPrefix - 1,
                                   nullptr, 10);
      if (pid > 0 && ::kill(static_cast<pid_t>(pid), 0) != 0 &&
          errno == ESRCH)
        ::unlink((sub + "/" + ent->d_name).c_str());
    }
    ::closedir(d);
  }
  return store;
}

std::string Store::entryPathFor(const void* fn, uint64_t configFp,
                                uint64_t argsHash) const {
  const auto mod = moduleFor(reinterpret_cast<uint64_t>(fn));
  const uint64_t moduleId = mod ? mod->id : 0;
  const uint64_t fnOffset =
      mod ? reinterpret_cast<uint64_t>(fn) - mod->base : 0;
  return dir_ + "/" +
         entryFileName(nameHashOf(selfBuildId(), moduleId, fnOffset,
                                  configFp, argsHash));
}

ProbeResult Store::probe(const void* fn, uint64_t configFp,
                         uint64_t argsHash) {
  ProbeResult result;
  const auto mod = moduleFor(reinterpret_cast<uint64_t>(fn));
  if (!mod) {
    counter(CounterId::PersistMisses).add();
    return result;  // generated / anonymous code cannot be keyed
  }
  const uint64_t fnOffset = reinterpret_cast<uint64_t>(fn) - mod->base;
  const uint64_t nameHash =
      nameHashOf(selfBuildId(), mod->id, fnOffset, configFp, argsHash);
  const std::string path = dir_ + "/" + entryFileName(nameHash);

  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    counter(CounterId::PersistMisses).add();
    return result;
  }
  // Closed on every return; a mapping of the file keeps the inode alive.
  struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
  } closer{fd};

  auto reject = [&](bool unlinkFile) {
    if (unlinkFile) ::unlink(path.c_str());
    counter(CounterId::PersistRejects).add();
    counter(CounterId::PersistMisses).add();
    result.rejected = true;
    return std::move(result);  // lambda: captured lvalue needs the move
  };

  // A truncated, bit-flipped or stale file must look exactly like a miss
  // plus a reject counter, never a crash: remove it.
  struct stat st{};
  EntryHeader h;
  if (::fstat(fd, &st) != 0 ||
      static_cast<uint64_t>(st.st_size) < sizeof h ||
      !preadAll(fd, &h, sizeof h, 0) ||
      !headerValid(h, static_cast<uint64_t>(st.st_size)))
    return reject(/*unlinkFile=*/true);
  if (h.exeBuildId != selfBuildId() || h.moduleId != mod->id ||
      h.fnOffset != fnOffset || h.configFp != configFp ||
      h.argsHash != argsHash)
    return reject(/*unlinkFile=*/true);  // foreign build or hash collision

  LoadedEntry entry;
  entry.keyBytes.resize(h.keyBytes);
  std::vector<DiskReloc> relocs(h.relocCount);
  std::vector<DiskModule> modules(h.moduleCount);
  const uint64_t relocsAt = sizeof h + uint64_t{h.keyBytes};
  const uint64_t modulesAt = relocsAt + relocs.size() * sizeof(DiskReloc);
  if (!preadAll(fd, entry.keyBytes.data(), h.keyBytes, sizeof h) ||
      !preadAll(fd, relocs.data(), relocs.size() * sizeof(DiskReloc),
                relocsAt) ||
      !preadAll(fd, modules.data(), modules.size() * sizeof(DiskModule),
                modulesAt))
    return reject(/*unlinkFile=*/true);
  for (const DiskReloc& r : relocs)
    if (r.moduleIdx >= h.moduleCount ||
        uint64_t{r.offset} + 8 > h.payloadBytes)
      return reject(/*unlinkFile=*/true);

  // Reloc-free code is mapped from the file itself, so every process that
  // loads the entry shares its page-cache pages. Code with relocations,
  // or a refused mapping (a noexec cache directory), is read into a
  // private region, placed next to the function the entry stands in for.
  const auto payloadAt = static_cast<off_t>(payloadOffset(h));
  std::optional<ExecMemory> mem;
  if (relocs.empty())
    if (auto shared = ExecMemory::adoptShared(fd, payloadAt, h.payloadBytes,
                                              fn)) {
      mem = std::move(*shared);
      entry.shared = true;
    }
  if (!mem) {
    auto copy = ExecMemory::allocate(h.payloadBytes, fn);
    if (!copy || !preadAll(fd, copy->writeView(), h.payloadBytes,
                           static_cast<uint64_t>(payloadAt)))
      return reject(/*unlinkFile=*/false);
    mem = std::move(*copy);
  }
  // Checksum the bytes that will run, not a second copy of them.
  uint64_t sum = fnvBytes(entry.keyBytes.data(), entry.keyBytes.size());
  sum = fnvBytes(relocs.data(), relocs.size() * sizeof(DiskReloc), sum);
  sum = fnvBytes(modules.data(), modules.size() * sizeof(DiskModule), sum);
  sum = fnvBytes(mem->data(), h.payloadBytes, sum);
  if (sum != h.payloadChecksum) return reject(/*unlinkFile=*/true);

  // Resolve every referenced module to its current base. Failure here is
  // environmental (a library not loaded yet), so the file stays.
  std::vector<uint64_t> bases(modules.size(), 0);
  for (size_t i = 0; i < modules.size(); ++i) {
    const auto m = moduleById(modules[i].moduleId);
    if (!m) return reject(/*unlinkFile=*/false);
    bases[i] = m->base;
  }
  for (const DiskReloc& r : relocs) {
    const uint64_t target = bases[r.moduleIdx] + r.targetOffset;
    std::memcpy(mem->writeView() + r.offset, &target, 8);
  }
  if (!entry.shared && !mem->finalize()) return reject(/*unlinkFile=*/false);

  entry.memory = std::move(*mem);
  entry.codeBytes = h.codeBytes;
  entry.poolBytes = h.poolBytes;
  entry.instructions = h.instructions;
  entry.blockUnits = h.blockUnits;
  if (entry.shared) counter(CounterId::PersistSharedMaps).add();
  counter(CounterId::PersistHits).add();
  result.entry = std::move(entry);
  return result;
}

bool Store::write(const WriteRequest& req) {
  if (!req.portable || req.fn == nullptr || req.bytes == nullptr ||
      req.size == 0 || req.size > (64u << 20) ||
      req.keyBytes.size() > (64u << 20))
    return false;
  const auto mod = moduleFor(reinterpret_cast<uint64_t>(req.fn));
  if (!mod) return false;

  EntryHeader hdr;
  hdr.exeBuildId = selfBuildId();
  hdr.moduleId = mod->id;
  hdr.fnOffset = reinterpret_cast<uint64_t>(req.fn) - mod->base;
  hdr.configFp = req.configFp;
  hdr.argsHash = req.argsHash;
  hdr.payloadBytes = static_cast<uint32_t>(req.size);
  hdr.codeBytes = req.codeBytes;
  hdr.poolBytes = req.poolBytes;
  hdr.instructions = req.instructions;
  hdr.blockUnits = req.blockUnits;
  hdr.keyBytes = static_cast<uint32_t>(req.keyBytes.size());

  // Convert absolute relocation targets to (module, offset) pairs. A
  // target outside every loaded module (e.g. into generated code) makes
  // the unit unpersistable.
  std::vector<DiskReloc> relocs;
  std::vector<DiskModule> modules;
  relocs.reserve(req.relocs.size());
  for (const RawReloc& r : req.relocs) {
    if (uint64_t{r.offset} + 8 > req.size) return false;
    const auto tm = moduleFor(r.target);
    if (!tm) return false;
    uint32_t idx = UINT32_MAX;
    for (size_t i = 0; i < modules.size(); ++i)
      if (modules[i].moduleId == tm->id) idx = static_cast<uint32_t>(i);
    if (idx == UINT32_MAX) {
      idx = static_cast<uint32_t>(modules.size());
      modules.push_back(DiskModule{tm->id, tm->base});
    }
    relocs.push_back(DiskReloc{r.offset, idx, r.target - tm->base});
  }
  hdr.relocCount = static_cast<uint32_t>(relocs.size());
  hdr.moduleCount = static_cast<uint32_t>(modules.size());

  // Everything before the payload, zero pad included, in one buffer.
  std::vector<uint8_t> head(payloadOffset(hdr), 0);
  uint8_t* const tables = head.data() + sizeof hdr;
  uint8_t* at = tables;
  auto append = [&at](const void* src, size_t n) {
    if (n != 0) std::memcpy(at, src, n);
    at += n;
  };
  append(req.keyBytes.data(), req.keyBytes.size());
  append(relocs.data(), relocs.size() * sizeof(DiskReloc));
  append(modules.data(), modules.size() * sizeof(DiskModule));
  const uint64_t tableSum = fnvBytes(tables, static_cast<size_t>(at - tables));
  hdr.payloadChecksum = fnvBytes(req.bytes, req.size, tableSum);
  hdr.headerChecksum = headerChecksum(hdr);
  std::memcpy(head.data(), &hdr, sizeof hdr);

  const uint64_t nameHash = nameHashOf(hdr.exeBuildId, hdr.moduleId,
                                       hdr.fnOffset, hdr.configFp,
                                       hdr.argsHash);
  const std::string name = entryFileName(nameHash);

  // Crash-safe publication: exclusive temp file, full write, rename.
  static std::atomic<uint64_t> g_seq{0};
  char tmpName[96];
  std::snprintf(tmpName, sizeof tmpName, "%s%d-%" PRIu64 "-%s", kTmpPrefix,
                static_cast<int>(::getpid()),
                g_seq.fetch_add(1, std::memory_order_relaxed), name.c_str());
  const std::string tmpPath = dir_ + "/" + tmpName;
  const int fd = ::open(tmpPath.c_str(),
                        O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  const bool ok = writeAll(fd, head.data(), head.size()) &&
                  writeAll(fd, req.bytes, req.size);
  ::close(fd);
  if (!ok || ::rename(tmpPath.c_str(), (dir_ + "/" + name).c_str()) != 0) {
    ::unlink(tmpPath.c_str());
    return false;
  }

  // Manifest: one line per published entry, appended under an exclusive
  // flock. A single write() keeps lines untorn even across writers racing
  // on the O_APPEND offset.
  const int mfd = ::open((dir_ + "/MANIFEST").c_str(),
                         O_CREAT | O_WRONLY | O_APPEND | O_CLOEXEC, 0644);
  if (mfd >= 0) {
    char line[128];
    const int n = std::snprintf(line, sizeof line,
                                "1 %s %u %" PRIx64 "\n", name.c_str(),
                                hdr.payloadBytes, hdr.fnOffset);
    if (::flock(mfd, LOCK_EX) == 0) {
      (void)writeAll(mfd, line, static_cast<size_t>(n));
      ::flock(mfd, LOCK_UN);
    }
    ::close(mfd);
  }

  counter(CounterId::PersistWrites).add();
  return true;
}

bool Store::manifestIntact(size_t* lineCount) const {
  if (lineCount != nullptr) *lineCount = 0;
  const int fd = ::open((dir_ + "/MANIFEST").c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return true;  // absent is intact (no entries published)
  ::flock(fd, LOCK_SH);
  std::string content;
  char buf[4096];
  for (ssize_t r; (r = ::read(fd, buf, sizeof buf)) > 0;)
    content.append(buf, static_cast<size_t>(r));
  ::flock(fd, LOCK_UN);
  ::close(fd);

  size_t lines = 0;
  bool intact = true;
  size_t pos = 0;
  while (pos < content.size()) {
    const size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) {
      intact = false;  // torn trailing line
      break;
    }
    const std::string line = content.substr(pos, eol - pos);
    unsigned bytes = 0;
    uint64_t off = 0;
    char nameBuf[64];
    if (std::sscanf(line.c_str(), "1 %63s %u %" SCNx64, nameBuf, &bytes,
                    &off) == 3 &&
        std::strlen(nameBuf) == 20)  // 16 hex chars + ".bce"
      ++lines;
    else
      intact = false;
    pos = eol + 1;
  }
  if (lineCount != nullptr) *lineCount = lines;
  return intact;
}

}  // namespace brew::persist
