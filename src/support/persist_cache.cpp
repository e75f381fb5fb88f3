#include "support/persist_cache.hpp"

#include <dirent.h>
#include <elf.h>
#include <fcntl.h>
#include <link.h>
#include <poll.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

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
// On-disk layout: EntryHeader | key bytes | payload | DiskReloc[] |
// DiskModule[]. Everything little-endian.
// ---------------------------------------------------------------------------

struct EntryHeader {
  uint64_t magic = kEntryMagic;
  uint64_t exeBuildId = 0;
  uint64_t moduleId = 0;   // module containing the subject function
  uint64_t fnOffset = 0;   // subject function, module-relative
  uint64_t configFp = 0;
  uint64_t argsHash = 0;
  uint64_t payloadChecksum = 0;  // fnv over key + payload + reloc + modules
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

bool readAll(int fd, void* dst, size_t n) {
  auto* p = static_cast<uint8_t*>(dst);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r <= 0) return false;
    p += r;
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

struct ParsedEntry {
  EntryHeader hdr;
  std::vector<uint8_t> key;
  std::vector<uint8_t> payload;
  std::vector<DiskReloc> relocs;
  std::vector<DiskModule> modules;
};

// Reads and fully validates one entry file: size, magic, version, both
// checksums, section-count consistency. nullopt on ANY deviation — a
// truncated, bit-flipped or stale file must look exactly like a miss plus
// a reject counter, never a crash.
std::optional<ParsedEntry> readEntry(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  ParsedEntry e;
  struct stat st{};
  if (::fstat(fd, &st) != 0 || static_cast<size_t>(st.st_size) <
                                   sizeof(EntryHeader)) {
    ::close(fd);
    return std::nullopt;
  }
  if (!readAll(fd, &e.hdr, sizeof e.hdr)) {
    ::close(fd);
    return std::nullopt;
  }
  const EntryHeader& h = e.hdr;
  // Bound the section sizes before trusting any of them.
  const uint64_t want = sizeof(EntryHeader) + uint64_t{h.keyBytes} +
                        uint64_t{h.payloadBytes} +
                        uint64_t{h.relocCount} * sizeof(DiskReloc) +
                        uint64_t{h.moduleCount} * sizeof(DiskModule);
  if (h.magic != kEntryMagic || h.version != kFormatVersion ||
      h.relocCount > (1u << 20) || h.moduleCount > (1u << 16) ||
      h.keyBytes > (64u << 20) ||
      h.payloadBytes == 0 || h.payloadBytes > (64u << 20) ||
      static_cast<uint64_t>(st.st_size) != want ||
      headerChecksum(h) != h.headerChecksum) {
    ::close(fd);
    return std::nullopt;
  }
  e.key.resize(h.keyBytes);
  e.payload.resize(h.payloadBytes);
  e.relocs.resize(h.relocCount);
  e.modules.resize(h.moduleCount);
  if (!readAll(fd, e.key.data(), e.key.size()) ||
      !readAll(fd, e.payload.data(), e.payload.size()) ||
      (!e.relocs.empty() &&
       !readAll(fd, e.relocs.data(), e.relocs.size() * sizeof(DiskReloc))) ||
      (!e.modules.empty() &&
       !readAll(fd, e.modules.data(),
                e.modules.size() * sizeof(DiskModule)))) {
    ::close(fd);
    return std::nullopt;
  }
  ::close(fd);
  uint64_t sum = fnvBytes(e.key.data(), e.key.size());
  sum = fnvBytes(e.payload.data(), e.payload.size(), sum);
  sum = fnvBytes(e.relocs.data(), e.relocs.size() * sizeof(DiskReloc), sum);
  sum = fnvBytes(e.modules.data(), e.modules.size() * sizeof(DiskModule),
                 sum);
  if (sum != h.payloadChecksum) return std::nullopt;
  for (const DiskReloc& r : e.relocs)
    if (r.moduleIdx >= h.moduleCount ||
        uint64_t{r.offset} + 8 > h.payloadBytes)
      return std::nullopt;
  return e;
}

// recvmsg/sendmsg of one uint64 with an optional SCM_RIGHTS fd.
bool sendFdMsg(int sock, uint64_t size, int fd) {
  msghdr msg{};
  iovec iov{&size, sizeof size};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  alignas(cmsghdr) char ctrl[CMSG_SPACE(sizeof(int))];
  if (fd >= 0) {
    std::memset(ctrl, 0, sizeof ctrl);
    msg.msg_control = ctrl;
    msg.msg_controllen = sizeof ctrl;
    cmsghdr* cm = CMSG_FIRSTHDR(&msg);
    cm->cmsg_level = SOL_SOCKET;
    cm->cmsg_type = SCM_RIGHTS;
    cm->cmsg_len = CMSG_LEN(sizeof(int));
    std::memcpy(CMSG_DATA(cm), &fd, sizeof fd);
  }
  return ::sendmsg(sock, &msg, MSG_NOSIGNAL) == sizeof size;
}

int recvFdMsg(int sock, uint64_t* size) {
  msghdr msg{};
  iovec iov{size, sizeof *size};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  alignas(cmsghdr) char ctrl[CMSG_SPACE(sizeof(int))];
  msg.msg_control = ctrl;
  msg.msg_controllen = sizeof ctrl;
  if (::recvmsg(sock, &msg, 0) != sizeof *size) return -1;
  for (cmsghdr* cm = CMSG_FIRSTHDR(&msg); cm != nullptr;
       cm = CMSG_NXTHDR(&msg, cm)) {
    if (cm->cmsg_level == SOL_SOCKET && cm->cmsg_type == SCM_RIGHTS &&
        cm->cmsg_len == CMSG_LEN(sizeof(int))) {
      int fd = -1;
      std::memcpy(&fd, CMSG_DATA(cm), sizeof fd);
      return fd;
    }
  }
  return -1;
}

void setSocketTimeouts(int fd) {
  timeval tv{0, 250 * 1000};  // 250ms: a stuck peer must not stall rewrites
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
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

  store->socketPath_ = sub + "/pages.sock";
  store->tryBindPageServer();
  return store;
}

Store::~Store() {
  if (listenFd_ >= 0) {
    // Wake the server thread, join it, then retire the socket.
    char b = 0;
    [[maybe_unused]] ssize_t r = ::write(stopPipe_[1], &b, 1);
    if (server_.joinable()) server_.join();
    ::close(listenFd_);
    ::unlink(socketPath_.c_str());
  }
  for (int i = 0; i < 2; ++i)
    if (stopPipe_[i] >= 0) ::close(stopPipe_[i]);
  std::lock_guard<std::mutex> lock(fdMu_);
  for (auto& [hash, fd] : sealedFds_) ::close(fd);
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

  if (::access(path.c_str(), R_OK) != 0) {
    counter(CounterId::PersistMisses).add();
    return result;
  }

  auto reject = [&](bool unlinkFile) {
    if (unlinkFile) ::unlink(path.c_str());
    counter(CounterId::PersistRejects).add();
    counter(CounterId::PersistMisses).add();
    result.rejected = true;
    return std::move(result);  // lambda: captured lvalue needs the move
  };

  auto parsed = readEntry(path);
  if (!parsed) return reject(/*unlinkFile=*/true);  // corrupt: remove it
  const EntryHeader& h = parsed->hdr;
  if (h.exeBuildId != selfBuildId() || h.moduleId != mod->id ||
      h.fnOffset != fnOffset || h.configFp != configFp ||
      h.argsHash != argsHash)
    return reject(/*unlinkFile=*/true);  // foreign build or hash collision

  // Resolve every referenced module to its current base. Failure here is
  // environmental (a library not loaded yet), so the file stays.
  std::vector<uint64_t> bases(parsed->modules.size(), 0);
  for (size_t i = 0; i < parsed->modules.size(); ++i) {
    const auto m = moduleById(parsed->modules[i].moduleId);
    if (!m) return reject(/*unlinkFile=*/false);
    bases[i] = m->base;
  }

  LoadedEntry entry;
  entry.keyBytes = std::move(parsed->key);
  entry.codeBytes = h.codeBytes;
  entry.poolBytes = h.poolBytes;
  entry.instructions = h.instructions;
  entry.blockUnits = h.blockUnits;
  entry.relocCount = h.relocCount;

  // Position-independent entries (no relocations) can share physical RX
  // pages with the process serving this directory.
  if (h.relocCount == 0 && listenFd_ < 0) {
    size_t mappedSize = 0;
    if (auto shared = fetchShared(nameHash, fn, &mappedSize);
        shared && shared->size() >= h.payloadBytes) {
      // Trust but verify: shared bytes must equal the validated file's.
      if (std::memcmp(shared->data(), parsed->payload.data(),
                      h.payloadBytes) == 0) {
        entry.memory = std::move(*shared);
        entry.shared = true;
        counter(CounterId::PersistSharedMaps).add();
        counter(CounterId::PersistHits).add();
        result.entry = std::move(entry);
        return result;
      }
    }
  }

  // Placed next to the function the entry stands in for (not the module
  // base, which is 0 for a non-PIE executable).
  auto mem = ExecMemory::allocate(h.payloadBytes, fn);
  if (!mem) return reject(/*unlinkFile=*/false);
  std::memcpy(mem->writeView(), parsed->payload.data(), h.payloadBytes);
  for (size_t i = 0; i < parsed->relocs.size(); ++i) {
    const DiskReloc& r = parsed->relocs[i];
    const uint64_t target = bases[r.moduleIdx] + r.targetOffset;
    std::memcpy(mem->writeView() + r.offset, &target, 8);
  }
  if (Status s = mem->finalize(); !s) return reject(/*unlinkFile=*/false);
  entry.memory = std::move(*mem);
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

  uint64_t sum = fnvBytes(req.keyBytes.data(), req.keyBytes.size());
  sum = fnvBytes(req.bytes, req.size, sum);
  sum = fnvBytes(relocs.data(), relocs.size() * sizeof(DiskReloc), sum);
  sum = fnvBytes(modules.data(), modules.size() * sizeof(DiskModule), sum);
  hdr.payloadChecksum = sum;
  hdr.headerChecksum = headerChecksum(hdr);

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
  const bool ok =
      writeAll(fd, &hdr, sizeof hdr) &&
      writeAll(fd, req.keyBytes.data(), req.keyBytes.size()) &&
      writeAll(fd, req.bytes, req.size) &&
      (relocs.empty() ||
       writeAll(fd, relocs.data(), relocs.size() * sizeof(DiskReloc))) &&
      (modules.empty() ||
       writeAll(fd, modules.data(), modules.size() * sizeof(DiskModule)));
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

// ---------------------------------------------------------------------------
// Page server: sealed-memfd handover between sibling processes.
// ---------------------------------------------------------------------------

bool Store::tryBindPageServer() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socketPath_.size() >= sizeof addr.sun_path) return false;
  std::memcpy(addr.sun_path, socketPath_.c_str(), socketPath_.size() + 1);

  for (int attempt = 0; attempt < 2; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return false;
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
      if (::listen(fd, 64) != 0 || ::pipe2(stopPipe_, O_CLOEXEC) != 0) {
        ::close(fd);
        ::unlink(socketPath_.c_str());
        return false;
      }
      listenFd_ = fd;
      server_ = std::thread([this] { serveLoop(); });
      return true;
    }
    ::close(fd);
    if (errno != EADDRINUSE) return false;
    // Socket file exists: live server, or a stale leftover from a dead
    // one. Probe with a connect; only a refused connection may be swept.
    const int probeFd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (probeFd < 0) return false;
    const bool alive = ::connect(probeFd, reinterpret_cast<sockaddr*>(&addr),
                                 sizeof addr) == 0;
    ::close(probeFd);
    if (alive) return false;  // a sibling serves this directory
    ::unlink(socketPath_.c_str());
  }
  return false;
}

void Store::serveLoop() {
  for (;;) {
    pollfd fds[2] = {{listenFd_, POLLIN, 0}, {stopPipe_[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[1].revents & POLLIN) != 0) return;  // destructor says stop
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int conn = ::accept(listenFd_, nullptr, nullptr);
    if (conn < 0) continue;
    setSocketTimeouts(conn);
    uint64_t nameHash = 0;
    if (readAll(conn, &nameHash, sizeof nameHash)) {
      uint64_t size = 0;
      const int fd = sealedFdFor(nameHash, &size);
      sendFdMsg(conn, fd >= 0 ? size : 0, fd);
    }
    ::close(conn);
  }
}

// Returns (cached) a sealed memfd holding the validated payload of the
// named entry, or -1. The fd stays owned by the store; SCM_RIGHTS
// duplicates it into the requesting process.
int Store::sealedFdFor(uint64_t nameHash, uint64_t* sizeOut) {
  std::lock_guard<std::mutex> lock(fdMu_);
  for (const auto& [hash, fd] : sealedFds_) {
    if (hash != nameHash) continue;
    struct stat st{};
    if (::fstat(fd, &st) == 0) {
      *sizeOut = static_cast<uint64_t>(st.st_size);
      return fd;
    }
  }
  const auto parsed = readEntry(dir_ + "/" + entryFileName(nameHash));
  if (!parsed || parsed->hdr.relocCount != 0) return -1;
#ifdef MFD_ALLOW_SEALING
  const int fd = ::memfd_create("brew-persist", MFD_CLOEXEC |
                                                    MFD_ALLOW_SEALING);
  if (fd < 0) return -1;
  const size_t mapped = pageRound(parsed->payload.size());
  if (::ftruncate(fd, static_cast<off_t>(mapped)) != 0 ||
      !writeAll(fd, parsed->payload.data(), parsed->payload.size()) ||
      ::fcntl(fd, F_ADD_SEALS,
              F_SEAL_SHRINK | F_SEAL_GROW | F_SEAL_WRITE | F_SEAL_SEAL) !=
          0) {
    ::close(fd);
    return -1;
  }
  sealedFds_.emplace_back(nameHash, fd);
  *sizeOut = mapped;
  return fd;
#else
  return -1;
#endif
}

std::optional<ExecMemory> Store::fetchShared(uint64_t nameHash,
                                             const void* near,
                                             size_t* sizeOut) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socketPath_.size() >= sizeof addr.sun_path) return std::nullopt;
  std::memcpy(addr.sun_path, socketPath_.c_str(), socketPath_.size() + 1);
  const int sock = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (sock < 0) return std::nullopt;
  setSocketTimeouts(sock);
  if (::connect(sock, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0 ||
      // MSG_NOSIGNAL: a server that exits mid-handshake must fail the
      // fetch, not kill this process with SIGPIPE.
      ::send(sock, &nameHash, sizeof nameHash, MSG_NOSIGNAL) !=
          static_cast<ssize_t>(sizeof nameHash)) {
    ::close(sock);
    return std::nullopt;
  }
  uint64_t size = 0;
  const int fd = recvFdMsg(sock, &size);
  ::close(sock);
  if (fd < 0 || size == 0) {
    if (fd >= 0) ::close(fd);
    return std::nullopt;
  }
  auto mem = ExecMemory::adoptShared(fd, static_cast<size_t>(size), near);
  ::close(fd);  // the mapping pins the pages
  if (!mem) return std::nullopt;
  *sizeOut = static_cast<size_t>(size);
  return std::move(*mem);
}

}  // namespace brew::persist
