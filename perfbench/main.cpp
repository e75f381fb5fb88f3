// brewbench: one run of one workload of the BREW end-to-end benchmark.
//
//   brewbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--spans <file>]
//
// Prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics. perfbench/run.py builds this
// binary and calls it; see README.md.
#include <sched.h>

#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace {

int cpusAvailable() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? n : 1;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "brewbench: %s\nusage: brewbench --workload <kernel_loop|"
               "respecialize|width_shift|warm_restart> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir> [--spans <file>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(options.seconds > 0))
        usage("bad --seconds");
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
      if (!options.trace && std::strcmp(value, "0") != 0) usage("bad --trace");
    } else if (flag == "--workdir") {
      options.workDir = value;
    } else if (flag == "--spans") {
      options.spansPath = value;
    } else {
      usage("unknown flag");
    }
  }
  if (options.workDir.empty()) usage("--workdir is required");

  // Thread counts derive from the CPUs available: one closed-loop client,
  // and a SpecManager pool of at most two workers that leaves the client a
  // core of its own. Nothing forks.
  options.nproc = cpusAvailable();
  options.clientThreads = 1;
  options.workers = options.nproc >= 3 ? 2 : 1;
  // The client then stays on the CPU it started on. No workload issues
  // asynchronous work, so nothing is serialized; what pinning removes is
  // migrations and cross-CPU wake-ups (the persist page-server handoff),
  // which on a shared machine add more run-to-run noise than signal.
  const int cpu = ::sched_getcpu();
  if (cpu >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ::sched_setaffinity(0, sizeof one, &one);
  }

  void (*run)(const perfbench::RunOptions&, perfbench::Outcome&) = nullptr;
  if (options.workload == "kernel_loop") run = perfbench::runKernelLoop;
  if (options.workload == "respecialize") run = perfbench::runRespecialize;
  if (options.workload == "width_shift") run = perfbench::runWidthShift;
  if (options.workload == "warm_restart") run = perfbench::runWarmRestart;
  if (run == nullptr) usage("unknown workload");

  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d nproc=%d "
              "client_threads=%d spec_manager_workers=%d pinned_cpu=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.nproc, options.clientThreads,
              options.workers, cpu);
  perfbench::Outcome out;
  run(options, out);
  if (out.attempted() == 0) out.attempt(false);
  out.print();
  return 0;
}
