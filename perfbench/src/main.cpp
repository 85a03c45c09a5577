// perfbench — runs one workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--inject <fault>] [--out-dir <dir>]
//
// Prints a provenance line and, as the last line, a JSON object {correct,
// attempted, failed, metrics} holding every measurement. Exits 3
// without running when the workload needs more threads than the CPUs this
// process may use, 2 on a usage or internal error.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "harness.hpp"

namespace {

using namespace perfbench;

// Thread counts include the calling thread: a service or producer thread
// plus two pipeline consumers; one thread; two shard workers plus the
// coordinating thread.
constexpr Workload kWorkloads[] = {
    {"signed-settle", 3, run_signed_settle},
    {"plain-settle", 3, run_plain_settle},
    {"receipt-log", 1, run_receipt_log},
    {"fleet-sim", 3, run_fleet_sim},
};

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload "
               "<signed-settle|plain-settle|receipt-log|fleet-sim> --seed <n> "
               "--seconds <s> --trace <0|1> [--inject <fault>] "
               "[--out-dir <dir>]\n";
  return 2;
}

/// CPUs in this process's affinity mask, and the mask as a list.
unsigned affinity(std::string* mask) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    mask->assign(1, '?');
    return std::thread::hardware_concurrency();
  }
  unsigned n = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    if (n++ > 0) *mask += ',';
    *mask += std::to_string(cpu);
  }
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") {
        opt.workload = value;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        opt.trace = value == "1";
      } else if (key == "--inject") {
        opt.inject = value;
      } else if (key == "--out-dir") {
        opt.out_dir = value;
      } else {
        return usage(("unknown option " + key).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("bad option value");
  }
  if (argc % 2 == 0) return usage("every option takes a value");
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return usage("unknown workload");

  std::string mask;
  const unsigned nproc = affinity(&mask);
  std::printf(
      "provenance {\"workload\": \"%s\", \"threads\": %u, \"nproc\": %u, "
      "\"affinity\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"tlc_trace\": %d, \"seed\": %llu, \"seconds\": %g, \"trace\": %d}\n",
      workload->name, workload->threads, nproc, mask.c_str(),
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, PERFBENCH_TLC_TRACE,
      static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? 1 : 0);
  std::fflush(stdout);
  if (workload->threads > nproc) {
    std::cerr << "perfbench: workload " << workload->name << " runs "
              << workload->threads << " threads but only " << nproc
              << " CPUs are available; refusing to run oversubscribed\n";
    return 3;
  }

  Result result;
  try {
    workload->run(opt, result);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload->name << " aborted: " << e.what()
              << '\n';
    return 2;
  }
  std::cout << result.to_json() << std::endl;
  return 0;
}
