// Sweep-engine throughput — serial vs parallel scenario fan-out.
//
// Runs the Fig. 12 condition grid (WebCam UDP) twice: once with jobs = 1
// (the serial baseline) and once with the resolved job count (--jobs /
// TLC_JOBS / hardware_concurrency). Verifies the two runs are
// byte-identical via results_fingerprint, then reports scenarios/sec,
// events/sec (summed sim.sched.dispatched counters), and the speedup,
// both to stdout and to BENCH_sweep.json in the working directory. The
// JSON is stamped with the host and build it came from (CPU count,
// compiler, build type, git revision), so tools/check_bench_regression.sh
// compares it only against a baseline taken on as many CPUs.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "exp/sweep.hpp"
#include "provenance.hpp"

using namespace tlc;
using namespace tlc::exp;

namespace {

struct Timing {
  double seconds = 0.0;
  std::uint64_t events = 0;
  std::string fingerprint;
};

Timing timed_run(const std::vector<ScenarioConfig>& configs, int jobs) {
  const auto start = std::chrono::steady_clock::now();
  const std::vector<ScenarioResult> results =
      run_scenarios(configs, SweepOptions{jobs});
  const auto stop = std::chrono::steady_clock::now();
  Timing t;
  t.seconds = std::chrono::duration<double>(stop - start).count();
  for (const ScenarioResult& r : results) {
    t.events += r.metrics.counter_or_zero("sim.sched.dispatched");
  }
  t.fingerprint = results_fingerprint(results);
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const SweepOptions sweep = sweep_options_from_cli(argc, argv);
  const int jobs = resolve_jobs(sweep.jobs);
  const std::vector<ScenarioConfig> configs =
      grid_configs(AppKind::kWebcamUdp, {});

  std::printf("## Sweep throughput: %zu scenarios, serial vs %d jobs\n\n",
              configs.size(), jobs);

  const Timing serial = timed_run(configs, 1);
  const Timing parallel = timed_run(configs, jobs);
  const bool identical = serial.fingerprint == parallel.fingerprint;
  const double speedup =
      parallel.seconds > 0 ? serial.seconds / parallel.seconds : 0.0;

  std::printf("serial   (1 job):  %7.2f s  %8.2f scenarios/s  %11.0f "
              "events/s\n",
              serial.seconds, configs.size() / serial.seconds,
              static_cast<double>(serial.events) / serial.seconds);
  std::printf("parallel (%d jobs): %7.2f s  %8.2f scenarios/s  %11.0f "
              "events/s\n",
              jobs, parallel.seconds, configs.size() / parallel.seconds,
              static_cast<double>(parallel.events) / parallel.seconds);
  std::printf("speedup: %.2fx   results byte-identical: %s\n", speedup,
              identical ? "yes" : "NO — DETERMINISM VIOLATION");

  std::FILE* out = std::fopen("BENCH_sweep.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n");
    bench::write_provenance_json(out, std::thread::hardware_concurrency());
    std::fprintf(out,
                 "  \"scenarios\": %zu,\n"
                 "  \"jobs\": %d,\n"
                 "  \"serial_seconds\": %.6f,\n"
                 "  \"parallel_seconds\": %.6f,\n"
                 "  \"serial_scenarios_per_sec\": %.4f,\n"
                 "  \"parallel_scenarios_per_sec\": %.4f,\n"
                 "  \"serial_events_per_sec\": %.1f,\n"
                 "  \"parallel_events_per_sec\": %.1f,\n"
                 "  \"events_per_run\": %llu,\n"
                 "  \"speedup\": %.4f,\n"
                 "  \"identical\": %s\n"
                 "}\n",
                 configs.size(), jobs,
                 serial.seconds, parallel.seconds,
                 configs.size() / serial.seconds,
                 configs.size() / parallel.seconds,
                 static_cast<double>(serial.events) / serial.seconds,
                 static_cast<double>(parallel.events) / parallel.seconds,
                 static_cast<unsigned long long>(serial.events), speedup,
                 identical ? "true" : "false");
    std::fclose(out);
    std::printf("wrote BENCH_sweep.json\n");
  } else {
    std::perror("BENCH_sweep.json");
  }
  return identical ? 0 : 1;
}
