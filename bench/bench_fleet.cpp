// Fleet scale-out throughput — events/sec and multi-core speedup vs shard
// count for the sharded SoA testbed.
//
// Runs one fixed-seed fleet scenario (default 1M devices) once per
// requested shard count, verifies every run's fingerprint is
// byte-identical to the 1-shard reference (the determinism guarantee the
// sharded runner is built on), and reports devices simulated, events/sec,
// and the speedup of each shard count over 1 shard — to stdout and to
// BENCH_fleet.json in the working directory, stamped with the host's cpus
// and the build's compiler, build type and git sha. Exits non-zero on any
// fingerprint mismatch.
//
// Knobs: --devices N, --cycles N, --devices-per-cell N, --seed N,
// --shards A,B,C (default 1,2,4,8; each entry a decimal in 1..INT_MAX, or
// 0 for the TLC_SHARDS environment variable, else hardware concurrency).
// Exits 2 naming the entry when a --shards entry is anything else.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "exp/fleet.hpp"
#include "exp/sweep.hpp"
#include "provenance.hpp"

using namespace tlc;
using namespace tlc::exp;

namespace {

struct Options {
  std::size_t devices = 1'000'000;
  std::uint32_t devices_per_cell = 200;
  std::uint32_t cycles = 2;
  std::uint64_t seed = 42;
  std::vector<std::uint32_t> shard_counts{1, 2, 4, 8};
};

std::vector<std::uint32_t> parse_shard_list(std::string_view text) {
  std::vector<std::uint32_t> out;
  for (;;) {
    const std::size_t comma = text.find(',');
    const std::string_view token = text.substr(0, comma);
    if (token == "0") {
      out.push_back(resolve_shards(0));
    } else if (const int v = parse_workers(token); v > 0) {
      out.push_back(static_cast<std::uint32_t>(v));
    } else {
      std::fprintf(stderr, "bench_fleet: bad --shards entry \"%.*s\"\n",
                   static_cast<int>(token.size()), token.data());
      std::exit(2);
    }
    if (comma == std::string_view::npos) return out;
    text.remove_prefix(comma + 1);
  }
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const auto want = [&](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      if (std::strncmp(argv[i], flag, n) != 0) return nullptr;
      if (argv[i][n] == '=') return argv[i] + n + 1;
      if (argv[i][n] == '\0' && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    if (const char* v = want("--devices")) {
      opt.devices = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (const char* v2 = want("--devices-per-cell")) {
      opt.devices_per_cell =
          static_cast<std::uint32_t>(std::strtoul(v2, nullptr, 10));
    } else if (const char* v3 = want("--cycles")) {
      opt.cycles = static_cast<std::uint32_t>(std::strtoul(v3, nullptr, 10));
    } else if (const char* v4 = want("--seed")) {
      opt.seed = std::strtoull(v4, nullptr, 10);
    } else if (const char* v5 = want("--shards")) {
      opt.shard_counts = parse_shard_list(v5);
    }
  }
  return opt;
}

struct Timing {
  std::uint32_t shards = 0;
  double seconds = 0.0;
  std::uint64_t events = 0;
  std::string fingerprint;
};

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const unsigned cpus = std::thread::hardware_concurrency();

  FleetConfig cfg;
  cfg.devices = opt.devices;
  cfg.devices_per_cell = opt.devices_per_cell;
  cfg.cycles = opt.cycles;
  cfg.seed = opt.seed;

  std::printf("## Fleet scale-out: %zu devices, %u cycles, %u cpus\n\n",
              opt.devices, opt.cycles, cpus);

  std::vector<Timing> rows;
  bool identical = true;
  for (const std::uint32_t shards : opt.shard_counts) {
    cfg.shards = shards;
    const auto start = std::chrono::steady_clock::now();
    const FleetResult result = run_fleet(cfg);
    const auto stop = std::chrono::steady_clock::now();
    Timing t;
    t.shards = result.shards;
    t.seconds = std::chrono::duration<double>(stop - start).count();
    t.events = result.events;
    t.fingerprint = fleet_fingerprint(result);
    if (!rows.empty() && t.fingerprint != rows.front().fingerprint) {
      identical = false;
    }
    std::printf("shards %2u: %7.2f s  %11.0f events/s  gap %.2f%%  %s\n",
                t.shards, t.seconds,
                static_cast<double>(t.events) / t.seconds,
                100.0 * static_cast<double>(result.gap_dl) /
                    static_cast<double>(result.charged_dl),
                rows.empty() || t.fingerprint == rows.front().fingerprint
                    ? "identical"
                    : "MISMATCH");
    rows.push_back(std::move(t));
  }

  const Timing& base = rows.front();
  double best_speedup = 0.0;
  for (const Timing& t : rows) {
    const double speedup = t.seconds > 0 ? base.seconds / t.seconds : 0.0;
    if (speedup > best_speedup) best_speedup = speedup;
  }
  std::printf("\nresults byte-identical across shard counts: %s\n",
              identical ? "yes" : "NO — DETERMINISM VIOLATION");

  std::FILE* out = std::fopen("BENCH_fleet.json", "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "{\n"
                 "  \"devices\": %zu,\n"
                 "  \"cycles\": %u,\n",
                 opt.devices, opt.cycles);
    bench::write_provenance_json(out, cpus);
    std::fprintf(out, "  \"events_per_run\": %llu,\n",
                 static_cast<unsigned long long>(base.events));
    for (const Timing& t : rows) {
      std::fprintf(out,
                   "  \"shard%u_seconds\": %.6f,\n"
                   "  \"shard%u_events_per_sec\": %.1f,\n"
                   "  \"speedup_%ushard\": %.4f,\n",
                   t.shards, t.seconds, t.shards,
                   static_cast<double>(t.events) / t.seconds, t.shards,
                   t.seconds > 0 ? base.seconds / t.seconds : 0.0);
    }
    std::fprintf(out,
                 "  \"best_speedup\": %.4f,\n"
                 "  \"identical\": %s\n"
                 "}\n",
                 best_speedup, identical ? "true" : "false");
    std::fclose(out);
    std::printf("wrote BENCH_fleet.json\n");
  } else {
    std::perror("BENCH_fleet.json");
  }
  return identical ? 0 : 1;
}
