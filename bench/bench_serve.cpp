// Serving-mode interval-throughput harness — the CI gate on the online
// pipeline.
//
// Two sections, each swept over a list of thread counts:
//
//   1. queue: raw push+pop pair throughput of the serving layer's
//      BoundedQueue (one mutex, two condition variables), measured as
//      warmup + N sampled intervals (ops/sec per interval, mean/min/max
//      reported);
//   2. pipeline: end-to-end submit→settle throughput of ServePipeline
//      with T producers and 2 consumers; every 97th record is tampered
//      (bill off by one) to exercise the reject path.
//
// Hard invariant gates (exit non-zero, this is NOT advisory):
//   * the queue drains empty after its measurement;
//   * pipeline conservation: ingested == settled + rejected;
//   * rejected == exactly the number of tampered records submitted.
//
// Soft throughput keys land in BENCH_serve.json for
// tools/check_bench_regression.sh, stamped with the host and build they
// came from: CPU count, compiler, build type, git revision (as of CMake
// configure) and whether workers were pinned.
//
// Knobs: --threads A,B,C (default 1,2,4), --warmup-ms N, --interval-ms N,
// --intervals N, --consumers N, --capacity N, --pin.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "provenance.hpp"
#include "serve/harness.hpp"
#include "serve/pipeline.hpp"
#include "serve/queue.hpp"

using namespace tlc;
using namespace tlc::serve;

namespace {

struct Options {
  std::vector<std::size_t> threads{1, 2, 4};
  Duration warmup = std::chrono::milliseconds{100};
  Duration interval = std::chrono::milliseconds{200};
  std::size_t intervals = 3;
  std::size_t consumers = 2;
  std::size_t capacity = 4096;
  bool pin = false;
};

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
    if (const char* v = want("--threads")) {
      opt.threads.clear();
      for (const char* p = v; *p != '\0';) {
        char* end = nullptr;
        const long t = std::strtol(p, &end, 10);
        if (end == p) break;
        if (t > 0) opt.threads.push_back(static_cast<std::size_t>(t));
        p = (*end == ',') ? end + 1 : end;
      }
      if (opt.threads.empty()) opt.threads = {1, 2, 4};
    } else if (const char* v2 = want("--warmup-ms")) {
      opt.warmup = std::chrono::milliseconds{std::strtol(v2, nullptr, 10)};
    } else if (const char* v3 = want("--interval-ms")) {
      opt.interval = std::chrono::milliseconds{std::strtol(v3, nullptr, 10)};
    } else if (const char* v4 = want("--intervals")) {
      opt.intervals =
          static_cast<std::size_t>(std::strtoull(v4, nullptr, 10));
    } else if (const char* v5 = want("--consumers")) {
      opt.consumers =
          static_cast<std::size_t>(std::strtoull(v5, nullptr, 10));
    } else if (const char* v6 = want("--capacity")) {
      opt.capacity =
          static_cast<std::size_t>(std::strtoull(v6, nullptr, 10));
    } else if (std::strcmp(argv[i], "--pin") == 0) {
      opt.pin = true;
    }
  }
  return opt;
}

/// Deterministic synthetic settlement for (thread, sequence); tampering
/// is applied by the caller. All records recompute cleanly: gap splits
/// across the three causes, bills derive via loss_weight 0.5.
ExchangeRecord make_record(std::size_t thread, std::uint64_t seq,
                           std::uint32_t cycles) {
  ExchangeRecord rec;
  rec.device = static_cast<std::uint32_t>(thread * 1'000'000 + (seq % 997));
  rec.cell = rec.device / 200;
  rec.cycle = static_cast<std::uint32_t>(seq % cycles);
  rec.charged_dl = 1000 + (seq % 7) * 131;
  const std::uint64_t gap = seq % 300;
  rec.delivered_dl = rec.charged_dl - gap;
  rec.gap_by_cause[0] = gap / 2;
  rec.gap_by_cause[1] = gap / 3;
  rec.gap_by_cause[2] = gap - gap / 2 - gap / 3;
  rec.charged_ul = rec.charged_dl / 40 + 40;
  rec.billed_legacy = rec.charged_dl;
  rec.billed_tlc =
      rec.delivered_dl +
      static_cast<std::uint64_t>(0.5 * static_cast<double>(gap));
  rec.bursts = 4;
  rec.reconnects = seq % 100 == 0 ? 1 : 0;
  return rec;
}

void print_result(const char* section, const HarnessResult& r) {
  std::printf("%-28s %2zu threads: %12.0f ops/s  (intervals:", section,
              r.threads, r.mean_ops_per_sec);
  for (const IntervalSample& s : r.intervals) {
    std::printf(" %.0f", s.ops_per_sec);
  }
  std::printf(")\n");
}

/// Queue section: each worker runs push/pop pairs; one "op" is a
/// completed pair. A worker popping has one value of its own in flight,
/// so its pop never waits on another worker, and when every worker has
/// finished its last pair the queue must be empty — a leftover value
/// would be a correctness bug, not noise.
HarnessResult bench_queue(const Options& opt, std::size_t threads,
                          bool* gate_ok) {
  BoundedQueue<ExchangeRecord> queue(opt.capacity);
  IntervalHarness harness{HarnessConfig{
      threads, opt.warmup, opt.interval, opt.intervals, opt.pin}};
  const HarnessResult result = harness.run(
      [&queue](std::size_t thread, const std::atomic<bool>& stop,
               std::atomic<std::uint64_t>& ops) {
        const ExchangeRecord rec = make_record(thread, 0, 4);
        std::vector<ExchangeRecord> out;
        out.reserve(1);
        while (!stop.load(std::memory_order_relaxed)) {
          queue.push(rec);
          queue.pop_batch(out, 1);
          ops.fetch_add(1, std::memory_order_relaxed);
        }
      });
  if (queue.size() != 0) {
    std::printf("GATE FAILURE: queue not empty after drain (%zu threads)\n",
                threads);
    *gate_ok = false;
  }
  return result;
}

/// Pipeline section: T producers submit records (every 97th tampered)
/// against 2 consumers; gates on conservation and the exact reject count.
HarnessResult bench_pipeline(const Options& opt, std::size_t threads,
                             bool* gate_ok) {
  PipelineConfig cfg;
  cfg.consumers = opt.consumers;
  cfg.store_capacity = opt.capacity;
  cfg.cycles = 4;
  cfg.loss_weight = 0.5;
  ServePipeline pipeline(cfg);
  std::atomic<std::uint64_t> tampered{0};

  IntervalHarness harness{HarnessConfig{
      threads, opt.warmup, opt.interval, opt.intervals, opt.pin}};
  const HarnessResult result = harness.run(
      [&pipeline, &tampered](std::size_t thread,
                             const std::atomic<bool>& stop,
                             std::atomic<std::uint64_t>& ops) {
        const ProducerHandle handle = pipeline.register_producer();
        std::uint64_t seq = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          ExchangeRecord rec = make_record(thread, seq, 4);
          if (seq % 97 == 0) {
            rec.billed_tlc += 1;  // fails the recomputation check
            tampered.fetch_add(1, std::memory_order_relaxed);
          }
          pipeline.submit(handle, rec);
          ops.fetch_add(1, std::memory_order_relaxed);
          ++seq;
        }
      });
  pipeline.drain();

  const PipelineStats& s = pipeline.stats();
  const std::uint64_t expected_rejects =
      tampered.load(std::memory_order_relaxed);
  if (s.ingested != s.settled + s.rejected) {
    std::printf("GATE FAILURE: ingested %llu != settled %llu + rejected "
                "%llu (%zu threads)\n",
                static_cast<unsigned long long>(s.ingested),
                static_cast<unsigned long long>(s.settled),
                static_cast<unsigned long long>(s.rejected), threads);
    *gate_ok = false;
  }
  if (s.rejected != expected_rejects) {
    std::printf("GATE FAILURE: rejected %llu != tampered %llu "
                "(%zu threads)\n",
                static_cast<unsigned long long>(s.rejected),
                static_cast<unsigned long long>(expected_rejects), threads);
    *gate_ok = false;
  }
  if (!pipeline.store_empty()) {
    std::printf("GATE FAILURE: pipeline queue not empty after drain "
                "(%zu threads)\n",
                threads);
    *gate_ok = false;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  bool gate_ok = true;
  const unsigned cpus = std::thread::hardware_concurrency();

  std::printf("## serve interval throughput (%u cpus, %s, %s)\n\n", cpus,
              bench::kCompiler, bench::kBuildType);

  std::vector<HarnessResult> queue_rows;
  std::vector<HarnessResult> pipe_rows;
  for (const std::size_t threads : opt.threads) {
    queue_rows.push_back(bench_queue(opt, threads, &gate_ok));
    print_result("queue/push-pop", queue_rows.back());
  }
  for (const std::size_t threads : opt.threads) {
    pipe_rows.push_back(bench_pipeline(opt, threads, &gate_ok));
    print_result("pipeline/submit-settle", pipe_rows.back());
  }

  std::FILE* out = std::fopen("BENCH_serve.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n");
    bench::write_provenance_json(out, cpus);
    std::fprintf(out,
                 "  \"pinned\": %s,\n"
                 "  \"consumers\": %zu,\n"
                 "  \"intervals\": %zu,\n",
                 opt.pin ? "true" : "false", opt.consumers, opt.intervals);
    for (const HarnessResult& r : queue_rows) {
      std::fprintf(out,
                   "  \"queue_threads%zu_ops_per_sec\": %.1f,\n"
                   "  \"queue_threads%zu_min_ops_per_sec\": %.1f,\n",
                   r.threads, r.mean_ops_per_sec, r.threads,
                   r.min_ops_per_sec);
    }
    for (const HarnessResult& r : pipe_rows) {
      std::fprintf(out,
                   "  \"serve_threads%zu_records_per_sec\": %.1f,\n",
                   r.threads, r.mean_ops_per_sec);
    }
    std::fprintf(out, "  \"invariants_ok\": %s\n}\n",
                 gate_ok ? "true" : "false");
    std::fclose(out);
    std::printf("\nwrote BENCH_serve.json\n");
  } else {
    std::perror("BENCH_serve.json");
  }

  if (!gate_ok) {
    std::printf("SERVE INVARIANT GATE FAILED\n");
    return 1;
  }
  std::printf("invariants: ingested == settled + rejected, queues drained "
              "empty — ok\n");
  return 0;
}
