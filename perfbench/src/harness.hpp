// Shared machinery of the perfbench workloads: the seeded input generator,
// process resource usage, the correctness ledger and metric sink, and the
// span tracer that attributes service time to the repository's layers.
//
// Spans are recorded only here, around calls from the benchmark into the
// library; nothing inside the library is instrumented.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64. The benchmark draws every input from its own generator so
/// the inputs depend only on the seed and this code, never on the
/// library's RNG.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// FNV-1a over one 64-bit word, as the OFCS fold defines it. The benchmark
/// keeps its own copy so its references never reuse the code they check.
inline std::uint64_t fnv_word(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (i * 8)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Falsification hook: names one deliberate fault the run must catch.
  std::string inject;
  /// Directory for scratch files and the span dump.
  std::string out_dir = ".";
};

/// Resource usage of the whole process (getrusage RUSAGE_SELF).
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  long vol_cs = 0;
  long invol_cs = 0;

  static Usage now();
  [[nodiscard]] double cpu_s() const { return user_s + sys_s; }
  friend Usage operator-(const Usage& a, const Usage& b) {
    return {a.user_s - b.user_s, a.sys_s - b.sys_s, a.vol_cs - b.vol_cs,
            a.invol_cs - b.invol_cs};
  }
};

/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();

class Result;
/// Publishes the proc.* metrics of a phase.
void report_usage(const Usage& usage, Result& result);

/// Metrics and the correctness ledger of one run.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void attempt(std::uint64_t n) { attempted_ += n; }
  /// Counts `n` failed operations and reports why on stderr.
  void fail(std::uint64_t n, const std::string& why);
  /// Fails when `got != want`, counting `n` failed operations.
  void expect_eq(const std::string& what, std::uint64_t got,
                 std::uint64_t want, std::uint64_t n = 1);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  /// One JSON object: correct, attempted, failed, metrics.
  [[nodiscard]] std::string to_json() const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Median and nearest-rank percentile of a sample (copied, then sorted).
double median(std::vector<double> values);
double percentile(std::vector<double> values, double q);

/// The repository modules a span can be charged to. kSvc marks the
/// benchmark's own root spans (a frame, record group or pass); they group
/// the layer spans in the dump but are charged to no layer.
enum class Layer : std::uint8_t { kSvc, kWire, kTlc, kServe, kExp };
inline constexpr std::size_t kLayerCount = 5;
const char* layer_name(Layer layer);

struct Span {
  const char* name;
  std::uint32_t group;  // frame, record group or pass the span belongs to
  std::int32_t parent;  // index of the enclosing span, -1 for a root
  Layer layer;
  std::int64_t t0;
  std::int64_t t1;
};

/// In-memory span recorder. Disabled, every call is a single branch.
/// Single-threaded: only the service thread records.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 20);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }
  std::int32_t open(const char* name, Layer layer, std::uint32_t group,
                    std::int32_t parent);
  void close(std::int32_t id);

  /// Self time per layer: each layer span's duration minus its children's.
  /// The kSvc entry stays 0.
  [[nodiscard]] std::array<std::int64_t, kLayerCount> layer_self_ns() const;
  /// Summed duration of the spans called `name`.
  [[nodiscard]] std::int64_t total_ns(const char* name) const;
  /// One JSON object per span.
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span. A null or disabled tracer makes it a no-op.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, Layer layer, std::uint32_t group,
        std::int32_t parent = -1)
      : tracer_(tracer),
        id_(tracer.enabled() ? tracer.open(name, layer, group, parent) : -1) {}
  ~Scope() {
    if (id_ >= 0) tracer_.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::int32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

/// Publishes the tracer's per-layer self times against `busy_ns`, the wall
/// time of the traced loop measured on its own clock, and returns the
/// unattributed share: busy time that no layer span covers. The run fails
/// when that is negative, i.e. layer spans overlap or outlast the loop.
double report_breakdown(const Tracer& tracer, std::int64_t busy_ns,
                        Result& result);

/// A workload fills `result`; `threads` is its peak thread count,
/// including the calling thread.
struct Workload {
  const char* name;
  unsigned threads;
  void (*run)(const Options&, Result&);
};

void run_signed_settle(const Options& opt, Result& result);
void run_plain_settle(const Options& opt, Result& result);
void run_receipt_log(const Options& opt, Result& result);
void run_fleet_sim(const Options& opt, Result& result);

/// A traced run times one submit in this many on its own, so the tail
/// percentile costs two clock reads per sample rather than per record.
inline constexpr std::uint64_t kSubmitSample = 16;

/// Set-ups per run: at least kMinSetups, and more until kMinSetupSeconds
/// have been spent, up to kMaxSetups. setup_s is their median, so a short
/// set-up is timed over many repeats.
inline constexpr int kMinSetups = 5;
inline constexpr int kMaxSetups = 64;
inline constexpr double kMinSetupSeconds = 1.5;

/// Repeats `setup` as above and reports the median as setup_s. A set-up
/// leaves its product in state it captures, and a repeat may refill the
/// previous repeat's buffers.
template <typename F>
void timed_setup(Result& result, F&& setup) {
  std::vector<double> seconds;
  double spent = 0;
  while (static_cast<int>(seconds.size()) < kMaxSetups &&
         (static_cast<int>(seconds.size()) < kMinSetups ||
          spent < kMinSetupSeconds)) {
    const std::int64_t t0 = now_ns();
    setup();
    seconds.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    spent += seconds.back();
  }
  result.metric("setup_s", median(seconds), "s");
}

}  // namespace perfbench
