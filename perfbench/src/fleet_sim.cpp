// fleet-sim: the sharded million-UE fleet, exp::run_fleet with 1M devices,
// 2 cycles and 2 shards. The work lands on sim (ShardedRunner, Scheduler),
// epc::DeviceFleet and the obs counter merge; no crypto or store code
// runs, so this workload guards the shared sim, obs and common code.
//
// Set-up: one serial run_fleet call gives the reference fingerprint, since
// serial and parallel runs of one config are byte-identical. It runs for
// seconds, so setup_s is that one call. Timed: whole parallel run_fleet
// calls, repeated until the time is spent, each checked against the
// reference.
#include <algorithm>
#include <string>

#include "exp/fleet.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace tlc;

constexpr std::size_t kDevices = 1'000'000;
constexpr std::uint32_t kCycles = 2;
constexpr std::uint32_t kShards = 2;

exp::FleetConfig fleet_config(std::uint64_t seed, bool parallel) {
  exp::FleetConfig cfg;
  cfg.devices = kDevices;
  cfg.cycles = kCycles;
  cfg.shards = kShards;
  cfg.seed = seed;
  cfg.parallel = parallel;
  return cfg;
}

/// The fleet's charging identities (per cycle charged == delivered + gap,
/// and the gap equals the sum of its per-cause drop counters), and the
/// run's fingerprint against the serial reference run's. A run fails at
/// most its device-cycles.
void check(const exp::FleetResult& r, const std::string& reference,
           Result& run_result) {
  const std::uint64_t device_cycles = kDevices * kCycles;
  Result result;
  result.expect_eq("devices", r.devices, kDevices, device_cycles);
  result.expect_eq("shards", r.shards, kShards);
  result.expect_eq("settled device-cycles",
                   r.metrics.counter_or_zero("fleet.settled_devices"),
                   device_cycles);
  std::uint64_t gap = 0;
  for (std::size_t c = 0; c < r.cycle_totals.size(); ++c) {
    const exp::FleetCycleTotals& row = r.cycle_totals[c];
    result.expect_eq("cycle " + std::to_string(c) + " charged",
                     row.charged_dl, row.delivered_dl + row.gap_dl, kDevices);
    gap += row.gap_dl;
  }
  const std::uint64_t by_cause =
      r.metrics.counter_or_zero("fleet.dropped_disconnect_bytes") +
      r.metrics.counter_or_zero("fleet.dropped_radio_bytes") +
      r.metrics.counter_or_zero("fleet.dropped_handover_bytes");
  result.expect_eq("gap == sum of per-cause drops", gap, by_cause);
  if (exp::fleet_fingerprint(r) != reference) {
    result.fail(device_cycles, "run differs from the serial reference run");
  }
  if (result.failed() > 0) {
    run_result.fail(std::min(result.failed(), device_cycles),
                    "fleet run failed its checks");
  }
}

struct Runs {
  std::uint64_t runs = 0;
  std::int64_t wall_ns = 0;  // the whole loop; a traced run's busy time
  Usage usage;
  exp::FleetResult last;
  [[nodiscard]] double per_s() const {
    return static_cast<double>(runs * kDevices * kCycles) /
           (static_cast<double>(wall_ns) * 1e-9);
  }
};

/// Whole parallel runs, each checked; stops when another would overrun
/// `seconds` by more than half a run.
Runs timed_runs(const Options& opt, double seconds,
                const std::string& reference, Tracer& tracer,
                Result& result) {
  const exp::FleetConfig cfg = fleet_config(opt.seed, true);
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  Runs out;
  const Usage u0 = Usage::now();
  const std::int64_t t0 = now_ns();
  do {
    {
      const auto group = static_cast<std::uint32_t>(out.runs);
      Scope s{tracer, "exp.run_fleet", Layer::kExp, group};
      out.last = exp::run_fleet(cfg);
    }
    ++out.runs;
    if (opt.inject == "broken-identity") out.last.cycle_totals[0].gap_dl += 1;
    result.attempt(kDevices * kCycles);
    check(out.last, reference, result);
    out.wall_ns = now_ns() - t0;
  } while (out.wall_ns + out.wall_ns / static_cast<std::int64_t>(2 * out.runs) <
           budget);
  out.usage = Usage::now() - u0;
  return out;
}

}  // namespace

void run_fleet_sim(const Options& opt, Result& result) {
  const std::int64_t s0 = now_ns();
  const exp::FleetResult serial = exp::run_fleet(fleet_config(opt.seed, false));
  result.metric("setup_s", static_cast<double>(now_ns() - s0) * 1e-9, "s");
  const std::string reference = exp::fleet_fingerprint(serial);

  // Untraced, the whole run is one timed loop. Traced, halves: the
  // untraced base of trace.overhead_ratio, then the traced loop.
  const double share = opt.trace ? 0.5 : 1.0;
  Tracer off{false};
  const Runs r = timed_runs(opt, opt.seconds * share, reference, off, result);
  result.metric("settled_per_s", r.per_s(), "1/s");
  result.metric("settled_per_cpu_s",
                static_cast<double>(r.runs * kDevices * kCycles) /
                    r.usage.cpu_s(),
                "1/cpu_s");
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report_usage(r.usage, result);
  const exp::FleetResult& last = r.last;
  result.metric("sim.events", static_cast<double>(last.events), "count");
  result.metric("sim.windows", static_cast<double>(last.windows), "count");
  result.metric("sim.cross_shard_messages", static_cast<double>(last.messages),
                "count");
  result.metric("epc.bursts",
                static_cast<double>(last.metrics.counter_or_zero("fleet.bursts")),
                "count");
  result.metric(
      "epc.reconnects",
      static_cast<double>(last.metrics.counter_or_zero("fleet.reconnects")),
      "count");
  result.metric("sim.ns_per_event",
                static_cast<double>(r.wall_ns) /
                    static_cast<double>(r.runs * last.events),
                "ns");
  if (!opt.trace) return;

  Tracer tracer{true};
  const Runs rt =
      timed_runs(opt, opt.seconds * share, reference, tracer, result);
  result.metric("trace.overhead_ratio", rt.per_s() / r.per_s(), "ratio");
  report_breakdown(tracer, rt.wall_ns, result);
  tracer.write_jsonl(opt.out_dir + "/spans-fleet-sim.jsonl");
}

}  // namespace perfbench
