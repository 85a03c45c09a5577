// plain-settle: the crypto-free settlement path. Nearly all work lands on
// the serve store and the settle hand-off, which signed-settle barely
// loads.
//
// Set-up: a ring of consistent settlement records (one per device and
// cycle) with one cell report per 200 devices, and 1 in 50 records
// carrying a bad bill the settle stage must reject.
//
// Timed: one producer submits the ring pass after pass to a 2-consumer
// ServePipeline at saturation, then drains. No generator work is timed.
#include <algorithm>
#include <vector>

#include "harness.hpp"
#include "settle.hpp"

namespace perfbench {
namespace {

using namespace tlc;

constexpr std::uint32_t kDevices = 100'000;
constexpr std::uint32_t kDevicesPerCell = 200;
constexpr std::uint32_t kCycles = 4;
constexpr std::uint32_t kBadBillEvery = 50;
constexpr double kLossWeight = 0.5;
/// Records per span in a traced run.
constexpr std::size_t kChunk = 256;

struct Input {
  std::vector<serve::ExchangeRecord> ring;
  SettleReference ref;
};

/// Fills `in` from the seed. A refill reuses the ring's memory, so a
/// repeated set-up times the generation and not the kernel's page faults.
void build_input(const Options& opt, Input& in) {
  SplitMix rng{opt.seed};
  const std::uint32_t cells = kDevices / kDevicesPerCell;
  in.ring.clear();
  in.ring.reserve(static_cast<std::size_t>(kDevices + cells) * kCycles);
  in.ref = SettleReference{};
  in.ref.rows.resize(kCycles);
  // Exactly one bad bill per kBadBillEvery records, at a seeded offset.
  const std::uint64_t bad_offset = rng.below(kBadBillEvery);
  std::uint64_t index = 0;
  for (std::uint32_t cycle = 0; cycle < kCycles; ++cycle) {
    for (std::uint32_t cell = 0; cell < cells; ++cell) {
      serve::ExchangeRecord report;
      report.kind = serve::RecordKind::kCellReport;
      report.cell = cell;
      report.cycle = cycle;
      for (std::uint32_t d = 0; d < kDevicesPerCell; ++d) {
        serve::ExchangeRecord rec;
        rec.device = cell * kDevicesPerCell + d;
        rec.cell = cell;
        rec.cycle = cycle;
        rec.charged_dl = 1'000'000 + rng.below(500'000'000);
        const std::uint64_t gap = rng.below(rec.charged_dl / 20 + 1);
        rec.delivered_dl = rec.charged_dl - gap;
        rec.gap_by_cause[0] = rng.below(gap + 1);
        rec.gap_by_cause[1] = rng.below(gap - rec.gap_by_cause[0] + 1);
        rec.gap_by_cause[2] = gap - rec.gap_by_cause[0] - rec.gap_by_cause[1];
        rec.charged_ul = rng.below(50'000'000);
        rec.billed_legacy = rec.charged_dl;
        rec.billed_tlc =
            rec.delivered_dl +
            static_cast<std::uint64_t>(kLossWeight * static_cast<double>(gap));
        rec.bursts = static_cast<std::uint32_t>(1 + rng.below(8));
        report.charged_dl += rec.charged_dl;
        report.delivered_dl += rec.delivered_dl;
        if (index++ % kBadBillEvery == bad_offset) {
          rec.billed_tlc += 1 + rng.below(1000);
          ++in.ref.rejected;
        } else {
          ++in.ref.settlements;
          serve::PipelineCycleRow& row = in.ref.rows[cycle];
          row.charged_dl += rec.charged_dl;
          row.delivered_dl += rec.delivered_dl;
          row.gap_dl += gap;
          row.billed_legacy += rec.billed_legacy;
          row.billed_tlc += rec.billed_tlc;
          row.charged_ul += rec.charged_ul;
          row.settled_devices += 1;
          for (std::size_t c = 0; c < serve::kGapCauseCount; ++c) {
            in.ref.gap_by_cause[c] += rec.gap_by_cause[c];
          }
        }
        in.ring.push_back(rec);
      }
      in.ring.push_back(report);
      in.ref.reports.push_back(report);
    }
  }
  if (opt.inject == "wrong-reference") in.ref.rows[0].billed_tlc += 1;
}

double settlements(const Phase& p) {
  return static_cast<double>(p.stats.settled - p.stats.cell_reports);
}

Phase saturated(const Input& in, double seconds, Tracer& tracer,
                Result& result) {
  Phase p = run_phase(
      in.ref, kCycles, kLossWeight, tracer, result,
      [&](auto& submit, std::uint32_t& group) {
        const auto end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
        std::uint64_t passes = 0;
        do {
          for (std::size_t i = 0; i < in.ring.size(); i += kChunk, ++group) {
            const std::size_t stop = std::min(in.ring.size(), i + kChunk);
            Scope s{tracer, "serve.submit", Layer::kServe, group};
            for (std::size_t r = i; r < stop; ++r) submit(in.ring[r]);
          }
          ++passes;
        } while (now_ns() < end);
        return passes;
      });
  result.attempt(p.passes * in.ring.size());
  return p;
}

}  // namespace

void run_plain_settle(const Options& opt, Result& result) {
  Input in;
  timed_setup(result, [&] { build_input(opt, in); });

  // Untraced, the whole run is one saturated phase. Traced, halves: the
  // untraced base of trace.overhead_ratio, then the traced phase.
  const double share = opt.trace ? 0.5 : 1.0;
  Tracer off{false};
  const Phase p = saturated(in, opt.seconds * share, off, result);
  result.metric("settled_per_s", settlements(p) / p.seconds(), "1/s");
  result.metric("settled_per_cpu_s", settlements(p) / p.usage.cpu_s(),
                "1/cpu_s");
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report_usage(p.usage, result);
  if (!opt.trace) return;

  Tracer tracer{true};
  const Phase pt = saturated(in, opt.seconds * share, tracer, result);
  result.metric("trace.overhead_ratio",
                (settlements(pt) / pt.seconds()) /
                    (settlements(p) / p.seconds()),
                "ratio");
  report_serve(pt.probe, tracer.total_ns("serve.submit"), pt.stats, result);
  report_breakdown(tracer, pt.wall_ns, result);
  tracer.write_jsonl(opt.out_dir + "/spans-plain-settle.jsonl");
}

}  // namespace perfbench
