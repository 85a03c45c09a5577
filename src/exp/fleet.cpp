#include "exp/fleet.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "exp/sweep.hpp"
#include "sim/shard.hpp"

namespace tlc::exp {
namespace {

using epc::DeviceFleet;
using epc::FleetDeviceId;

/// Per-shard hot-path state: the metrics registry plus the counters
/// resolved once at init, and the shard's cell/device ranges.
struct ShardState {
  obs::MetricsRegistry registry;
  obs::Counter* bursts = nullptr;
  obs::Counter* charged_dl = nullptr;
  obs::Counter* delivered_dl = nullptr;
  obs::Counter* dropped_disconnect = nullptr;
  obs::Counter* dropped_radio = nullptr;
  obs::Counter* dropped_handover = nullptr;
  obs::Counter* charged_ul = nullptr;
  obs::Counter* reconnects = nullptr;
  obs::Counter* settled_devices = nullptr;
  obs::Counter* reports = nullptr;
  std::uint32_t cell_begin = 0;
  std::uint32_t cell_end = 0;
  FleetDeviceId dev_begin = 0;
  FleetDeviceId dev_end = 0;
};

struct FleetCtx {
  explicit FleetCtx(const FleetConfig& cfg, std::uint32_t shard_count)
      : config(cfg),
        fleet(cfg.devices, cfg.devices_per_cell, cfg.seed),
        runner(sim::ShardedRunner::Config{shard_count, cfg.backhaul_latency,
                                          cfg.parallel}),
        horizon(kTimeZero +
                cfg.cycle_length * static_cast<std::int64_t>(cfg.cycles)) {}

  const FleetConfig& config;
  DeviceFleet fleet;
  sim::ShardedRunner runner;
  TimePoint horizon;
  std::vector<std::unique_ptr<ShardState>> shards;
  /// cycle_acc[shard][cycle], each written only by its shard's thread.
  std::vector<std::vector<DeviceFleet::SettleTotals>> cycle_acc;
  // OFCS aggregator state, touched only by shard 0's events.
  epc::OfcsFold ofcs;
};

void schedule_burst(FleetCtx& ctx, std::uint32_t s, FleetDeviceId d,
                    TimePoint at) {
  ctx.runner.shard(s).schedule_at(at, sim::InlineCallback{[&ctx, s, d, at] {
    const DeviceFleet::BurstOutcome out =
        ctx.fleet.burst(d, ctx.config.traffic);
    ShardState& ss = *ctx.shards[s];
    ss.bursts->inc();
    ss.charged_dl->inc(out.charged_dl);
    ss.delivered_dl->inc(out.delivered_dl);
    ss.dropped_disconnect->inc(out.dropped_disconnect);
    ss.dropped_radio->inc(out.dropped_radio);
    ss.dropped_handover->inc(out.dropped_handover);
    ss.charged_ul->inc(out.charged_ul);
    if (out.reconnected) ss.reconnects->inc();
    const TimePoint next = at + out.next_gap;
    if (next < ctx.horizon) schedule_burst(ctx, s, d, next);
  }});
}

void schedule_settle(FleetCtx& ctx, std::uint32_t s, std::uint32_t cycle) {
  const TimePoint when = kTimeZero + ctx.config.cycle_length *
                                         static_cast<std::int64_t>(cycle + 1);
  ctx.runner.shard(s).schedule_at(
      when, sim::InlineCallback{[&ctx, s, cycle, when] {
        ShardState& ss = *ctx.shards[s];
        const DeviceFleet::SettleTotals totals = ctx.fleet.settle_range(
            ss.dev_begin, ss.dev_end, cycle, ctx.config.loss_weight);
        ctx.cycle_acc[s][cycle] = totals;
        ss.settled_devices->inc(totals.devices);
        // Each cell's RRC counter report travels to the shard-0 OFCS
        // aggregator over the backhaul; the cell id keys the merge.
        for (std::uint32_t cell = ss.cell_begin; cell < ss.cell_end; ++cell) {
          const std::uint64_t charged = ctx.fleet.cell_charged_dl(cell);
          const std::uint64_t delivered = ctx.fleet.cell_delivered_dl(cell);
          ctx.fleet.reset_cell_cycle(cell);
          ss.reports->inc();
          ctx.runner.post(
              s, 0, when + ctx.config.backhaul_latency, cell,
              sim::InlineCallback{[&ctx, cycle, cell, charged, delivered] {
                // Shard 0 folds reports in the deterministic
                // (deliver_at, cell) merge order.
                ctx.ofcs.add(cycle, cell, charged, delivered);
              }});
        }
      }});
}

}  // namespace

std::uint32_t resolve_shards(std::uint32_t requested) {
  if (requested > 0) return requested;
  return static_cast<std::uint32_t>(resolve_workers(0, "TLC_SHARDS"));
}

FleetResult run_fleet(const FleetConfig& config) {
  const std::uint32_t dpc =
      config.devices_per_cell == 0 ? 1 : config.devices_per_cell;
  const auto cells = static_cast<std::uint32_t>(
      std::max<std::size_t>(1, (config.devices + dpc - 1) / dpc));
  // More shards than cells would leave some shards empty; clamp instead.
  const std::uint32_t shards = std::min(resolve_shards(config.shards), cells);
  FleetCtx ctx{config, shards};
  // Partition on cell boundaries: contiguous cell ranges mean contiguous
  // device ranges and per-cell accumulators owned by exactly one shard.
  const std::uint32_t cells_per_shard = (cells + shards - 1) / shards;
  const auto devices = static_cast<FleetDeviceId>(ctx.fleet.devices());

  ctx.shards.reserve(ctx.runner.shards());
  ctx.cycle_acc.assign(
      ctx.runner.shards(),
      std::vector<DeviceFleet::SettleTotals>(config.cycles));
  for (std::uint32_t s = 0; s < ctx.runner.shards(); ++s) {
    auto ss = std::make_unique<ShardState>();
    ss->cell_begin = std::min(s * cells_per_shard, cells);
    ss->cell_end = std::min(ss->cell_begin + cells_per_shard, cells);
    ss->dev_begin = std::min(ss->cell_begin * dpc, devices);
    ss->dev_end = std::min(ss->cell_end * dpc, devices);
    ss->bursts = &ss->registry.counter("fleet.bursts");
    ss->charged_dl = &ss->registry.counter("fleet.charged_dl_bytes");
    ss->delivered_dl = &ss->registry.counter("fleet.delivered_dl_bytes");
    ss->dropped_disconnect =
        &ss->registry.counter("fleet.dropped_disconnect_bytes");
    ss->dropped_radio = &ss->registry.counter("fleet.dropped_radio_bytes");
    ss->dropped_handover =
        &ss->registry.counter("fleet.dropped_handover_bytes");
    ss->charged_ul = &ss->registry.counter("fleet.charged_ul_bytes");
    ss->reconnects = &ss->registry.counter("fleet.reconnects");
    ss->settled_devices = &ss->registry.counter("fleet.settled_devices");
    ss->reports = &ss->registry.counter("fleet.cell_reports");
    ctx.shards.push_back(std::move(ss));
  }

  // Pre-size every pool so the window loop is allocation-free in steady
  // state: each shard holds one pending burst per device, its settle
  // events, and (shard 0) every cell's in-flight reports.
  const std::size_t devices_per_shard =
      static_cast<std::size_t>(cells_per_shard) * dpc;
  ctx.runner.reserve(devices_per_shard + config.cycles + cells + 16,
                     static_cast<std::size_t>(cells_per_shard) + 1);

  // Settles are scheduled before any burst, so at a shared timestamp the
  // (when, seq) order always runs cycle settlement first — on every shard
  // count alike.
  for (std::uint32_t s = 0; s < ctx.runner.shards(); ++s) {
    for (std::uint32_t c = 0; c < config.cycles; ++c) {
      schedule_settle(ctx, s, c);
    }
  }
  for (std::uint32_t s = 0; s < ctx.runner.shards(); ++s) {
    const ShardState& ss = *ctx.shards[s];
    for (FleetDeviceId d = ss.dev_begin; d < ss.dev_end; ++d) {
      // First wakeup offset comes from the device's own stream at a
      // reserved counter, so it is shard-count independent like every
      // other draw (and shared with the serve-mode replay).
      const TimePoint at =
          kTimeZero + ctx.fleet.initial_offset(d, config.traffic);
      if (at < ctx.horizon) schedule_burst(ctx, s, d, at);
    }
  }

  // Run past the horizon far enough for the last cycle's reports to land.
  ctx.runner.run_until(ctx.horizon + config.backhaul_latency +
                       config.backhaul_latency);

  FleetResult result;
  result.devices = ctx.fleet.devices();
  result.cells = cells;
  result.shards = ctx.runner.shards();
  result.events = ctx.runner.events_dispatched();
  result.messages = ctx.runner.messages_posted();
  result.windows = ctx.runner.windows_run();
  result.cycle_totals.resize(config.cycles);
  for (std::uint32_t c = 0; c < config.cycles; ++c) {
    FleetCycleTotals& row = result.cycle_totals[c];
    for (std::uint32_t s = 0; s < ctx.runner.shards(); ++s) {
      const DeviceFleet::SettleTotals& t = ctx.cycle_acc[s][c];
      row.charged_dl += t.charged_dl;
      row.delivered_dl += t.delivered_dl;
      row.gap_dl += t.gap_dl;
      row.billed_legacy += t.billed_legacy;
      row.billed_tlc += t.billed_tlc;
      result.charged_ul += t.charged_ul;
    }
    result.charged_dl += row.charged_dl;
    result.delivered_dl += row.delivered_dl;
    result.gap_dl += row.gap_dl;
    result.billed_legacy += row.billed_legacy;
    result.billed_tlc += row.billed_tlc;
  }
  result.digest = ctx.fleet.digest();
  result.ofcs_chain = ctx.ofcs.chain;
  result.flagged_reports = ctx.ofcs.flagged;
  for (const auto& ss : ctx.shards) {
    result.metrics.merge_counters_from(ss->registry.snapshot());
  }
  return result;
}

std::string fleet_fingerprint(const FleetResult& result) {
  // Everything determinism-relevant, nothing topology-dependent: shard
  // count, event counts, and window counts are deliberately excluded so
  // fingerprints compare equal across shard counts.
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof buf,
                "devices=%llu cells=%lu charged_dl=%llu delivered_dl=%llu "
                "gap_dl=%llu billed_legacy=%llu billed_tlc=%llu "
                "charged_ul=%llu digest=%016llx ofcs=%016llx flagged=%llu",
                static_cast<unsigned long long>(result.devices),
                static_cast<unsigned long>(result.cells),
                static_cast<unsigned long long>(result.charged_dl),
                static_cast<unsigned long long>(result.delivered_dl),
                static_cast<unsigned long long>(result.gap_dl),
                static_cast<unsigned long long>(result.billed_legacy),
                static_cast<unsigned long long>(result.billed_tlc),
                static_cast<unsigned long long>(result.charged_ul),
                static_cast<unsigned long long>(result.digest),
                static_cast<unsigned long long>(result.ofcs_chain),
                static_cast<unsigned long long>(result.flagged_reports));
  out += buf;
  for (std::size_t c = 0; c < result.cycle_totals.size(); ++c) {
    const FleetCycleTotals& row = result.cycle_totals[c];
    std::snprintf(buf, sizeof buf,
                  " cycle%zu={charged=%llu delivered=%llu gap=%llu "
                  "legacy=%llu tlc=%llu}",
                  c, static_cast<unsigned long long>(row.charged_dl),
                  static_cast<unsigned long long>(row.delivered_dl),
                  static_cast<unsigned long long>(row.gap_dl),
                  static_cast<unsigned long long>(row.billed_legacy),
                  static_cast<unsigned long long>(row.billed_tlc));
    out += buf;
  }
  out += " metrics=";
  out += result.metrics.to_json();
  return out;
}

}  // namespace tlc::exp
