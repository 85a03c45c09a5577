#include "serve/replay.hpp"

#include <algorithm>
#include <thread>
#include <vector>

namespace tlc::serve {
namespace {

using epc::DeviceFleet;
using epc::FleetDeviceId;

/// Burst-phase accumulation for one device within one cycle; becomes the
/// per-cause split and burst/reconnect counts of its settlement record.
struct DeviceCycleAcc {
  std::uint64_t dropped_disconnect = 0;
  std::uint64_t dropped_radio = 0;
  std::uint64_t dropped_handover = 0;
  std::uint32_t bursts = 0;
  std::uint32_t reconnects = 0;
};

/// One producer: replays its contiguous cell range cycle-major. Bursts and
/// settlements for a device touch only that device's columns (and its
/// cell's accumulators, owned by this producer), so producers never race
/// on fleet state.
void produce_range(const ReplayConfig& config, DeviceFleet& fleet,
                   ServePipeline& pipeline, std::uint32_t cell_begin,
                   std::uint32_t cell_end, std::vector<TimePoint>& next_burst) {
  const ProducerHandle handle = pipeline.register_producer();
  const std::uint32_t dpc = fleet.devices_per_cell();
  const auto devices = static_cast<FleetDeviceId>(fleet.devices());
  const TimePoint horizon =
      kTimeZero +
      config.cycle_length * static_cast<std::int64_t>(config.cycles);

  // First wakeups from the shared reserved-counter rule (the same one the
  // batch runner schedules from).
  const FleetDeviceId dev_begin =
      std::min<FleetDeviceId>(cell_begin * dpc, devices);
  const FleetDeviceId dev_end =
      std::min<FleetDeviceId>(cell_end * dpc, devices);
  for (FleetDeviceId d = dev_begin; d < dev_end; ++d) {
    next_burst[d] = kTimeZero + fleet.initial_offset(d, config.traffic);
  }

  for (std::uint32_t cycle = 0; cycle < config.cycles; ++cycle) {
    // Settles sort before same-instant bursts in the batch scheduler, so
    // the cycle owns exactly the bursts strictly before its boundary.
    const TimePoint cycle_end =
        kTimeZero +
        config.cycle_length * static_cast<std::int64_t>(cycle + 1);
    for (std::uint32_t cell = cell_begin; cell < cell_end; ++cell) {
      const FleetDeviceId lo = std::min<FleetDeviceId>(cell * dpc, devices);
      const FleetDeviceId hi =
          std::min<FleetDeviceId>((cell + 1) * dpc, devices);
      for (FleetDeviceId d = lo; d < hi; ++d) {
        DeviceCycleAcc acc;
        while (next_burst[d] < cycle_end && next_burst[d] < horizon) {
          const DeviceFleet::BurstOutcome out =
              fleet.burst(d, config.traffic);
          acc.dropped_disconnect += out.dropped_disconnect;
          acc.dropped_radio += out.dropped_radio;
          acc.dropped_handover += out.dropped_handover;
          acc.bursts += 1;
          if (out.reconnected) acc.reconnects += 1;
          next_burst[d] += out.next_gap;
        }
        const DeviceFleet::SettleTotals totals =
            fleet.settle_range(d, d + 1, cycle, config.loss_weight);
        ExchangeRecord rec;
        rec.kind = RecordKind::kSettlement;
        rec.device = d;
        rec.cell = cell;
        rec.cycle = cycle;
        rec.charged_dl = totals.charged_dl;
        rec.delivered_dl = totals.delivered_dl;
        rec.charged_ul = totals.charged_ul;
        rec.billed_legacy = totals.billed_legacy;
        rec.billed_tlc = totals.billed_tlc;
        rec.gap_by_cause[static_cast<std::size_t>(GapCause::kDisconnect)] =
            acc.dropped_disconnect;
        rec.gap_by_cause[static_cast<std::size_t>(GapCause::kRadio)] =
            acc.dropped_radio;
        rec.gap_by_cause[static_cast<std::size_t>(GapCause::kHandover)] =
            acc.dropped_handover;
        rec.bursts = acc.bursts;
        rec.reconnects = acc.reconnects;
        pipeline.submit(handle, rec);
      }
      // The cell's RRC COUNTER CHECK for this cycle: every burst of the
      // cycle has accumulated by now (this producer owns the whole cell).
      ExchangeRecord report;
      report.kind = RecordKind::kCellReport;
      report.cell = cell;
      report.cycle = cycle;
      report.charged_dl = fleet.cell_charged_dl(cell);
      report.delivered_dl = fleet.cell_delivered_dl(cell);
      fleet.reset_cell_cycle(cell);
      pipeline.submit(handle, report);
    }
  }
}

}  // namespace

ReplayResult run_replay(const ReplayConfig& config) {
  const std::uint32_t dpc =
      config.devices_per_cell == 0 ? 1 : config.devices_per_cell;
  DeviceFleet fleet(config.devices, dpc, config.seed);
  const std::uint32_t cells = fleet.cells();
  const std::size_t producers = std::max<std::size_t>(
      1, std::min<std::size_t>(config.producers, cells));

  PipelineConfig pipe_cfg;
  pipe_cfg.consumers = config.consumers;
  pipe_cfg.store_capacity = config.store_capacity;
  pipe_cfg.cycles = config.cycles;
  pipe_cfg.loss_weight = config.loss_weight;
  pipe_cfg.clock = config.clock;
  ServePipeline pipeline(pipe_cfg);

  std::vector<TimePoint> next_burst(fleet.devices());
  const std::uint32_t cells_per_producer =
      (cells + static_cast<std::uint32_t>(producers) - 1) /
      static_cast<std::uint32_t>(producers);
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    const std::uint32_t cell_begin = std::min(
        static_cast<std::uint32_t>(p) * cells_per_producer, cells);
    const std::uint32_t cell_end =
        std::min(cell_begin + cells_per_producer, cells);
    threads.emplace_back([&config, &fleet, &pipeline, cell_begin, cell_end,
                          &next_burst] {
      produce_range(config, fleet, pipeline, cell_begin, cell_end,
                    next_burst);
    });
  }
  for (std::thread& t : threads) t.join();
  pipeline.drain();

  ReplayResult result;
  result.devices = fleet.devices();
  result.cells = cells;
  result.stats = pipeline.stats();
  result.fleet_digest = fleet.digest();
  return result;
}

}  // namespace tlc::serve
