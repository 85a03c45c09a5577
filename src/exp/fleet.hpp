// Operator-scale fleet scenario: millions of UEs on a sharded simulation.
//
// run_fleet() wires the three scale-out pieces together:
//
//   epc::DeviceFleet      — SoA device/session/counter columns
//   sim::ShardedRunner    — N schedulers, conservative-lookahead windows,
//                           deterministic cross-shard merge
//   obs::MetricsRegistry  — one per shard, counter-merged at the end
//
// The device population is partitioned across shards on CELL boundaries
// (contiguous cell ranges, hence contiguous device ranges), so per-cell
// accumulators are only ever touched by one shard's thread. Every burst
// and settle event for a device runs on that device's home shard; the only
// cross-shard traffic is the per-cell cycle report each cell posts to the
// OFCS aggregator on shard 0, with the backhaul latency as the lookahead
// bound and the cell id as the deterministic merge key.
//
// The result — every column, every counter, the OFCS hash chain, the
// fleet digest — is byte-identical for any shard count and for serial vs.
// parallel execution (tests/exp/test_fleet_determinism.cpp pins 1/2/4/8).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "epc/fleet.hpp"
#include "obs/metrics.hpp"

namespace tlc::exp {

struct FleetConfig {
  std::size_t devices = 100'000;
  std::uint32_t devices_per_cell = 200;
  /// 0 → resolve_shards(): TLC_SHARDS env, else hardware concurrency.
  std::uint32_t shards = 0;
  /// Charging cycles to simulate; the horizon is cycles × cycle_length.
  std::uint32_t cycles = 4;
  Duration cycle_length = std::chrono::seconds{1};
  /// Cell → OFCS aggregator report latency; doubles as the shard
  /// lookahead, so it bounds the parallel window length.
  Duration backhaul_latency = std::chrono::milliseconds{5};
  epc::FleetTrafficParams traffic;
  /// Algorithm 1 split of the disputed gap (0 = device pays nothing for
  /// undelivered bytes, 1 = legacy charging).
  double loss_weight = 0.5;
  std::uint64_t seed = 42;
  /// Serial mode runs every shard on the caller's thread — same results.
  bool parallel = true;
};

/// Fleet-wide totals for one charging cycle (sum over all shards' exact
/// u64 settle totals).
struct FleetCycleTotals {
  std::uint64_t charged_dl = 0;
  std::uint64_t delivered_dl = 0;
  std::uint64_t gap_dl = 0;
  std::uint64_t billed_legacy = 0;
  std::uint64_t billed_tlc = 0;
};

struct FleetResult {
  std::uint64_t devices = 0;
  std::uint32_t cells = 0;
  std::uint32_t shards = 0;
  std::uint64_t events = 0;    // scheduler events dispatched, all shards
  std::uint64_t messages = 0;  // cross-shard reports posted
  std::uint64_t windows = 0;   // lookahead windows run

  std::uint64_t charged_dl = 0;
  std::uint64_t delivered_dl = 0;
  std::uint64_t gap_dl = 0;
  std::uint64_t billed_legacy = 0;
  std::uint64_t billed_tlc = 0;
  std::uint64_t charged_ul = 0;
  std::vector<FleetCycleTotals> cycle_totals;

  /// Order-independent fold of every device's settled columns.
  std::uint64_t digest = 0;
  /// OFCS aggregator hash chain over per-cell cycle reports, folded in
  /// merged (cycle, cell) arrival order — sensitive to the cross-shard
  /// merge order, which is exactly why the determinism suite checks it.
  std::uint64_t ofcs_chain = 0;
  /// Reports the aggregator flagged (cell gap ratio above threshold).
  std::uint64_t flagged_reports = 0;

  /// Counter-merged snapshot of every shard's registry.
  obs::MetricsSnapshot metrics;
};

/// Effective shard count: `requested` if nonzero, else
/// resolve_workers(0, "TLC_SHARDS") — the TLC_SHARDS knob when its whole
/// value is a decimal in 1..INT_MAX, else hardware concurrency (min 1).
[[nodiscard]] std::uint32_t resolve_shards(std::uint32_t requested);

/// Runs the fleet scenario to its horizon and settles every cycle.
[[nodiscard]] FleetResult run_fleet(const FleetConfig& config);

/// Canonical one-line fingerprint of everything determinism-relevant in a
/// result: totals, digest, OFCS chain, per-cycle rows, merged counters.
/// Byte-identical fingerprints ⇔ indistinguishable runs.
[[nodiscard]] std::string fleet_fingerprint(const FleetResult& result);

}  // namespace tlc::exp
