// ServePipeline — the concurrent charging service around the hand-off
// queue.
//
// Producers (ingest threads, the fleet replay, bench_serve) submit
// ExchangeRecords; a pool of consumer threads dequeues each record and
// *settles* it: the consumer re-derives the TLC bill from the record's own
// charged/delivered views (Algorithm 1's split, epc::tlc_bill) and accepts
// only records whose claimed bills recompute exactly — the live analogue of
// the recomputation check the batch verifier applies to PoC receipts.
// Accepted settlements accumulate into per-cycle totals, per-cause gap
// sums, and fleet-wide sums; kCellReport records queue for the OFCS
// aggregation fold (epc::OfcsFold) at drain time.
//
// Invariant (CI-gated by bench_serve): every submitted record is accounted
// exactly once — stats().ingested == settled + rejected — and the queue
// drains empty. `ingested` is counted by submit(), the other two by the
// consumers, so the identity is a real cross-check.
//
// Concurrency contract:
//   * submit() may run from many producer threads; it blocks under
//     backpressure when the queue is full, and never drops;
//   * consumers block while the queue is empty, so an idle pipeline
//     costs no CPU;
//   * all submits happen-before drain(): the caller stops its producers,
//     then drains. After drain() returns, the stats accessors are stable
//     and single-threaded reads;
//   * each consumer settles into its own private tally (plain sums, per-cycle
//     rows, latency histogram, cell reports), allocated by that consumer's
//     thread so two tallies never share a cache line. drain() joins the
//     consumers and merges the tallies once; the sums are commutative, so
//     thread interleaving cannot change the drained values. Settling takes
//     no lock beyond the queue's and touches no shared counter.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/queue.hpp"
#include "serve/record.hpp"
#include "sim/clock_source.hpp"

namespace tlc::serve {

struct PipelineConfig {
  std::size_t consumers = 2;
  /// Bounded in-flight records; submit() blocks when full.
  std::size_t store_capacity = 4096;
  /// Pre-sizes the per-cycle accumulator rows; settlements and cell
  /// reports with cycle ≥ this are rejected as malformed.
  std::uint32_t cycles = 4;
  /// Algorithm 1 gap split used for the settlement recomputation check.
  double loss_weight = 0.5;
  /// Optional time backend for enqueue→settle latency accounting; nullptr
  /// disables stamping (replay determinism runs stamp-free).
  const sim::ClockSource* clock = nullptr;
};

/// Fleet-wide totals for one charging cycle, accumulated live (mirrors
/// exp::FleetCycleTotals plus the serving-side extras).
struct PipelineCycleRow {
  std::uint64_t charged_dl = 0;
  std::uint64_t delivered_dl = 0;
  std::uint64_t gap_dl = 0;
  std::uint64_t billed_legacy = 0;
  std::uint64_t billed_tlc = 0;
  std::uint64_t charged_ul = 0;
  std::uint64_t settled_devices = 0;
};

/// One cell's per-cycle RRC COUNTER CHECK totals, queued for the OFCS fold.
struct CellReport {
  std::uint32_t cycle = 0;
  std::uint32_t cell = 0;
  std::uint64_t charged_dl = 0;
  std::uint64_t delivered_dl = 0;
};

/// Drained snapshot of everything the pipeline accumulated.
struct PipelineStats {
  std::uint64_t ingested = 0;
  std::uint64_t settled = 0;   // accepted settlement records
  std::uint64_t rejected = 0;  // failed the recomputation/validity check
  std::uint64_t cell_reports = 0;

  std::uint64_t charged_dl = 0;
  std::uint64_t delivered_dl = 0;
  std::uint64_t gap_dl = 0;
  std::uint64_t billed_legacy = 0;
  std::uint64_t billed_tlc = 0;
  std::uint64_t charged_ul = 0;
  std::uint64_t bursts = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t gap_disconnect = 0;
  std::uint64_t gap_radio = 0;
  std::uint64_t gap_handover = 0;
  std::vector<PipelineCycleRow> cycle_rows;

  /// OFCS aggregator chain over cell reports folded in (cycle, cell)
  /// order — the same order the sharded batch runner's deterministic
  /// merge produces, so the two chains compare equal.
  std::uint64_t ofcs_chain = 0;
  std::uint64_t flagged_reports = 0;

  /// Enqueue→settle latency across all consumers (empty without a clock).
  obs::LogHistogram settle_latency;
};

class ServePipeline {
 public:
  explicit ServePipeline(PipelineConfig config);
  ServePipeline(const ServePipeline&) = delete;
  ServePipeline& operator=(const ServePipeline&) = delete;
  ~ServePipeline();

  /// Returns the token a producer passes to submit(). Any number of
  /// producers may register.
  [[nodiscard]] ProducerHandle register_producer() { return {}; }

  /// Enqueues one record, blocking under backpressure. Stamps
  /// `enqueued_ns` from the configured clock.
  void submit(const ProducerHandle& handle, ExchangeRecord record);

  /// Call after every producer has finished submitting: closes the queue,
  /// lets the consumers settle what is left and stop, folds the OFCS
  /// chain, merges per-consumer latency histograms. Idempotent.
  void drain();

  /// Stable only after drain().
  [[nodiscard]] const PipelineStats& stats() const { return stats_; }

  [[nodiscard]] std::size_t store_depth() const { return queue_.size(); }
  [[nodiscard]] bool store_empty() const { return queue_.size() == 0; }

  /// Publishes the drained stats into a registry as serve.* counters,
  /// gauges, and the settle-latency percentile histogram.
  void publish(obs::MetricsRegistry* registry) const;

 private:
  /// Consumer-thread-private accumulation, merged once at drain.
  struct ConsumerState {
    /// Plain sums of this consumer's settlements: counts, per-cause gaps,
    /// per-cycle rows (sized to `cycles`) and enqueue→settle latency. The
    /// fleet-wide byte totals are derived from the merged rows at drain.
    PipelineStats tally;
    /// (cycle, cell)-sorted once the consumer stops. A deque grows in
    /// fixed blocks, so holding many passes' reports never needs the
    /// transient double copy of a growing vector.
    std::deque<CellReport> reports;
  };

  void consume(std::size_t consumer_index);
  void settle(const ExchangeRecord& rec, ConsumerState* state);

  PipelineConfig config_;
  BoundedQueue<ExchangeRecord> queue_;

  std::atomic<std::uint64_t> ingested_{0};

  /// Slot i is filled by consumer i when it stops; read after the join.
  std::vector<std::unique_ptr<ConsumerState>> consumer_states_;
  std::vector<std::thread> consumers_;
  bool drained_ = false;
  PipelineStats stats_;
};

}  // namespace tlc::serve
