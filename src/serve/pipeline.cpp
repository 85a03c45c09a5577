#include "serve/pipeline.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <memory>
#include <vector>

#include "common/hot.hpp"
#include "epc/fleet.hpp"  // tlc_bill and OfcsFold

namespace tlc::serve {
namespace {

/// The OFCS fold order: (cycle, cell) — exactly the deterministic merge
/// order of the sharded batch runner (all of a cycle's reports share one
/// deliver time; the cell id breaks ties).
bool fold_before(const CellReport& a, const CellReport& b) {
  if (a.cycle != b.cycle) return a.cycle < b.cycle;
  return a.cell < b.cell;
}

void add_row(PipelineCycleRow& into, const PipelineCycleRow& from) {
  into.charged_dl += from.charged_dl;
  into.delivered_dl += from.delivered_dl;
  into.gap_dl += from.gap_dl;
  into.billed_legacy += from.billed_legacy;
  into.billed_tlc += from.billed_tlc;
  into.charged_ul += from.charged_ul;
  into.settled_devices += from.settled_devices;
}

}  // namespace

ServePipeline::ServePipeline(PipelineConfig config)
    : config_(config), queue_(config.store_capacity) {
  if (config_.consumers == 0) config_.consumers = 1;
  consumer_states_.resize(config_.consumers);
  consumers_.reserve(config_.consumers);
  for (std::size_t i = 0; i < config_.consumers; ++i) {
    consumers_.emplace_back([this, i] { consume(i); });
  }
}

ServePipeline::~ServePipeline() { drain(); }

TLC_HOT void ServePipeline::submit(const ProducerHandle& /*handle*/,
                                   ExchangeRecord record) {
  if (config_.clock != nullptr) {
    record.enqueued_ns = (config_.clock->now() - kTimeZero).count();
  }
  // Bounded queue: block under backpressure rather than drop — every
  // ingested record must be accounted for exactly once.
  [[maybe_unused]] const bool queued = queue_.push(record);
  assert(queued && "submit() after drain()");
  ingested_.fetch_add(1, std::memory_order_relaxed);
}

void ServePipeline::consume(std::size_t consumer_index) {
  // Built on this thread, so the tally, its rows and histogram buckets come
  // from this thread's allocations and never share a line with another
  // consumer's.
  auto state = std::make_unique<ConsumerState>();
  state->tally.cycle_rows.resize(config_.cycles);
  std::vector<ExchangeRecord> batch;
  batch.reserve(kPopBatch);
  // pop_batch() returns 0 only once drain() closed the queue and it is
  // empty; all submits happen-before that close.
  while (queue_.pop_batch(batch, kPopBatch) > 0) {
    for (const ExchangeRecord& rec : batch) settle(rec, state.get());
  }
  std::sort(state->reports.begin(), state->reports.end(), fold_before);
  consumer_states_[consumer_index] = std::move(state);
}

void ServePipeline::settle(const ExchangeRecord& rec, ConsumerState* state) {
  PipelineStats& t = state->tally;
  if (config_.clock != nullptr && rec.enqueued_ns != 0) {
    const std::int64_t now_ns =
        (config_.clock->now() - kTimeZero).count();
    const std::int64_t lat = now_ns - rec.enqueued_ns;
    t.settle_latency.observe(lat < 0 ? 0 : static_cast<std::uint64_t>(lat));
  }

  // Both kinds must name a configured cycle and carry a non-negative gap;
  // anything else is malformed and counted as rejected, never folded.
  if (rec.cycle >= config_.cycles || rec.delivered_dl > rec.charged_dl) {
    ++t.rejected;
    return;
  }
  if (rec.kind == RecordKind::kCellReport) {
    state->reports.push_back(CellReport{rec.cycle, rec.cell, rec.charged_dl,
                                        rec.delivered_dl});
    ++t.cell_reports;
    ++t.settled;
    return;
  }

  // Settlement recomputation check (the live analogue of the batch
  // verifier's Algorithm 2 re-derivation): the record carries both raw
  // views and the bills someone claims they settle to — accept only if the
  // bills recompute from the views under this pipeline's loss_weight.
  const std::uint64_t gap = rec.charged_dl - rec.delivered_dl;
  std::uint64_t cause_sum = 0;
  for (std::uint64_t bytes : rec.gap_by_cause) cause_sum += bytes;
  if (cause_sum != gap || rec.billed_legacy != rec.charged_dl ||
      rec.billed_tlc != epc::tlc_bill(rec.charged_dl, rec.delivered_dl,
                                      config_.loss_weight)) {
    ++t.rejected;
    return;
  }

  PipelineCycleRow& row = t.cycle_rows[rec.cycle];
  row.charged_dl += rec.charged_dl;
  row.delivered_dl += rec.delivered_dl;
  row.gap_dl += gap;
  row.billed_legacy += rec.billed_legacy;
  row.billed_tlc += rec.billed_tlc;
  row.charged_ul += rec.charged_ul;
  ++row.settled_devices;

  t.gap_disconnect +=
      rec.gap_by_cause[static_cast<std::size_t>(GapCause::kDisconnect)];
  t.gap_radio += rec.gap_by_cause[static_cast<std::size_t>(GapCause::kRadio)];
  t.gap_handover +=
      rec.gap_by_cause[static_cast<std::size_t>(GapCause::kHandover)];
  t.bursts += rec.bursts;
  t.reconnects += rec.reconnects;
  ++t.settled;
}

void ServePipeline::drain() {
  if (drained_) return;
  drained_ = true;

  queue_.close();
  for (std::thread& t : consumers_) t.join();
  consumers_.clear();
  assert(queue_.size() == 0);

  stats_.ingested = ingested_.load(std::memory_order_relaxed);
  stats_.cycle_rows.resize(config_.cycles);
  for (const auto& state : consumer_states_) {
    const PipelineStats& t = state->tally;
    stats_.settled += t.settled;
    stats_.rejected += t.rejected;
    stats_.cell_reports += t.cell_reports;
    stats_.bursts += t.bursts;
    stats_.reconnects += t.reconnects;
    stats_.gap_disconnect += t.gap_disconnect;
    stats_.gap_radio += t.gap_radio;
    stats_.gap_handover += t.gap_handover;
    for (std::size_t c = 0; c < t.cycle_rows.size(); ++c) {
      add_row(stats_.cycle_rows[c], t.cycle_rows[c]);
    }
    stats_.settle_latency.merge_from(t.settle_latency);
  }

  for (const PipelineCycleRow& row : stats_.cycle_rows) {
    stats_.charged_dl += row.charged_dl;
    stats_.delivered_dl += row.delivered_dl;
    stats_.gap_dl += row.gap_dl;
    stats_.billed_legacy += row.billed_legacy;
    stats_.billed_tlc += row.billed_tlc;
    stats_.charged_ul += row.charged_ul;
  }

  // OFCS fold: a k-way merge over the consumers' (cycle, cell)-sorted
  // report runs, through the same epc::OfcsFold the batch runner uses —
  // no merged copy of the reports is ever built.
  std::vector<std::size_t> next(consumer_states_.size(), 0);
  epc::OfcsFold fold;
  for (;;) {
    const CellReport* min = nullptr;
    std::size_t from = 0;
    for (std::size_t k = 0; k < consumer_states_.size(); ++k) {
      const std::deque<CellReport>& run = consumer_states_[k]->reports;
      if (next[k] < run.size() &&
          (min == nullptr || fold_before(run[next[k]], *min))) {
        min = &run[next[k]];
        from = k;
      }
    }
    if (min == nullptr) break;
    ++next[from];
    fold.add(min->cycle, min->cell, min->charged_dl, min->delivered_dl);
  }
  stats_.ofcs_chain = fold.chain;
  stats_.flagged_reports = fold.flagged;
}

void ServePipeline::publish(obs::MetricsRegistry* registry) const {
  assert(drained_ && "publish() reads drained stats");
  registry->counter("serve.ingested").inc(stats_.ingested);
  registry->counter("serve.settled").inc(stats_.settled);
  registry->counter("serve.rejected").inc(stats_.rejected);
  registry->counter("serve.cell_reports").inc(stats_.cell_reports);
  registry->counter("serve.bursts").inc(stats_.bursts);
  registry->counter("serve.reconnects").inc(stats_.reconnects);
  registry->counter("serve.charged_dl_bytes").inc(stats_.charged_dl);
  registry->counter("serve.delivered_dl_bytes").inc(stats_.delivered_dl);
  registry->counter("serve.gap_dl_bytes").inc(stats_.gap_dl);
  registry->counter("serve.billed_legacy_bytes").inc(stats_.billed_legacy);
  registry->counter("serve.billed_tlc_bytes").inc(stats_.billed_tlc);
  registry->counter("serve.charged_ul_bytes").inc(stats_.charged_ul);
  registry->counter("serve.gap_disconnect_bytes").inc(stats_.gap_disconnect);
  registry->counter("serve.gap_radio_bytes").inc(stats_.gap_radio);
  registry->counter("serve.gap_handover_bytes").inc(stats_.gap_handover);
  registry->counter("serve.flagged_reports").inc(stats_.flagged_reports);
  registry->log_histogram("serve.settle_latency_ns")
      .merge_from(stats_.settle_latency);
}

}  // namespace tlc::serve
