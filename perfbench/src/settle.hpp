// What the two ServePipeline workloads share: the phase that drives a fresh
// pipeline, the reference a drained pipeline is checked against, and the
// serve-layer metrics of a traced phase.
#pragma once

#include <cstdint>
#include <vector>

#include "harness.hpp"
#include "serve/pipeline.hpp"
#include "sim/clock_source.hpp"

namespace perfbench {

inline constexpr std::size_t kConsumers = 2;

/// One pass's expected settlement outcome, derived from the generated
/// inputs alone.
struct SettleReference {
  std::uint64_t settlements = 0;  // records the settle stage must accept
  std::uint64_t rejected = 0;     // records it must reject
  std::vector<tlc::serve::PipelineCycleRow> rows;  // per cycle
  std::uint64_t gap_by_cause[tlc::serve::kGapCauseCount] = {0, 0, 0};
  /// Cell reports in (cycle, cell) order, the order of the OFCS fold.
  std::vector<tlc::serve::ExchangeRecord> reports;
};

/// Checks drained pipeline stats against `passes` copies of `ref`: record
/// counts, per-cycle rows, per-cause gaps and the OFCS chain. A miscount fails as many
/// operations as it is off by, a wrong aggregate fails one.
void check_settled(const SettleReference& ref, std::uint64_t passes,
                   const tlc::serve::PipelineStats& st, Result& result);

/// What a traced phase records about the serve layer besides its spans.
struct ServeProbe {
  std::uint64_t records = 0;      // records submitted
  std::vector<double> submit_ns;  // one submit in kSubmitSample, timed alone
  std::size_t depth_max = 0;      // store depth sampled by the producer
  double drain_ms = 0;

  /// Submits `rec`; in a traced phase, times one call in kSubmitSample.
  template <typename Handle>
  void submit(bool traced, tlc::serve::ServePipeline& pipeline,
              Handle& handle, const tlc::serve::ExchangeRecord& rec) {
    ++records;
    if (!traced || records % kSubmitSample != 0) {
      pipeline.submit(handle, rec);
      return;
    }
    const std::int64_t t0 = now_ns();
    pipeline.submit(handle, rec);
    submit_ns.push_back(static_cast<double>(now_ns() - t0));
    if (pipeline.store_depth() > depth_max) depth_max = pipeline.store_depth();
  }
};

/// One phase of a workload against a fresh pipeline, drain included.
struct Phase {
  std::int64_t wall_ns = 0;  // drain included; a traced phase's busy time
  std::uint64_t passes = 0;
  Usage usage;
  tlc::serve::PipelineStats stats;
  ServeProbe probe;
  [[nodiscard]] double seconds() const {
    return static_cast<double>(wall_ns) * 1e-9;
  }
};

/// Runs `loop(submit, group)` against a fresh kConsumers-consumer pipeline
/// from one producer, then drains it and checks the outcome against
/// `passes` copies of `ref`. The loop submits records with `submit(rec)`,
/// numbers its span groups from `group` on, and returns the passes it
/// made. A traced phase also stamps settle lag.
template <typename Loop>
Phase run_phase(const SettleReference& ref, std::uint32_t cycles,
                double loss_weight, Tracer& tracer, Result& result,
                Loop&& loop) {
  const bool traced = tracer.enabled();
  tlc::sim::WallClockSource wall;
  tlc::serve::PipelineConfig cfg;
  cfg.consumers = kConsumers;
  cfg.cycles = cycles;
  cfg.loss_weight = loss_weight;
  cfg.clock = traced ? &wall : nullptr;
  tlc::serve::ServePipeline pipeline{cfg};
  auto handle = pipeline.register_producer();
  Phase out;
  auto submit = [&](const tlc::serve::ExchangeRecord& rec) {
    out.probe.submit(traced, pipeline, handle, rec);
  };
  std::uint32_t group = 0;
  const Usage u0 = Usage::now();
  const std::int64_t t0 = now_ns();
  out.passes = loop(submit, group);
  const std::int64_t td = now_ns();
  {
    Scope s{tracer, "serve.drain", Layer::kServe, group};
    pipeline.drain();
  }
  const std::int64_t t1 = now_ns();
  out.usage = Usage::now() - u0;
  out.wall_ns = t1 - t0;
  out.probe.drain_ms = static_cast<double>(t1 - td) * 1e-6;
  out.stats = pipeline.stats();
  check_settled(ref, out.passes, out.stats, result);
  return out;
}

/// Publishes the serve.* metrics of a traced phase; `submit_span_ns` is the
/// summed duration of the spans around its submits.
void report_serve(const ServeProbe& probe, std::int64_t submit_span_ns,
                  const tlc::serve::PipelineStats& st, Result& result);

}  // namespace perfbench
