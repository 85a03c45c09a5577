#include "settle.hpp"

#include <string>

namespace perfbench {

using namespace tlc;

void check_settled(const SettleReference& ref, std::uint64_t passes,
                   const serve::PipelineStats& st, Result& result) {
  const auto off_by = [](std::uint64_t a, std::uint64_t b) {
    return a > b ? a - b : b - a;
  };
  const std::uint64_t settled =
      passes * (ref.settlements + ref.reports.size());
  const std::uint64_t rejected = passes * ref.rejected;
  result.expect_eq("records settled", st.settled, settled,
                   off_by(st.settled, settled));
  result.expect_eq("records rejected", st.rejected, rejected,
                   off_by(st.rejected, rejected));
  result.expect_eq("records ingested", st.ingested, settled + rejected);
  for (std::size_t c = 0; c < ref.rows.size(); ++c) {
    const serve::PipelineCycleRow& got = st.cycle_rows[c];
    const serve::PipelineCycleRow& want = ref.rows[c];
    const std::string row = "cycle " + std::to_string(c) + " ";
    result.expect_eq(row + "charged_dl", got.charged_dl,
                     passes * want.charged_dl);
    result.expect_eq(row + "delivered_dl", got.delivered_dl,
                     passes * want.delivered_dl);
    result.expect_eq(row + "gap_dl", got.gap_dl, passes * want.gap_dl);
    result.expect_eq(row + "billed_legacy", got.billed_legacy,
                     passes * want.billed_legacy);
    result.expect_eq(row + "billed_tlc", got.billed_tlc,
                     passes * want.billed_tlc);
    result.expect_eq(row + "charged_ul", got.charged_ul,
                     passes * want.charged_ul);
    result.expect_eq(row + "settled_devices", got.settled_devices,
                     passes * want.settled_devices);
  }
  const std::uint64_t gaps[] = {st.gap_disconnect, st.gap_radio,
                                st.gap_handover};
  for (std::size_t c = 0; c < serve::kGapCauseCount; ++c) {
    result.expect_eq(std::string{"gap "} +
                         serve::to_string(static_cast<serve::GapCause>(c)),
                     gaps[c], passes * ref.gap_by_cause[c]);
  }
  // The fold sorts by (cycle, cell), so each report's copies are adjacent.
  std::uint64_t chain = kFnvBasis;
  for (const serve::ExchangeRecord& r : ref.reports) {
    for (std::uint64_t i = 0; i < passes; ++i) {
      chain = fnv_word(chain, r.cycle);
      chain = fnv_word(chain, r.cell);
      chain = fnv_word(chain, r.charged_dl);
      chain = fnv_word(chain, r.delivered_dl);
    }
  }
  result.expect_eq("OFCS chain", st.ofcs_chain, chain);
}

void report_serve(const ServeProbe& probe, std::int64_t submit_span_ns,
                  const serve::PipelineStats& st, Result& result) {
  const auto us = [](std::uint64_t ns) { return static_cast<double>(ns) * 1e-3; };
  result.metric("serve.submit_ns_per_record",
                static_cast<double>(submit_span_ns) /
                    static_cast<double>(probe.records),
                "ns");
  result.metric("serve.submit_p99_ns", percentile(probe.submit_ns, 0.99),
                "ns");
  result.metric("serve.drain_ms", probe.drain_ms, "ms");
  result.metric("serve.store_depth_max", static_cast<double>(probe.depth_max),
                "count");
  result.metric("serve.settle_lag_p50_us", us(st.settle_latency.quantile(0.5)),
                "us");
  result.metric("serve.settle_lag_p99_us",
                us(st.settle_latency.quantile(0.99)), "us");
  result.metric("serve.ingested", static_cast<double>(st.ingested), "count");
  result.metric("serve.settled", static_cast<double>(st.settled), "count");
  result.metric("serve.rejected", static_cast<double>(st.rejected), "count");
}

}  // namespace perfbench
