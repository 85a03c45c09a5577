// signed-settle: the headline path. Signed, hash-chained batch frames go
// as bytes through wire decode, BatchedVerifier::verify_batch and a
// 2-consumer ServePipeline to the OFCS chain.
//
// Set-up: two RSA-1024 key pairs, generated once outside the timed set-up
// because key generation's run time varies too much to time. Then, per
// set-up: one PoC per device and cycle negotiated with the real exchange;
// per-cell BatchBuilder chains under the default FlushPolicy (64 per batch,
// cycle-end partial batches); 1 in 16 batches gets one tampered receipt
// payload byte so the reject path runs.
//
// Timed: one service thread replays the frame pool pass after pass, with
// a fresh verifier per chain per pass, submitting one ExchangeRecord per
// accepted receipt and one report per (cycle, cell) at the end of a pass.
// Phase 1 is saturated; phase 2 is open-loop Poisson at a fixed rate.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "harness.hpp"
#include "pocs.hpp"
#include "settle.hpp"
#include "tlc/batch.hpp"
#include "tlc/verifier.hpp"
#include "wire/batch_frame.hpp"

namespace perfbench {
namespace {

using namespace tlc;

constexpr std::uint32_t kCycles = 2;
/// Devices per cell: a mix of full and partial 64-receipt batches.
const std::vector<std::uint32_t> kCellDevices = {100, 80, 130, 64,
                                                 150, 90, 110, 76};
constexpr std::size_t kTamperEvery = 16;
/// Most of the service thread's busy time that no layer span may cover.
constexpr double kMaxUnattributed = 0.05;
/// Phase 2 arrival rate: about half the saturated frame rate measured on a
/// 4-vCPU x86-64 KVM guest (Release build) at the commit that added this
/// benchmark. Fixed, so a faster service shows as lower latency.
constexpr double kOpenLoopFramesPerS = 1600.0;

struct Frame {
  std::uint32_t cell = 0;
  std::uint32_t count = 0;
  std::int32_t tampered = -1;  // entry index the reference expects rejected
  ByteVec bytes;
};

struct Input {
  const Parties* parties = nullptr;
  std::vector<Frame> frames;
  /// Falsification hook: work per frame that no layer span covers.
  std::int64_t untraced_work_ns = 0;
  SettleReference ref;
  double negotiate_us_per_receipt = 0;
  double batch_build_us_per_batch = 0;
  double encode_ns_per_receipt = 0;
};

/// The settle stage's bill rule (serve/pipeline.cpp): delivered + ⌊c·gap⌋.
std::uint64_t tlc_bill(std::uint64_t charged, std::uint64_t delivered) {
  return delivered +
         static_cast<std::uint64_t>(0.5 * static_cast<double>(charged -
                                                              delivered));
}

/// Cell reports for every (cycle, cell), zeroed, in OFCS fold order.
std::vector<serve::ExchangeRecord> empty_reports() {
  std::vector<serve::ExchangeRecord> reports;
  for (std::uint32_t cycle = 0; cycle < kCycles; ++cycle) {
    for (std::uint32_t cell = 0; cell < kCellDevices.size(); ++cell) {
      serve::ExchangeRecord r;
      r.kind = serve::RecordKind::kCellReport;
      r.cycle = cycle;
      r.cell = cell;
      reports.push_back(r);
    }
  }
  return reports;
}

serve::ExchangeRecord& report_of(std::vector<serve::ExchangeRecord>& reports,
                                 std::uint32_t cycle, std::uint32_t cell) {
  return reports[cycle * kCellDevices.size() + cell];
}

Input build_input(const Options& opt, const Parties& parties,
                  Result& result) {
  Input in;
  in.parties = &parties;
  if (opt.inject == "untraced-work") in.untraced_work_ns = 100'000;
  SplitMix rng{opt.seed};
  const std::vector<Claim> claims = draw_claims(rng, kCellDevices, kCycles);
  std::int64_t t = now_ns();
  const std::vector<core::PocMsg> pocs =
      negotiate(parties, claims, rng, result);
  in.negotiate_us_per_receipt = static_cast<double>(now_ns() - t) * 1e-3 /
                                static_cast<double>(claims.size());
  if (pocs.size() != claims.size()) return in;

  // Claims are cycle-major, so each cell's receipts of a cycle are
  // contiguous: append them, then end the cycle to close its partial batch.
  struct Built {
    std::uint32_t cell;
    std::size_t first_claim;
    core::ReceiptBatch batch;
  };
  std::vector<Built> built;
  std::vector<core::BatchBuilder> builders;
  for (std::size_t k = 0; k < kCellDevices.size(); ++k) {
    builders.emplace_back(parties.op, core::PartyRole::kCellularOperator);
  }
  t = now_ns();
  std::size_t first = 0;
  for (std::size_t i = 0; i < claims.size(); ++i) {
    const Claim& c = claims[i];
    core::BatchBuilder& builder = builders[c.cell];
    if (auto b = builder.append(pocs[i], c.cycle)) {
      built.push_back({c.cell, first, std::move(*b)});
      first = i + 1;
    }
    if (i + 1 == claims.size() || claims[i + 1].cell != c.cell) {
      if (auto b = builder.end_cycle()) {
        built.push_back({c.cell, first, std::move(*b)});
      }
      first = i + 1;
    }
  }
  in.batch_build_us_per_batch = static_cast<double>(now_ns() - t) * 1e-3 /
                                static_cast<double>(built.size());

  // Exactly ⌊batches / 16⌋ batches, chosen by the seed, carry one flipped
  // payload byte; "extra-tamper" flips one more behind the reference's back.
  std::vector<std::size_t> order(built.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const std::size_t tampered = built.size() / kTamperEvery;
  const std::size_t flips = tampered + (opt.inject == "extra-tamper" ? 1 : 0);
  for (std::size_t i = 0; i < flips; ++i) {
    std::swap(order[i], order[i + rng.below(order.size() - i)]);
  }
  std::vector<std::int32_t> tampered_entry(built.size(), -1);
  for (std::size_t i = 0; i < flips; ++i) {
    core::ReceiptBatch& batch = built[order[i]].batch;
    const std::size_t entry = rng.below(batch.entries.size());
    ByteVec& poc = batch.entries[entry].poc;
    poc[rng.below(poc.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    if (i < tampered) tampered_entry[order[i]] = static_cast<std::int32_t>(entry);
  }

  t = now_ns();
  for (std::size_t b = 0; b < built.size(); ++b) {
    Frame f;
    f.cell = built[b].cell;
    f.count = static_cast<std::uint32_t>(built[b].batch.entries.size());
    f.tampered = tampered_entry[b];
    f.bytes = wire::encode_batch_frame(core::to_batch_frame(
        built[b].batch, wire::FrameHeader{b + 1, 0, 0}));
    in.frames.push_back(std::move(f));
  }
  in.encode_ns_per_receipt = static_cast<double>(now_ns() - t) /
                             static_cast<double>(claims.size());

  in.ref.rows.resize(kCycles);
  in.ref.reports = empty_reports();
  for (std::size_t b = 0; b < built.size(); ++b) {
    for (std::size_t e = 0; e < built[b].batch.entries.size(); ++e) {
      if (static_cast<std::int32_t>(e) == tampered_entry[b]) continue;
      const Claim& c = claims[built[b].first_claim + e];
      serve::PipelineCycleRow& row = in.ref.rows[c.cycle];
      row.charged_dl += c.charged;
      row.delivered_dl += c.delivered;
      row.gap_dl += c.charged - c.delivered;
      row.billed_legacy += c.charged;
      row.billed_tlc += tlc_bill(c.charged, c.delivered);
      row.settled_devices += 1;
      in.ref.gap_by_cause[static_cast<std::size_t>(serve::GapCause::kRadio)] +=
          c.charged - c.delivered;
      serve::ExchangeRecord& rep = report_of(in.ref.reports, c.cycle, c.cell);
      rep.charged_dl += c.charged;
      rep.delivered_dl += c.delivered;
      ++in.ref.settlements;
    }
  }
  return in;
}

/// Per-phase tallies of the service loop.
struct Counts {
  std::uint64_t offered = 0;  // receipts in the frames processed
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t heads_rejected = 0;
  std::uint64_t passes = 0;
  std::uint64_t rounding_mismatches = 0;
};

/// The service loop: decode, verify, submit.
class Service {
 public:
  Service(const Input& in, Tracer& tracer) : in_(in), tracer_(tracer) {}

  Counts counts;

  void begin_pass(std::uint32_t group) {
    Scope root{tracer_, "svc.pass", Layer::kSvc, group};
    Scope s{tracer_, "tlc.verifier_init", Layer::kTlc, group, root.id()};
    verifiers_.clear();
    for (std::size_t k = 0; k < kCellDevices.size(); ++k) {
      verifiers_.emplace_back(in_.parties->edge.public_key(),
                              in_.parties->op.public_key(), receipt_plan());
    }
    reports_ = empty_reports();
  }

  template <typename Submit>
  void process(const Frame& frame, std::uint32_t group, Submit& submit,
               Result& result) {
    Scope root{tracer_, "svc.frame", Layer::kSvc, group};
    core::ReceiptBatch batch;
    {
      Scope s{tracer_, "wire.decode", Layer::kWire, group, root.id()};
      batch = core::from_batch_frame(wire::decode_batch_frame(frame.bytes));
    }
    core::BatchAudit audit;
    charges_.clear();
    {
      Scope s{tracer_, "tlc.verify", Layer::kTlc, group, root.id()};
      audit = verifiers_[frame.cell].verify_batch(batch, &charges_);
    }
    counts.offered += frame.count;
    if (audit.head != core::BatchVerifyResult::kOk) {
      ++counts.heads_rejected;
      result.fail(frame.count, std::string{"batch head rejected: "} +
                                   core::to_string(audit.head));
      return;
    }
    for (std::size_t e = 0; e < audit.receipts.size(); ++e) {
      const bool ok = audit.receipts[e] == core::VerifyResult::kOk;
      const bool genuine = static_cast<std::int32_t>(e) != frame.tampered;
      ok ? ++counts.accepted : ++counts.rejected;
      if (ok != genuine) {
        result.fail(1, std::string{genuine ? "genuine receipt not settled: "
                                           : "tampered receipt settled: "} +
                           core::to_string(audit.receipts[e]));
      }
    }
    const std::int64_t spin_until = now_ns() + in_.untraced_work_ns;
    while (now_ns() < spin_until) {
    }
    records_.clear();
    for (const core::VerifiedCharge& charge : charges_) {
      serve::ExchangeRecord rec;
      rec.device = static_cast<std::uint32_t>(next_device_++);
      rec.cell = frame.cell;
      rec.cycle = static_cast<std::uint32_t>(charge.cycle_index);
      rec.charged_dl = charge.operator_claim.count();
      rec.delivered_dl = charge.edge_claim.count();
      // A PoC carries no loss cause; the whole gap is booked as radio.
      rec.gap_by_cause[static_cast<std::size_t>(serve::GapCause::kRadio)] =
          rec.charged_dl - rec.delivered_dl;
      rec.billed_legacy = rec.charged_dl;
      rec.billed_tlc = tlc_bill(rec.charged_dl, rec.delivered_dl);
      if (rec.billed_tlc != charge.charged.count()) {
        ++counts.rounding_mismatches;
      }
      serve::ExchangeRecord& rep = report_of(reports_, rec.cycle, rec.cell);
      rep.charged_dl += rec.charged_dl;
      rep.delivered_dl += rec.delivered_dl;
      records_.push_back(rec);
    }
    Scope s{tracer_, "serve.submit", Layer::kServe, group, root.id()};
    for (const serve::ExchangeRecord& rec : records_) submit(rec);
  }

  template <typename Submit>
  void end_pass(std::uint32_t group, Submit& submit) {
    Scope root{tracer_, "svc.reports", Layer::kSvc, group};
    Scope s{tracer_, "serve.submit", Layer::kServe, group, root.id()};
    for (const serve::ExchangeRecord& rep : reports_) submit(rep);
    ++counts.passes;
  }

 private:
  const Input& in_;
  Tracer& tracer_;
  std::vector<core::BatchedVerifier> verifiers_;
  std::vector<core::VerifiedCharge> charges_;
  std::vector<serve::ExchangeRecord> records_;
  std::vector<serve::ExchangeRecord> reports_;
  std::uint64_t next_device_ = 0;
};

struct SignedPhase {
  Phase phase;
  Counts counts;
  // Open loop only.
  std::vector<double> latency_us;
  std::vector<double> wait_us;
  double busy_ratio = 0;
};

/// Runs `loop(svc, submit, group, out)` through run_phase with a fresh
/// Service, then checks the receipts it accepted.
template <typename Loop>
SignedPhase signed_phase(const Input& in, Tracer& tracer, Result& result,
                         Loop&& loop) {
  SignedPhase out;
  Service svc{in, tracer};
  out.phase = run_phase(in.ref, kCycles, receipt_plan().loss_weight, tracer,
                        result, [&](auto& submit, std::uint32_t& group) {
                          loop(svc, submit, group, out);
                          return svc.counts.passes;
                        });
  out.counts = svc.counts;
  const Counts& c = out.counts;
  const std::uint64_t want = c.passes * in.ref.settlements;
  result.attempt(c.offered);
  result.expect_eq("receipts accepted", c.accepted, want,
                   c.accepted > want ? c.accepted - want : want - c.accepted);
  return out;
}

/// Phase 1: each frame goes as soon as the previous one is handed off.
SignedPhase saturated(const Input& in, double seconds, Tracer& tracer,
                      Result& result) {
  return signed_phase(in, tracer, result, [&](Service& svc, auto& submit,
                                              std::uint32_t& group,
                                              SignedPhase&) {
    const auto end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    do {
      svc.begin_pass(group++);
      for (const Frame& f : in.frames) svc.process(f, group++, submit, result);
      svc.end_pass(group++, submit);
    } while (now_ns() < end);
  });
}

/// Phase 2: Poisson arrivals at kOpenLoopFramesPerS over whole passes. A
/// frame's latency runs from its due time until its last receipt has been
/// handed to the settle stage, so a stall also delays the frames queued
/// behind it.
SignedPhase open_loop(const Input& in, double seconds, std::uint64_t seed,
                      Result& result) {
  const std::size_t per_pass = in.frames.size();
  const auto passes = std::max<std::size_t>(
      1, static_cast<std::size_t>(kOpenLoopFramesPerS * seconds /
                                  static_cast<double>(per_pass)));
  std::vector<std::int64_t> due(passes * per_pass);
  SplitMix rng{seed ^ 0x6f70656e2d6c6f6fULL};
  double t = 0;
  for (std::int64_t& d : due) {
    t += -std::log(1.0 - rng.unit()) / kOpenLoopFramesPerS;
    d = static_cast<std::int64_t>(t * 1e9);
  }
  Tracer off{false};
  return signed_phase(in, off, result, [&](Service& svc, auto& submit,
                                           std::uint32_t& group,
                                           SignedPhase& out) {
    out.latency_us.reserve(due.size());
    out.wait_us.reserve(due.size());
    const std::int64_t start = now_ns() + 1'000'000;
    std::int64_t busy = 0;
    for (std::size_t i = 0; i < due.size(); ++i) {
      const std::int64_t due_at = start + due[i];
      while (now_ns() < due_at) {
      }
      const std::int64_t begin = now_ns();
      const std::size_t k = i % per_pass;
      if (k == 0) svc.begin_pass(group++);
      svc.process(in.frames[k], group++, submit, result);
      const std::int64_t done = now_ns();
      if (k + 1 == per_pass) svc.end_pass(group++, submit);
      out.latency_us.push_back(static_cast<double>(done - due_at) * 1e-3);
      out.wait_us.push_back(static_cast<double>(begin - due_at) * 1e-3);
      busy += now_ns() - begin;
    }
    out.busy_ratio =
        static_cast<double>(busy) / static_cast<double>(now_ns() - start);
  });
}

double per_s(std::uint64_t n, double seconds) {
  return static_cast<double>(n) / seconds;
}

}  // namespace

void run_signed_settle(const Options& opt, Result& result) {
  const std::int64_t k0 = now_ns();
  const Parties parties = make_parties();
  result.metric("crypto.keygen_ms", static_cast<double>(now_ns() - k0) * 1e-6,
                "ms");
  Input in;
  timed_setup(result, [&] { in = build_input(opt, parties, result); });
  result.metric("tlc.negotiate_us_per_receipt", in.negotiate_us_per_receipt,
                "us");
  result.metric("tlc.batch_build_us_per_batch", in.batch_build_us_per_batch,
                "us");
  result.metric("wire.encode_ns_per_receipt", in.encode_ns_per_receipt, "ns");
  if (result.failed() > 0 || in.frames.empty()) return;

  // Untraced, the whole run is phase 1. Traced, thirds: phase 1 untraced
  // (the base of trace.overhead_ratio), phase 1 traced, phase 2.
  const double share = opt.trace ? 1.0 / 3.0 : 1.0;
  Tracer off{false};
  const SignedPhase p1 = saturated(in, opt.seconds * share, off, result);
  const Counts& c1 = p1.counts;
  result.metric("settled_per_s", per_s(c1.accepted, p1.phase.seconds()),
                "1/s");
  result.metric("settled_per_cpu_s",
                per_s(c1.accepted, p1.phase.usage.cpu_s()), "1/cpu_s");
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report_usage(p1.phase.usage, result);
  const auto per_pass = [&](std::uint64_t n) {
    return static_cast<double>(n / c1.passes);
  };
  result.metric("tlc.receipts_accepted", per_pass(c1.accepted), "count");
  result.metric("tlc.receipts_rejected", per_pass(c1.rejected), "count");
  result.metric("tlc.heads_rejected", per_pass(c1.heads_rejected), "count");
  result.metric("svc.bill_rounding_mismatches",
                per_pass(c1.rounding_mismatches), "count");
  if (!opt.trace) return;

  Tracer tracer{true};
  const SignedPhase pt = saturated(in, opt.seconds * share, tracer, result);
  const auto receipts = static_cast<double>(pt.counts.offered);
  result.metric("trace.overhead_ratio",
                per_s(pt.counts.accepted, pt.phase.seconds()) /
                    per_s(c1.accepted, p1.phase.seconds()),
                "ratio");
  result.metric("wire.decode_ns_per_receipt",
                static_cast<double>(tracer.total_ns("wire.decode")) / receipts,
                "ns");
  result.metric("tlc.verify_ns_per_receipt",
                static_cast<double>(tracer.total_ns("tlc.verify")) / receipts,
                "ns");
  report_serve(pt.phase.probe, tracer.total_ns("serve.submit"), pt.phase.stats,
               result);
  const double unattributed =
      report_breakdown(tracer, pt.phase.wall_ns, result);
  if (!(unattributed < kMaxUnattributed)) {
    result.fail(1, "unattributed share of service time " +
                       std::to_string(unattributed) + " is not below " +
                       std::to_string(kMaxUnattributed));
  }
  tracer.write_jsonl(opt.out_dir + "/spans-signed-settle.jsonl");

  const SignedPhase p2 = open_loop(in, opt.seconds * share, opt.seed, result);
  result.metric("p50_latency_us", median(p2.latency_us), "us");
  result.metric("p99_latency_us", percentile(p2.latency_us, 0.99), "us");
  result.metric("latency_samples", static_cast<double>(p2.latency_us.size()),
                "count");
  result.metric("svc.wait_p50_us", median(p2.wait_us), "us");
  result.metric("svc.wait_p99_us", percentile(p2.wait_us, 0.99), "us");
  result.metric("svc.busy_ratio", p2.busy_ratio, "ratio");
}

}  // namespace perfbench
