// receipt-log: the durable receipt archive, writes beside reads.
//
// Set-up: RSA-1024 keys, generated once outside the timed set-up, and a
// pool of negotiated PoCs.
//
// Timed, pass after pass on one thread: the write phase appends the pool
// into a fresh BatchedReceiptStore file (batch signing, frame encoding and
// the file write); the read phase reopens the file and runs load_all() and
// audit() with a fresh BatchedVerifier. The file is removed after the pass.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "pocs.hpp"
#include "tlc/receipt_store.hpp"
#include "tlc/verifier.hpp"

namespace perfbench {
namespace {

using namespace tlc;

constexpr std::uint32_t kCycles = 2;
const std::vector<std::uint32_t> kCellDevices = {128, 96, 160, 64};

struct Input {
  const Parties* parties = nullptr;
  std::vector<Claim> claims;
  std::vector<core::PocMsg> pocs;
  std::vector<ByteVec> encoded;  // what load_all() must give back
  std::uint64_t volume = 0;      // Σ charged over the pool
};

Input build_input(const Options& opt, const Parties& parties,
                  Result& result) {
  Input in;
  in.parties = &parties;
  SplitMix rng{opt.seed};
  in.claims = draw_claims(rng, kCellDevices, kCycles);
  in.pocs = negotiate(parties, in.claims, rng, result);
  for (const core::PocMsg& poc : in.pocs) {
    in.encoded.push_back(poc.encode());
    in.volume += poc.charged.count();
  }
  return in;
}

struct Totals {
  std::uint64_t receipts = 0;
  std::uint64_t bytes = 0;
  std::int64_t write_ns = 0;
  std::int64_t reopen_ns = 0;
  std::int64_t load_ns = 0;
  std::int64_t audit_ns = 0;
  std::int64_t wall_ns = 0;  // the whole loop; a traced run's busy time
  Usage usage;
  [[nodiscard]] std::int64_t read_ns() const {
    return reopen_ns + load_ns + audit_ns;
  }
};

/// One write-then-read pass over a fresh archive file.
void pass(const Input& in, const std::string& path, const Options& opt,
          std::uint32_t group, Tracer& tracer, Totals& t, Result& result) {
  const std::size_t n = in.pocs.size();
  result.attempt(n);
  std::int64_t t0 = now_ns();
  {
    Scope root{tracer, "svc.write", Layer::kSvc, group};
    Scope s{tracer, "tlc.log_append", Layer::kTlc, group, root.id()};
    core::BatchedReceiptStore store{path, in.parties->op,
                                    core::PartyRole::kCellularOperator};
    for (std::size_t i = 0; i < n; ++i) {
      store.append(in.pocs[i], in.claims[i].cycle);
      if (i + 1 == n || in.claims[i + 1].cell != in.claims[i].cell) {
        store.end_cycle();
      }
    }
    store.flush();
  }
  std::int64_t t1 = now_ns();
  t.write_ns += t1 - t0;
  t.bytes += std::filesystem::file_size(path);
  if (opt.inject == "truncated-archive") {
    std::filesystem::resize_file(path, std::filesystem::file_size(path) - 100);
  }

  try {
    std::vector<core::ReceiptBatch> batches;
    core::BatchedReceiptStore::BatchAuditReport audit;
    {
      Scope root{tracer, "svc.read", Layer::kSvc, group};
      t0 = now_ns();
      std::unique_ptr<core::BatchedReceiptStore> store;
      {
        Scope s{tracer, "tlc.log_reopen", Layer::kTlc, group, root.id()};
        store = std::make_unique<core::BatchedReceiptStore>(
            path, in.parties->op, core::PartyRole::kCellularOperator);
      }
      t1 = now_ns();
      {
        Scope s{tracer, "tlc.log_load", Layer::kTlc, group, root.id()};
        batches = store->load_all();
      }
      const std::int64_t t2 = now_ns();
      {
        Scope s{tracer, "tlc.log_audit", Layer::kTlc, group, root.id()};
        core::BatchedVerifier verifier{in.parties->edge.public_key(),
                                       in.parties->op.public_key(),
                                       receipt_plan()};
        audit = store->audit(verifier);
      }
      const std::int64_t t3 = now_ns();
      t.reopen_ns += t1 - t0;
      t.load_ns += t2 - t1;
      t.audit_ns += t3 - t2;
    }

    std::size_t i = 0;
    std::uint64_t mismatched = 0;
    for (const core::ReceiptBatch& b : batches) {
      for (const core::BatchEntry& e : b.entries) {
        if (i >= n || e.poc != in.encoded[i]) ++mismatched;
        ++i;
      }
    }
    result.expect_eq("receipts loaded", i, n, i > n ? i - n : n - i);
    result.expect_eq("loaded receipts differing from those appended",
                     mismatched, 0, mismatched);
    result.expect_eq("heads rejected by the audit", audit.heads_rejected, 0);
    result.expect_eq("receipts accepted by the audit",
                     audit.receipts.accepted, n,
                     n - std::min<std::uint64_t>(audit.receipts.accepted, n));
    result.expect_eq("audited volume",
                     audit.receipts.total_verified_volume.count(), in.volume);
  } catch (const std::exception& e) {
    result.fail(n, std::string{"archive unreadable: "} + e.what());
  }
  std::filesystem::remove(path);
  t.receipts += n;
}

Totals run_passes(const Input& in, const Options& opt, double seconds,
                  Tracer& tracer, Result& result) {
  const std::string path = opt.out_dir + "/receipt-log-" +
                           std::to_string(getpid()) + ".tlcb";
  std::filesystem::remove(path);
  Totals t;
  const Usage u0 = Usage::now();
  const std::int64_t t0 = now_ns();
  const auto end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::uint32_t group = 0;
  do {
    pass(in, path, opt, group++, tracer, t, result);
  } while (now_ns() < end);
  t.wall_ns = now_ns() - t0;
  t.usage = Usage::now() - u0;
  return t;
}

}  // namespace

void run_receipt_log(const Options& opt, Result& result) {
  const std::int64_t k0 = now_ns();
  const Parties parties = make_parties();
  result.metric("crypto.keygen_ms", static_cast<double>(now_ns() - k0) * 1e-6,
                "ms");
  Input in;
  timed_setup(result, [&] { in = build_input(opt, parties, result); });
  if (result.failed() > 0) return;

  Tracer off{false};
  const double share = opt.trace ? 0.5 : 1.0;
  const Totals t = run_passes(in, opt, opt.seconds * share, off, result);
  const auto receipts = static_cast<double>(t.receipts);
  result.metric("settled_per_s",
                receipts / (static_cast<double>(t.write_ns + t.read_ns()) * 1e-9),
                "1/s");
  result.metric("settled_per_cpu_s", receipts / t.usage.cpu_s(), "1/cpu_s");
  result.metric("archived_per_s",
                receipts / (static_cast<double>(t.write_ns) * 1e-9), "1/s");
  result.metric("audited_per_s",
                receipts / (static_cast<double>(t.read_ns()) * 1e-9), "1/s");
  result.metric("tlc.log_append_ns_per_receipt",
                static_cast<double>(t.write_ns) / receipts, "ns");
  result.metric("tlc.log_reopen_ns_per_receipt",
                static_cast<double>(t.reopen_ns) / receipts, "ns");
  result.metric("tlc.log_load_ns_per_receipt",
                static_cast<double>(t.load_ns) / receipts, "ns");
  result.metric("tlc.log_audit_ns_per_receipt",
                static_cast<double>(t.audit_ns) / receipts, "ns");
  result.metric("tlc.log_bytes_per_receipt",
                static_cast<double>(t.bytes) / receipts, "B");
  report_usage(t.usage, result);
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");
  if (!opt.trace) return;

  Tracer tracer{true};
  const Totals tt = run_passes(in, opt, opt.seconds * share, tracer, result);
  result.metric("trace.overhead_ratio",
                (static_cast<double>(tt.receipts) /
                 static_cast<double>(tt.write_ns + tt.read_ns())) /
                    (receipts / static_cast<double>(t.write_ns + t.read_ns())),
                "ratio");
  report_breakdown(tracer, tt.wall_ns, result);
  tracer.write_jsonl(opt.out_dir + "/spans-receipt-log.jsonl");
}

}  // namespace perfbench
