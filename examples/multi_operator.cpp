// Multi-access edge charging (§8): a V2X-style edge deployment bonds two
// operators' networks for coverage. The edge vendor classifies traffic by
// operator, runs an independent TLC negotiation with each, and holds one
// dual-signed receipt per operator per cycle — archived in one receipt
// store for later audits.
#include <cstdio>

#include "common/format.hpp"
#include "tlc/multi.hpp"
#include "tlc/receipt_store.hpp"

using namespace tlc;
using namespace tlc::core;

namespace {

/// Operator-side counterpart for the demo.
PocMsg settle_with(MultiOperatorSession& session, const std::string& name,
                   const crypto::KeyPair& op_keys,
                   const crypto::KeyPair& edge_keys,
                   const charging::DataPlan& plan, LocalView op_view) {
  const auto op_strategy = make_optimal_operator();
  ProtocolParty::Config cfg;
  cfg.role = PartyRole::kCellularOperator;
  cfg.plan = plan;
  cfg.cycle = plan.cycle_at(kTimeZero);
  cfg.view = op_view;
  ProtocolParty op{cfg, *op_strategy, op_keys, edge_keys.public_key(),
                   Rng{17}};
  ProtocolParty edge = session.make_party(name);
  run_exchange(edge, op);
  session.record_settlement(name, edge);
  return *edge.poc();
}

}  // namespace

int main() {
  std::printf("=== Multi-operator edge charging (V2X bonding) ===\n\n");

  charging::DataPlan plan;
  plan.loss_weight = 0.5;
  plan.cycle_length = std::chrono::hours{1};

  const auto edge_keys =
      crypto::KeyPair::generate(crypto::KeyStrength::kRsa1024);
  const auto op_a_keys =
      crypto::KeyPair::generate(crypto::KeyStrength::kRsa1024);
  const auto op_b_keys =
      crypto::KeyPair::generate(crypto::KeyStrength::kRsa1024);

  MultiOperatorSession session{edge_keys, Rng{1}};
  session.add_operator({"CarrierNorth", plan, op_a_keys.public_key()});
  session.add_operator({"CarrierSouth", plan, op_b_keys.public_key()});

  // This cycle, the vehicle pushed 600 MB via CarrierNorth (urban) and
  // 200 MB via CarrierSouth (highway stretch), with per-path losses.
  const LocalView via_north{Bytes{600'000'000}, Bytes{561'000'000}};
  const LocalView via_south{Bytes{200'000'000}, Bytes{193'000'000}};
  session.set_cycle_view("CarrierNorth", plan.cycle_at(kTimeZero), via_north,
                         charging::Direction::kUplink);
  session.set_cycle_view("CarrierSouth", plan.cycle_at(kTimeZero), via_south,
                         charging::Direction::kUplink);

  const std::filesystem::path archive =
      std::filesystem::temp_directory_path() / "multi_operator_receipts.bin";
  std::filesystem::remove(archive);
  // Batch size 1: each receipt is on disk as soon as it is appended.
  BatchedReceiptStore store{archive, edge_keys, PartyRole::kEdgeVendor,
                            FlushPolicy{1, false}};
  const std::uint64_t cycle = plan.cycle_at(kTimeZero).index;
  store.append(settle_with(session, "CarrierNorth", op_a_keys, edge_keys,
                           plan, via_north),
               cycle);
  store.append(settle_with(session, "CarrierSouth", op_b_keys, edge_keys,
                           plan, via_south),
               cycle);

  for (const auto& s : session.settlements()) {
    std::printf("%-13s charged %s in %d round(s), PoC %zu bytes\n",
                s.operator_name.c_str(), format_bytes(s.charged).c_str(),
                s.rounds, s.poc->encode().size());
  }
  std::printf("total across operators: %s\n\n",
              format_bytes(session.total_charged()).c_str());

  // Months later, each operator's receipts are audited independently —
  // CarrierNorth's verifier accepts only its own receipt. The edge signed
  // every batch head, so the head check alone would pass CarrierSouth's
  // receipt too: each entry gets the full Algorithm 2, whose CDR/CDA
  // signature checks reject a receipt negotiated under another key.
  const BatchedVerifier north_audit{edge_keys.public_key(),
                                    op_a_keys.public_key(), plan};
  AuditReport report;
  for (const ReceiptBatch& batch : store.load_all()) {
    for (std::size_t i = 0; i < batch.entries.size(); ++i) {
      VerifiedCharge charge;
      const VerifyResult result = north_audit.audit_entry(batch, i, &charge);
      ++report.total;
      if (result == VerifyResult::kOk) {
        ++report.accepted;
        report.total_verified_volume += charge.charged;
      } else {
        ++report.rejected;
      }
    }
  }
  std::printf("CarrierNorth audit over the shared archive: %llu receipts, "
              "%llu verified (its own), %llu foreign/rejected\n",
              static_cast<unsigned long long>(report.total),
              static_cast<unsigned long long>(report.accepted),
              static_cast<unsigned long long>(report.rejected));
  std::printf("verified volume attributable to CarrierNorth: %s\n",
              format_bytes(report.total_verified_volume).c_str());

  std::filesystem::remove(archive);
  return 0;
}
