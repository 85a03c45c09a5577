#include "pocs.hpp"

#include <string>

#include "charging/usage.hpp"
#include "tlc/protocol.hpp"
#include "tlc/strategy.hpp"

namespace perfbench {

using namespace tlc;

Parties make_parties() {
  return Parties{crypto::KeyPair::generate(crypto::KeyStrength::kRsa1024),
                 crypto::KeyPair::generate(crypto::KeyStrength::kRsa1024)};
}

charging::DataPlan receipt_plan() {
  charging::DataPlan plan;
  plan.loss_weight = 0.5;
  plan.cycle_length = std::chrono::hours{1};
  return plan;
}

std::vector<Claim> draw_claims(SplitMix& rng,
                               const std::vector<std::uint32_t>& cell_devices,
                               std::uint32_t cycles) {
  std::vector<Claim> claims;
  for (std::uint32_t cycle = 0; cycle < cycles; ++cycle) {
    for (std::uint32_t cell = 0; cell < cell_devices.size(); ++cell) {
      for (std::uint32_t d = 0; d < cell_devices[cell]; ++d) {
        Claim c;
        c.cell = cell;
        c.cycle = cycle;
        c.delivered = 50'000'000 + rng.below(900'000'000);
        c.charged = c.delivered + rng.below(c.delivered / 50);
        claims.push_back(c);
      }
    }
  }
  return claims;
}

std::vector<core::PocMsg> negotiate(const Parties& parties,
                                    const std::vector<Claim>& claims,
                                    SplitMix& rng, Result& result) {
  const charging::DataPlan plan = receipt_plan();
  const core::StrategyPtr edge_strategy = core::make_optimal_edge();
  const core::StrategyPtr op_strategy = core::make_optimal_operator();
  std::vector<core::PocMsg> pocs;
  pocs.reserve(claims.size());
  for (const Claim& claim : claims) {
    core::ProtocolParty::Config cfg;
    cfg.plan = plan;
    cfg.cycle = plan.cycle_at(kTimeZero + plan.cycle_length * claim.cycle);
    cfg.view = core::LocalView{Bytes{claim.charged}, Bytes{claim.delivered}};
    core::ProtocolParty::Config edge_cfg = cfg;
    edge_cfg.role = core::PartyRole::kEdgeVendor;
    core::ProtocolParty::Config op_cfg = cfg;
    op_cfg.role = core::PartyRole::kCellularOperator;
    core::ProtocolParty edge{edge_cfg, *edge_strategy, parties.edge,
                             parties.op.public_key(), Rng{rng.next()}};
    core::ProtocolParty op{op_cfg, *op_strategy, parties.op,
                           parties.edge.public_key(), Rng{rng.next()}};
    core::run_exchange(op, edge);
    const Bytes want = charging::charged_volume(
        Bytes{claim.delivered}, Bytes{claim.charged}, plan.loss_weight);
    if (op.state() != core::ProtocolState::kDone || op.rounds() != 1 ||
        !op.poc() || op.poc()->charged != want) {
      result.fail(1, "negotiation of cell " + std::to_string(claim.cell) +
                         " cycle " + std::to_string(claim.cycle) +
                         " did not agree on the drawn claims in one round");
      continue;
    }
    pocs.push_back(*op.poc());
  }
  return pocs;
}

}  // namespace perfbench
