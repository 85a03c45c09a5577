// Signed receipt inputs shared by signed-settle and receipt-log: RSA-1024
// key pairs and a pool of distinct Proofs-of-Charging negotiated with the
// real CDR→CDA→PoC exchange.
#pragma once

#include <cstdint>
#include <vector>

#include "charging/data_plan.hpp"
#include "crypto/keys.hpp"
#include "harness.hpp"
#include "tlc/messages.hpp"

namespace perfbench {

struct Parties {
  tlc::crypto::KeyPair edge;
  tlc::crypto::KeyPair op;
};

/// Generates the edge and operator key pairs.
Parties make_parties();

/// The agreed data plan every receipt echoes (c = 0.5, one-hour cycles).
tlc::charging::DataPlan receipt_plan();

/// One device-cycle's ground truth: what the gateway charged (the
/// operator's view) and what reached the device (the edge's view).
struct Claim {
  std::uint32_t cell = 0;
  std::uint32_t cycle = 0;
  std::uint64_t charged = 0;    // x_o
  std::uint64_t delivered = 0;  // x_e
};

/// Draws `cells_devices[k]` devices for cell k and `cycles` cycles, laid
/// out cycle-major then cell. Gaps stay under 2 % so every exchange
/// agrees in one round.
std::vector<Claim> draw_claims(SplitMix& rng,
                               const std::vector<std::uint32_t>& cell_devices,
                               std::uint32_t cycles);

/// Negotiates one PoC per claim (operator initiates). Fails the run for
/// any exchange that does not finish in one round with the drawn claims.
std::vector<tlc::core::PocMsg> negotiate(const Parties& parties,
                                         const std::vector<Claim>& claims,
                                         SplitMix& rng, Result& result);

}  // namespace perfbench
