// Crash/restart round-trips: a party process dies mid-exchange or between
// cycles, restarts from its persisted receipt store, and the system must
// (a) keep every stored receipt auditable and (b) still reject
// double-billing — the verifier replay cache is the cross-session
// protection, since a fresh party legitimately restarts its sequence space.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "tlc/protocol_fixture.hpp"
#include "tlc/receipt_store.hpp"

namespace tlc::core {
namespace {

class CrashRestartTest : public testing::ProtocolFixture {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("tlc_crash_" +
             std::to_string(
                 ::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  static constexpr LocalView kEdgeView{Bytes{1'000'000}, Bytes{920'000}};
  static constexpr LocalView kOpView{Bytes{990'000}, Bytes{915'000}};

  /// Batch size 1: every append is on disk before the next call returns.
  [[nodiscard]] BatchedReceiptStore open() const {
    return BatchedReceiptStore{path_, edge_keys(), PartyRole::kEdgeVendor,
                               FlushPolicy{1, false}};
  }

  [[nodiscard]] AuditReport audit() const {
    BatchedVerifier verifier{edge_keys().public_key(),
                             operator_keys().public_key(), plan()};
    return open().audit(verifier).receipts;
  }

  std::filesystem::path path_;
};

TEST_F(CrashRestartTest, ReceiptsSurviveRestartAndAuditClean) {
  {
    BatchedReceiptStore store = open();
    store.append(make_valid_poc(kEdgeView, kOpView, 51), 0);
    store.append(make_valid_poc(kEdgeView, kOpView, 52), 0);
  }  // process dies

  ASSERT_EQ(open().count(), 2u);
  const AuditReport report = audit();
  EXPECT_EQ(report.total, 2u);
  EXPECT_EQ(report.accepted, 2u);
  EXPECT_EQ(report.rejected, 0u);
}

TEST_F(CrashRestartTest, RestartCannotDoubleBillAStoredReceipt) {
  const PocMsg poc = make_valid_poc(kEdgeView, kOpView, 53);
  open().append(poc, 0);
  // The restarted process replays its last receipt into the store (e.g. a
  // lost ack made it re-append). The audit must count the volume once.
  open().append(poc, 0);
  const AuditReport report = audit();
  EXPECT_EQ(report.total, 2u);
  EXPECT_EQ(report.accepted, 1u);
  EXPECT_EQ(report.by_result.at(VerifyResult::kReplayed), 1u);
}

TEST_F(CrashRestartTest, MidExchangeCrashRenegotiatesCleanly) {
  const auto edge_strategy = make_optimal_edge();
  const auto op_strategy = make_optimal_operator();

  // First attempt: the operator initiates, the edge answers once, then the
  // operator process crashes before processing the reply.
  {
    auto op = std::make_unique<ProtocolParty>(
        operator_config(kOpView), *op_strategy, operator_keys(),
        edge_keys().public_key(), Rng{61});
    ProtocolParty edge{edge_config(kEdgeView), *edge_strategy, edge_keys(),
                       operator_keys().public_key(), Rng{62}};
    const Message cdr = op->start();
    const auto reply = edge.on_message(cdr);
    EXPECT_TRUE(reply.has_value());
    op.reset();  // crash: negotiation state is lost, nothing was persisted
    EXPECT_NE(edge.state(), ProtocolState::kDone);
  }

  // Restart: fresh parties for the same cycle negotiate from scratch and
  // produce a receipt the public verifier accepts.
  ProtocolParty op{operator_config(kOpView), *op_strategy, operator_keys(),
                   edge_keys().public_key(), Rng{63}};
  ProtocolParty edge{edge_config(kEdgeView), *edge_strategy, edge_keys(),
                     operator_keys().public_key(), Rng{64}};
  run_exchange(op, edge);
  ASSERT_EQ(op.state(), ProtocolState::kDone);
  ASSERT_TRUE(op.poc().has_value());

  open().append(*op.poc(), 0);
  EXPECT_EQ(audit().accepted, 1u);
}

}  // namespace
}  // namespace tlc::core
