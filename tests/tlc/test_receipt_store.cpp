// The receipt archive at batch size 1 — one receipt per record, on disk as
// soon as it is appended: empty archives, record round-trips, torn and
// oversized records, and the audit of duplicate and tampered receipts.
#include "tlc/receipt_store.hpp"

#include <gtest/gtest.h>

#include <fstream>

#include "tlc/protocol_fixture.hpp"

namespace tlc::core {
namespace {

class ReceiptStoreTest : public testing::ProtocolFixture {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("tlc_receipts_" +
             std::to_string(::testing::UnitTest::GetInstance()
                                ->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  [[nodiscard]] BatchedReceiptStore open() const {
    return BatchedReceiptStore{path_, operator_keys(),
                               PartyRole::kCellularOperator,
                               FlushPolicy{1, false}};
  }

  [[nodiscard]] AuditReport audit() const {
    BatchedVerifier verifier{edge_keys().public_key(),
                             operator_keys().public_key(), plan()};
    return open().audit(verifier).receipts;
  }

  static constexpr LocalView kView{Bytes{1'000'000}, Bytes{920'000}};
  std::filesystem::path path_;
};

TEST_F(ReceiptStoreTest, EmptyStoreLoadsNothing) {
  const BatchedReceiptStore store = open();
  EXPECT_TRUE(store.load_all().empty());
  EXPECT_EQ(store.count(), 0u);
}

TEST_F(ReceiptStoreTest, AppendLoadRoundTrip) {
  BatchedReceiptStore store = open();
  const PocMsg poc1 = make_valid_poc(kView, kView, 1);
  const PocMsg poc2 = make_valid_poc(kView, kView, 2);
  store.append(poc1, poc1.plan.cycle_index);
  store.append(poc2, poc2.plan.cycle_index);
  // No flush: at batch size 1 each append is already a record on disk.
  const auto loaded = store.load_all();
  ASSERT_EQ(loaded.size(), 2u);
  ASSERT_EQ(loaded[0].entries.size(), 1u);
  EXPECT_EQ(loaded[0].entries[0].poc, poc1.encode());
  EXPECT_EQ(loaded[1].entries[0].poc, poc2.encode());
}

TEST_F(ReceiptStoreTest, DetectsTruncation) {
  const PocMsg poc = make_valid_poc(kView, kView, 4);
  {
    BatchedReceiptStore store = open();
    store.append(poc, poc.plan.cycle_index);
    // Chop the tail off the file.
    const auto size = std::filesystem::file_size(path_);
    std::filesystem::resize_file(path_, size - 10);
    EXPECT_THROW((void)store.load_all(), std::runtime_error);
  }
  // A length prefix claiming ~4 GiB more than the file holds (a flipped
  // high bit) is rejected before that much is allocated.
  std::filesystem::remove(path_);
  BatchedReceiptStore store = open();
  store.append(poc, poc.plan.cycle_index);
  {
    std::ofstream os{path_, std::ios::binary | std::ios::app};
    const char bogus[] = {'\xff', '\xff', '\xff', '\xf0', 'x', 'y', 'z'};
    os.write(bogus, sizeof(bogus));
  }
  EXPECT_THROW((void)store.load_all(), std::runtime_error);
  EXPECT_THROW((void)open(), std::runtime_error);
}

TEST_F(ReceiptStoreTest, AuditFlagsDuplicateReceipts) {
  BatchedReceiptStore store = open();
  const PocMsg poc = make_valid_poc(kView, kView, 7);
  store.append(poc, poc.plan.cycle_index);
  store.append(poc, poc.plan.cycle_index);  // double-billing attempt
  const AuditReport report = audit();
  EXPECT_EQ(report.total, 2u);
  EXPECT_EQ(report.accepted, 1u);
  EXPECT_EQ(report.by_result.at(VerifyResult::kReplayed), 1u);
}

TEST_F(ReceiptStoreTest, AuditFlagsTamperedReceipt) {
  BatchedReceiptStore store = open();
  PocMsg poc = make_valid_poc(kView, kView, 8);
  poc.charged = Bytes{1};
  // The head signs the tampered bytes as given, so the audit catches the
  // forgery by recomputing the charge, not by the PoC signature.
  store.append(poc, poc.plan.cycle_index);
  const AuditReport report = audit();
  EXPECT_EQ(report.rejected, 1u);
  EXPECT_EQ(report.by_result.at(VerifyResult::kChargeMismatch), 1u);
}

}  // namespace
}  // namespace tlc::core
