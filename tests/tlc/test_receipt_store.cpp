#include "tlc/receipt_store.hpp"

#include <gtest/gtest.h>

#include <cstdio>
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

  static constexpr LocalView kView{Bytes{1'000'000}, Bytes{920'000}};
  std::filesystem::path path_;
};

TEST_F(ReceiptStoreTest, EmptyStoreLoadsNothing) {
  ReceiptStore store{path_};
  EXPECT_TRUE(store.load_all().empty());
  EXPECT_EQ(store.count(), 0u);
}

TEST_F(ReceiptStoreTest, AppendLoadRoundTrip) {
  ReceiptStore store{path_};
  const PocMsg poc1 = make_valid_poc(kView, kView, 1);
  const PocMsg poc2 = make_valid_poc(kView, kView, 2);
  store.append(poc1);
  store.append(poc2);
  const auto loaded = store.load_all();
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].encode(), poc1.encode());
  EXPECT_EQ(loaded[1].encode(), poc2.encode());
}

TEST_F(ReceiptStoreTest, PersistsAcrossInstances) {
  {
    ReceiptStore store{path_};
    store.append(make_valid_poc(kView, kView, 3));
  }
  ReceiptStore reopened{path_};
  EXPECT_EQ(reopened.count(), 1u);
}

TEST_F(ReceiptStoreTest, RejectsForeignFile) {
  std::ofstream os{path_, std::ios::binary};
  os << "definitely not a receipt file";
  os.close();
  ReceiptStore store{path_};
  EXPECT_THROW((void)store.load_all(), std::runtime_error);
}

TEST_F(ReceiptStoreTest, DetectsTruncation) {
  ReceiptStore store{path_};
  store.append(make_valid_poc(kView, kView, 4));
  // Chop the tail off the file.
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 10);
  EXPECT_THROW((void)store.load_all(), std::runtime_error);
  // A length prefix claiming ~4 GiB more than the file holds (a flipped
  // high bit) is rejected before that much is allocated.
  std::filesystem::remove(path_);
  store.append(make_valid_poc(kView, kView, 4));
  {
    std::ofstream os{path_, std::ios::binary | std::ios::app};
    const char bogus[] = {'\xff', '\xff', '\xff', '\xf0', 'x', 'y', 'z'};
    os.write(bogus, sizeof(bogus));
  }
  EXPECT_THROW((void)store.load_all(), std::runtime_error);
}

TEST_F(ReceiptStoreTest, AuditVerifiesEveryReceipt) {
  ReceiptStore store{path_};
  store.append(make_valid_poc(kView, kView, 5));
  store.append(make_valid_poc(kView, kView, 6));
  PublicVerifier verifier{edge_keys().public_key(),
                          operator_keys().public_key(), plan()};
  const auto report = store.audit(verifier);
  EXPECT_EQ(report.total, 2u);
  EXPECT_EQ(report.accepted, 2u);
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_EQ(report.total_verified_volume, Bytes{2 * 960'000});
}

TEST_F(ReceiptStoreTest, AuditFlagsDuplicateReceipts) {
  ReceiptStore store{path_};
  const PocMsg poc = make_valid_poc(kView, kView, 7);
  store.append(poc);
  store.append(poc);  // double-billing attempt
  PublicVerifier verifier{edge_keys().public_key(),
                          operator_keys().public_key(), plan()};
  const auto report = store.audit(verifier);
  EXPECT_EQ(report.total, 2u);
  EXPECT_EQ(report.accepted, 1u);
  EXPECT_EQ(report.by_result.at(VerifyResult::kReplayed), 1u);
}

TEST_F(ReceiptStoreTest, AuditFlagsTamperedReceipt) {
  ReceiptStore store{path_};
  PocMsg poc = make_valid_poc(kView, kView, 8);
  poc.charged = Bytes{1};
  store.append(poc);
  PublicVerifier verifier{edge_keys().public_key(),
                          operator_keys().public_key(), plan()};
  const auto report = store.audit(verifier);
  EXPECT_EQ(report.rejected, 1u);
  EXPECT_EQ(report.by_result.at(VerifyResult::kBadPocSignature), 1u);
}

}  // namespace
}  // namespace tlc::core
