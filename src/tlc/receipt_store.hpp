// Durable Proof-of-Charging archive.
//
// Both parties "locally store [the PoC] as a charging receipt" (§5.3.2);
// disputes may surface months later (the lawsuits of §1), so receipts need
// a durable, audit-friendly store. Format: an 8-byte magic header, then an
// append-only sequence of length-prefixed records, each one signed,
// hash-chained ReceiptBatch as its wire batch frame (zeroed frame header),
// so the on-disk bytes are exactly what crosses the wire. A batch size of
// 1 puts every receipt on disk as soon as it is appended.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <vector>

#include "tlc/messages.hpp"
#include "tlc/verifier.hpp"

namespace tlc::core {

/// Totals of one receipt audit.
struct AuditReport {
  std::uint64_t total = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::map<VerifyResult, std::uint64_t> by_result;
  Bytes total_verified_volume;
};

/// The receipt archive. Audits run through a BatchedVerifier — one RSA
/// check per stored batch.
class BatchedReceiptStore {
 public:
  BatchedReceiptStore(std::filesystem::path path, const crypto::KeyPair& key,
                      PartyRole sender, FlushPolicy policy = {});

  /// Appends one receipt to the pending batch; writes a batch record when
  /// the flush policy closes it.
  void append(const PocMsg& poc, std::uint64_t cycle);

  /// Cycle boundary (see FlushPolicy::flush_on_cycle_end).
  void end_cycle();

  /// Persists any pending partial batch. Call before auditing.
  void flush();

  /// Loads every stored batch; throws std::runtime_error on a corrupt or
  /// foreign file.
  [[nodiscard]] std::vector<ReceiptBatch> load_all() const;

  /// Receipts across all stored batches.
  [[nodiscard]] std::size_t count() const;
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

  struct BatchAuditReport {
    std::uint64_t batches = 0;
    std::uint64_t heads_accepted = 0;
    std::uint64_t heads_rejected = 0;
    std::map<BatchVerifyResult, std::uint64_t> by_head_result;
    AuditReport receipts;
  };

  /// One pass over the archive: chain order, head signatures, inclusion
  /// proofs, then the structural Algorithm 2 checks per receipt.
  [[nodiscard]] BatchAuditReport audit(BatchedVerifier& verifier) const;

 private:
  void write_batch(const ReceiptBatch& batch);

  std::filesystem::path path_;
  BatchBuilder builder_;
};

}  // namespace tlc::core
