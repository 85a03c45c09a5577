#include "serve/auditor.hpp"

#include <cassert>
#include <utility>
#include <vector>

namespace tlc::serve {

LiveAuditor::LiveAuditor(crypto::PublicKey edge_key,
                         crypto::PublicKey operator_key,
                         charging::DataPlan plan, std::size_t queue_capacity)
    : queue_(queue_capacity),
      verifier_(std::move(edge_key), std::move(operator_key),
                std::move(plan)),
      auditor_([this] { audit_loop(); }) {}

LiveAuditor::~LiveAuditor() { drain(); }

void LiveAuditor::submit(const ProducerHandle& /*handle*/,
                         const core::ReceiptBatch* batch) {
  [[maybe_unused]] const bool queued = queue_.push(batch);
  assert(queued && "submit() after drain()");
  submitted_.fetch_add(1, std::memory_order_relaxed);
}

void LiveAuditor::drain() {
  if (drained_) return;
  drained_ = true;
  queue_.close();
  auditor_.join();
}

void LiveAuditor::audit_loop() {
  std::vector<const core::ReceiptBatch*> batches;
  batches.reserve(kPopBatch);
  // pop_batch() returns 0 only once drain() closed the queue and it is
  // empty; all submits happen-before that close.
  while (queue_.pop_batch(batches, kPopBatch) > 0) {
    for (const core::ReceiptBatch* batch : batches) {
      const core::BatchAudit audit = verifier_.verify_batch(*batch);
      verified_.fetch_add(1, std::memory_order_relaxed);
      if (audit.head == core::BatchVerifyResult::kOk) {
        heads_accepted_.fetch_add(1, std::memory_order_relaxed);
      } else {
        heads_rejected_.fetch_add(1, std::memory_order_relaxed);
      }
      receipts_accepted_.fetch_add(audit.accepted,
                                   std::memory_order_relaxed);
      receipts_rejected_.fetch_add(audit.rejected,
                                   std::memory_order_relaxed);
      verified_volume_.fetch_add(audit.total_verified_volume.count(),
                                 std::memory_order_relaxed);
    }
  }
}

}  // namespace tlc::serve
