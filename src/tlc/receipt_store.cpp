#include "tlc/receipt_store.hpp"

#include <algorithm>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>

#include "wire/codec.hpp"

namespace tlc::core {
namespace {

// Framing: an 8-byte magic written when the file is created, then
// records, each a big-endian u32 length followed by that many bytes.
constexpr char kMagic[8] = {'T', 'L', 'C', 'R', 'C', 'P', 'T', '2'};

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error{"BatchedReceiptStore: " + what};
}

/// Appends one record to `path`, creating the file with the magic if absent.
void append_record(const std::filesystem::path& path, const ByteVec& bytes) {
  const bool fresh = !std::filesystem::exists(path);
  std::ofstream os{path, std::ios::binary | std::ios::app};
  if (!os) fail("cannot open " + path.string());
  if (fresh) os.write(kMagic, sizeof(kMagic));
  const auto len = static_cast<std::uint32_t>(bytes.size());
  const char prefix[4] = {
      static_cast<char>(len >> 24), static_cast<char>(len >> 16),
      static_cast<char>(len >> 8), static_cast<char>(len)};
  os.write(prefix, sizeof(prefix));
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  if (!os) fail("write failed");
}

/// Calls `fn(record)` for each record of `path` in file order, decoding as
/// it reads; a missing file has no records. Throws std::runtime_error on a
/// foreign or truncated file, and when `fn` throws wire::DecodeError.
template <typename Fn>
void for_each_record(const std::filesystem::path& path, Fn&& fn) {
  if (!std::filesystem::exists(path)) return;
  std::ifstream is{path, std::ios::binary};
  if (!is) fail("cannot open " + path.string());
  char head[sizeof(kMagic)];
  is.read(head, sizeof(head));
  if (!is || !std::equal(std::begin(head), std::end(head), kMagic)) {
    fail("not a receipt file");
  }
  // Bytes not yet read: a length field claiming more than this (a torn
  // tail or a flipped bit) is rejected before anything is allocated for it.
  std::uintmax_t left = std::filesystem::file_size(path) - sizeof(kMagic);
  ByteVec bytes;  // reused across records
  while (is.peek() != std::ifstream::traits_type::eof()) {
    unsigned char prefix[4];
    is.read(reinterpret_cast<char*>(prefix), sizeof(prefix));
    if (!is || left < sizeof(prefix)) fail("truncated record length");
    left -= sizeof(prefix);
    const std::uint32_t len = (static_cast<std::uint32_t>(prefix[0]) << 24) |
                              (static_cast<std::uint32_t>(prefix[1]) << 16) |
                              (static_cast<std::uint32_t>(prefix[2]) << 8) |
                              static_cast<std::uint32_t>(prefix[3]);
    if (len > left) fail("truncated record");
    left -= len;
    bytes.resize(len);
    is.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(len));
    if (!is) fail("truncated record");
    try {
      fn(std::span<const std::uint8_t>{bytes});
    } catch (const wire::DecodeError& e) {
      fail(std::string{"corrupt record: "} + e.what());
    }
  }
}

}  // namespace

BatchedReceiptStore::BatchedReceiptStore(std::filesystem::path path,
                                         const crypto::KeyPair& key,
                                         PartyRole sender, FlushPolicy policy)
    : path_(std::move(path)), builder_(key, sender, policy) {
  // Reopening an existing archive continues its hash chain — restarting
  // at genesis would make the store's own audit report a chain splice on
  // the first batch appended after the reopen.
  if (std::filesystem::exists(path_)) {
    const std::vector<ReceiptBatch> existing = load_all();
    if (!existing.empty()) {
      const BatchHead& last = existing.back().head;
      builder_.resume_chain(last.batch_index + 1, last.link);
    }
  }
}

void BatchedReceiptStore::append(const PocMsg& poc, std::uint64_t cycle) {
  if (auto batch = builder_.append(poc, cycle)) write_batch(*batch);
}

void BatchedReceiptStore::end_cycle() {
  if (auto batch = builder_.end_cycle()) write_batch(*batch);
}

void BatchedReceiptStore::flush() {
  if (auto batch = builder_.flush()) write_batch(*batch);
}

void BatchedReceiptStore::write_batch(const ReceiptBatch& batch) {
  // Stored record == wire frame with a zeroed header: the archive holds
  // exactly the bytes a settlement would transmit.
  append_record(path_, wire::encode_batch_frame(
                          to_batch_frame(batch, wire::FrameHeader{})));
}

std::vector<ReceiptBatch> BatchedReceiptStore::load_all() const {
  std::vector<ReceiptBatch> out;
  for_each_record(path_, [&](std::span<const std::uint8_t> bytes) {
    out.push_back(from_batch_frame(wire::decode_batch_frame(bytes)));
  });
  return out;
}

std::size_t BatchedReceiptStore::count() const {
  std::size_t n = 0;
  for (const ReceiptBatch& b : load_all()) n += b.entries.size();
  return n;
}

BatchedReceiptStore::BatchAuditReport BatchedReceiptStore::audit(
    BatchedVerifier& verifier) const {
  BatchAuditReport report;
  for (const ReceiptBatch& batch : load_all()) {
    ++report.batches;
    const BatchAudit audit = verifier.verify_batch(batch);
    ++report.by_head_result[audit.head];
    if (audit.head != BatchVerifyResult::kOk) {
      ++report.heads_rejected;
      // Entries under a rejected head count as rejected receipts.
      report.receipts.total += batch.entries.size();
      report.receipts.rejected += batch.entries.size();
      continue;
    }
    ++report.heads_accepted;
    report.receipts.total += audit.receipts.size();
    report.receipts.accepted += audit.accepted;
    report.receipts.rejected += audit.rejected;
    report.receipts.total_verified_volume += audit.total_verified_volume;
    for (const VerifyResult r : audit.receipts) ++report.receipts.by_result[r];
  }
  return report;
}

}  // namespace tlc::core
