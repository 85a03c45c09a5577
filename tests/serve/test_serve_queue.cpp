// BoundedQueue (serve/queue.hpp), the serving layer's receipt store: a
// typed suite runs FIFO order, capacity backpressure, ring-slot reuse,
// exactly-once delivery under many producers and consumers, and
// per-producer FIFO against the queue of plain integers and of the
// ExchangeRecords the pipeline carries. Then close() semantics and the
// pipeline-level guarantees the blocking design buys: drain() on an idle
// pipeline returns, and idle consumers sleep instead of burning CPU.
#include "serve/queue.hpp"

#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "serve/pipeline.hpp"
#include "serve/record.hpp"

namespace tlc::serve {
namespace {

using namespace std::chrono_literals;

// Test values are built from, and read back as, one integer key.
template <typename T>
T make_value(std::uint64_t key);

template <>
std::uint64_t make_value<std::uint64_t>(std::uint64_t key) {
  return key;
}

template <>
ExchangeRecord make_value<ExchangeRecord>(std::uint64_t key) {
  ExchangeRecord rec;
  rec.charged_dl = key;
  rec.billed_legacy = key;
  return rec;
}

std::uint64_t key_of(std::uint64_t value) { return value; }

std::uint64_t key_of(const ExchangeRecord& rec) {
  // A record copied only in part no longer carries the key twice.
  return rec.billed_legacy == rec.charged_dl ? rec.charged_dl : ~0ULL;
}

template <typename Q>
class ReceiptStoreTest : public ::testing::Test {};

using StoredValues = ::testing::Types<BoundedQueue<std::uint64_t>,
                                      BoundedQueue<ExchangeRecord>>;
TYPED_TEST_SUITE(ReceiptStoreTest, StoredValues);

TYPED_TEST(ReceiptStoreTest, FifoSingleThread) {
  using V = typename TypeParam::value_type;
  TypeParam queue{16};
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(queue.push(make_value<V>(i)));
  }
  EXPECT_EQ(queue.size(), 10u);
  std::vector<V> out;
  out.reserve(3);
  std::uint64_t next = 0;
  while (next < 10) {
    // Never more than asked, never less than what is there.
    ASSERT_EQ(queue.pop_batch(out, 3), std::min<std::uint64_t>(3, 10 - next));
    for (const V& v : out) EXPECT_EQ(key_of(v), next++);
  }
  EXPECT_EQ(queue.size(), 0u);
}

TYPED_TEST(ReceiptStoreTest, CapacityBackpressure) {
  // A full queue blocks push() until a pop frees a slot; nothing drops.
  using V = typename TypeParam::value_type;
  TypeParam queue{2};
  ASSERT_TRUE(queue.push(make_value<V>(0)));
  ASSERT_TRUE(queue.push(make_value<V>(1)));
  std::atomic<bool> pushed{false};
  std::thread producer{[&queue, &pushed] {
    EXPECT_TRUE(queue.push(make_value<V>(2)));
    pushed.store(true);
  }};
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(pushed.load()) << "push into a full queue must block";
  EXPECT_EQ(queue.size(), 2u);

  std::vector<V> out;
  out.reserve(4);
  ASSERT_EQ(queue.pop_batch(out, 1), 1u);
  EXPECT_EQ(key_of(out[0]), 0u);
  producer.join();
  EXPECT_TRUE(pushed.load());

  ASSERT_EQ(queue.pop_batch(out, 4), 2u);
  EXPECT_EQ(key_of(out[0]), 1u);
  EXPECT_EQ(key_of(out[1]), 2u);
}

TYPED_TEST(ReceiptStoreTest, SlotsRecycleThroughFixedRing) {
  // Far more values than ring slots, popped in batches that leave the head
  // at every offset: only slot reuse across wraps can satisfy this.
  using V = typename TypeParam::value_type;
  TypeParam queue{4};
  std::vector<V> out;
  out.reserve(3);
  std::uint64_t next = 0;
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    ASSERT_TRUE(queue.push(make_value<V>(i)));
    if (queue.size() == 4) {
      ASSERT_EQ(queue.pop_batch(out, 3), 3u);
      for (const V& v : out) ASSERT_EQ(key_of(v), next++);
    }
  }
  while (queue.size() > 0) {
    queue.pop_batch(out, 3);
    for (const V& v : out) ASSERT_EQ(key_of(v), next++);
  }
  EXPECT_EQ(next, 10'000u);
}

TYPED_TEST(ReceiptStoreTest, MpmcExactlyOnce) {
  using V = typename TypeParam::value_type;
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kConsumers = 2;
  constexpr std::uint64_t kPerProducer = 20'000;
  TypeParam queue{64};

  std::vector<std::vector<std::uint64_t>> received(kConsumers);
  std::vector<std::thread> consumers;
  for (std::uint64_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&queue, &received, c] {
      std::vector<V> batch;
      batch.reserve(16);
      while (queue.pop_batch(batch, 16) > 0) {
        for (const V& v : batch) received[c].push_back(key_of(v));
      }
    });
  }
  std::vector<std::thread> producers;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.push(make_value<V>(p * kPerProducer + i)));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  queue.close();
  for (std::thread& t : consumers) t.join();

  // Exactly once: every value delivered, no duplicates, no inventions.
  std::vector<std::uint64_t> all;
  for (const auto& r : received) all.insert(all.end(), r.begin(), r.end());
  ASSERT_EQ(all.size(), kProducers * kPerProducer);
  std::sort(all.begin(), all.end());
  for (std::uint64_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i], i);
  }
  EXPECT_EQ(queue.size(), 0u);
}

TYPED_TEST(ReceiptStoreTest, PerProducerOrderPreserved) {
  // Keys encode (producer, sequence); one consumer sees all of them, so
  // each producer's sequence must arrive strictly increasing.
  using V = typename TypeParam::value_type;
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20'000;
  TypeParam queue{32};
  std::vector<std::thread> producers;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.push(make_value<V>((p << 32) | i)));
      }
    });
  }
  std::vector<std::uint64_t> next(kProducers, 0);
  std::vector<V> batch;
  batch.reserve(8);
  std::uint64_t seen = 0;
  while (seen < kProducers * kPerProducer) {
    seen += queue.pop_batch(batch, 8);
    for (const V& v : batch) {
      const std::uint64_t key = key_of(v);
      const std::uint64_t p = key >> 32;
      ASSERT_LT(p, kProducers);
      ASSERT_EQ(key & 0xffffffffu, next[p]) << "producer " << p;
      ++next[p];
    }
  }
  for (std::thread& t : producers) t.join();
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next[p], kPerProducer);
  }
}

TEST(BoundedQueue, CloseWakesBlockedConsumersAfterRemainingValues) {
  BoundedQueue<std::uint64_t> queue{8};
  std::atomic<int> finished{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&queue, &finished] {
      std::vector<std::uint64_t> out;
      out.reserve(4);
      EXPECT_EQ(queue.pop_batch(out, 4), 0u);
      finished.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(finished.load(), 0) << "pop on an empty open queue must block";
  queue.close();
  for (std::thread& t : consumers) t.join();
  EXPECT_EQ(finished.load(), 2);
  EXPECT_FALSE(queue.push(7)) << "a closed queue refuses pushes";

  // Values pushed before close() are still delivered, then 0 ends the
  // stream.
  BoundedQueue<std::uint64_t> tail{8};
  ASSERT_TRUE(tail.push(1));
  ASSERT_TRUE(tail.push(2));
  tail.close();
  std::vector<std::uint64_t> out;
  out.reserve(4);
  EXPECT_EQ(tail.pop_batch(out, 4), 2u);
  EXPECT_EQ(tail.pop_batch(out, 4), 0u);
}

TEST(BoundedQueue, DrainReturnsOnPipelineThatNeverReceivedARecord) {
  PipelineConfig cfg;
  cfg.consumers = 2;
  ServePipeline pipeline{cfg};
  pipeline.drain();
  EXPECT_EQ(pipeline.stats().ingested, 0u);
  EXPECT_EQ(pipeline.stats().settled, 0u);
  EXPECT_TRUE(pipeline.store_empty());
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

TEST(BoundedQueue, IdlePipelineConsumersUseNoCpu) {
  // Regression: consumers that spin (yield) on an empty queue burn a core
  // each. Blocked consumers cost nothing while the pipeline is idle.
  PipelineConfig cfg;
  cfg.consumers = 2;
  ServePipeline pipeline{cfg};
  std::this_thread::sleep_for(20ms);  // consumers reach their wait
  const double cpu0 = process_cpu_ms();
  std::this_thread::sleep_for(200ms);
  const double idle_cpu_ms = process_cpu_ms() - cpu0;
  pipeline.drain();
  EXPECT_LT(idle_cpu_ms, 20.0)
      << "2 idle consumers used " << idle_cpu_ms << " ms CPU in 200 ms";
}

}  // namespace
}  // namespace tlc::serve
