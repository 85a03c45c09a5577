// BoundedQueue — the one hand-off queue of the serving layer.
//
// A fixed ring under one std::mutex with two condition variables. push()
// blocks while the ring is full (backpressure, never a drop); pop_batch()
// blocks while it is empty and moves up to `max` values per lock
// acquisition, so a consumer pays one lock round-trip per batch rather
// than per record. A notify is sent only when a thread is actually
// waiting, so an uncontended hand-off costs one lock and no syscall, and
// an idle consumer sleeps in the kernel instead of spinning.
//
// close() ends the stream: blocked poppers wake, drain what is left, and
// then get 0; later pushes are refused. FIFO holds over lock acquisitions,
// so each producer's values come out in the order it pushed them.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <vector>

namespace tlc::serve {

/// Values a serving consumer takes per lock acquisition.
inline constexpr std::size_t kPopBatch = 64;

/// Producer registration token. The blocking queue keeps no per-thread
/// state, so the token is empty; it keeps the submit(handle, value) call
/// shape of the serving front ends.
struct ProducerHandle {};

template <typename T>
class BoundedQueue {
 public:
  using value_type = T;

  explicit BoundedQueue(std::size_t capacity)
      : ring_(capacity == 0 ? 1 : capacity) {}
  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Appends `value`, blocking while the ring is full. Returns false, and
  /// drops nothing, only when the queue was closed.
  bool push(const T& value) {
    std::unique_lock<std::mutex> lock{mu_};
    while (count_ == ring_.size() && !closed_) {
      ++push_waiters_;
      not_full_.wait(lock);
      --push_waiters_;
    }
    if (closed_) return false;
    std::size_t tail = head_ + count_;
    if (tail >= ring_.size()) tail -= ring_.size();
    ring_[tail] = value;
    ++count_;
    const bool wake = pop_waiters_ > 0;
    lock.unlock();
    if (wake) not_empty_.notify_one();
    return true;
  }

  /// Replaces `out`'s contents with up to `max` values from the front,
  /// blocking while the ring is empty and open. Returns how many it moved:
  /// 0 only once the queue is closed and empty. `out` should have `max`
  /// capacity reserved so the call never allocates.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max) {
    out.clear();
    std::unique_lock<std::mutex> lock{mu_};
    while (count_ == 0 && !closed_) {
      ++pop_waiters_;
      not_empty_.wait(lock);
      --pop_waiters_;
    }
    const std::size_t n = std::min(count_, max);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(ring_[head_]);
      if (++head_ == ring_.size()) head_ = 0;
    }
    count_ -= n;
    const bool wake = n > 0 && push_waiters_ > 0;
    lock.unlock();
    if (wake) not_full_.notify_all();
    return n;
  }

  /// Refuses further pushes and wakes every blocked thread.
  void close() {
    {
      std::lock_guard<std::mutex> lock{mu_};
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock{mu_};
    return count_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<T> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t push_waiters_ = 0;
  std::size_t pop_waiters_ = 0;
  bool closed_ = false;
};

}  // namespace tlc::serve
