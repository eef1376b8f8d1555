// First-in first-out queue in fixed-size chunks.
//
// Elements live in chunks of kChunk slots. The queue keeps the head's chunk
// even when it drains, plus one spare: the last chunk the head emptied,
// which the tail takes before it allocates. A queue that streams elements
// through it therefore allocates only when its backlog outgrows two chunks,
// and gives a deeper backlog's chunks back as it drains, so a fleet of
// thousands of queues holds what they queue now, not their deepest backlog
// so far. Element addresses are stable while the element is queued. Used by
// cellular::LinkQueue for in-flight packets and by pipeline::VideoSender for
// its RTP send queue.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace rpv::sim {

template <typename T>
class Fifo {
 public:
  static constexpr std::size_t kChunk = 64;  // slots per chunk

  Fifo() = default;
  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;
  ~Fifo() { clear(); }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] T& front() {
    assert(size_ > 0);
    return *at(head_);
  }

  // Append `value`; returns the queued element.
  T& push_back(T value) {
    const std::size_t tail = head_ + size_;
    if (tail == chunks_.size() * kChunk) {
      chunks_.push_back(spare_ ? std::move(spare_)
                               : std::make_unique<Storage[]>(kChunk));
    }
    T* p = ::new (static_cast<void*>(slot(tail))) T(std::move(value));
    ++size_;
    return *p;
  }

  void pop_front() {
    assert(size_ > 0);
    std::destroy_at(at(head_));
    ++head_;
    if (--size_ == 0) {
      head_ = 0;  // the head's chunk is the only one left: start it over
    } else if (head_ == kChunk) {
      if (!spare_) spare_ = std::move(chunks_.front());
      chunks_.erase(chunks_.begin());
      head_ = 0;
    }
  }

  void clear() {
    while (!empty()) pop_front();
  }

 private:
  struct alignas(alignof(T)) Storage {
    unsigned char bytes[sizeof(T)];
  };

  // Slot `i` counts from the first slot of the head's chunk.
  [[nodiscard]] Storage* slot(std::size_t i) {
    return &chunks_[i / kChunk][i % kChunk];
  }
  [[nodiscard]] T* at(std::size_t i) {
    return std::launder(reinterpret_cast<T*>(slot(i)));
  }

  std::vector<std::unique_ptr<Storage[]>> chunks_;  // head's chunk first
  std::unique_ptr<Storage[]> spare_;
  std::size_t head_ = 0;  // slot of the front element, < kChunk
  std::size_t size_ = 0;
};

}  // namespace rpv::sim
