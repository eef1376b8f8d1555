// Chunked free-list object pool.
//
// acquire() constructs a T in place and returns a dense uint32 index;
// release() destroys the object and recycles the index LIFO, so reuse order
// is deterministic. Storage is allocated in fixed 256-object chunks that are
// never reallocated: `&pool[i]` stays valid across later acquires, and a
// steady-state workload performs zero heap traffic. Used by sim::EventQueue
// for event slots and by rtp::JitterBuffer for pending frames.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace rpv::sim {

template <typename T>
class Pool {
 public:
  using Index = std::uint32_t;
  static constexpr Index kInvalid = 0xffffffffu;

  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;
  ~Pool() { clear(); }

  // Construct a T from `args` and return its index.
  template <typename... Args>
  Index acquire(Args&&... args) {
    Index idx;
    if (free_head_ != kInvalid) {
      idx = free_head_;
      free_head_ = next_free_[idx];
    } else {
      idx = static_cast<Index>(size_);
      assert(idx != kInvalid);
      if (idx >= chunks_.size() * kChunk) {
        chunks_.push_back(std::make_unique<Storage[]>(kChunk));
      }
      ++size_;
      next_free_.push_back(kInvalid);
      alive_.push_back(false);
    }
    ::new (static_cast<void*>(slot(idx))) T(std::forward<Args>(args)...);
    alive_[idx] = true;
    ++live_;
    return idx;
  }

  // Destroy the object at `idx` and recycle its slot.
  void release(Index idx) {
    assert(idx < size_ && alive_[idx]);
    (*this)[idx].~T();
    alive_[idx] = false;
    next_free_[idx] = free_head_;
    free_head_ = idx;
    --live_;
  }

  [[nodiscard]] T& operator[](Index idx) {
    assert(idx < size_ && alive_[idx]);
    return *std::launder(reinterpret_cast<T*>(slot(idx)));
  }
  [[nodiscard]] const T& operator[](Index idx) const {
    assert(idx < size_ && alive_[idx]);
    return *std::launder(reinterpret_cast<const T*>(slot(idx)));
  }

  [[nodiscard]] std::size_t live() const { return live_; }
  // Total slots ever created (live + free); indices are always < capacity().
  [[nodiscard]] std::size_t capacity() const { return size_; }

  // Destroy every live object and reset to empty; chunk memory is retained.
  void clear() {
    for (Index i = 0; i < size_; ++i) {
      if (alive_[i]) (*this)[i].~T();
    }
    size_ = 0;
    live_ = 0;
    free_head_ = kInvalid;
    next_free_.clear();
    alive_.clear();
  }

 private:
  static constexpr std::size_t kChunk = 256;
  struct alignas(alignof(T)) Storage {
    unsigned char bytes[sizeof(T)];
  };

  [[nodiscard]] Storage* slot(Index idx) {
    return &chunks_[idx / kChunk][idx % kChunk];
  }
  [[nodiscard]] const Storage* slot(Index idx) const {
    return &chunks_[idx / kChunk][idx % kChunk];
  }

  std::vector<std::unique_ptr<Storage[]>> chunks_;
  std::vector<Index> next_free_;
  std::vector<bool> alive_;
  Index free_head_ = kInvalid;
  Index size_ = 0;  // slots ever created
  std::size_t live_ = 0;
};

}  // namespace rpv::sim
