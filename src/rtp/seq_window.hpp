// Flat table of values keyed by unwrapped (64-bit) sequence number.
//
// Four per-packet tables hold a span of nearby keys that slides forward: the
// RFC 8888 receiver's arrivals, SCReAM's packets in flight, the bonded
// reorder window's held packets, and the FEC group state (by group id). So
// a power-of-two ring indexed by `seq & mask` stands in for an ordered
// tree: find, insert and erase are O(1), and walking a seq range touches
// one slot per seq.
//
// The semantics are those of std::map<std::int64_t, T>: the first insert of
// a seq wins, an insert may land anywhere (below the oldest entry too), and
// front() is always the smallest live seq. An erased slot keeps no value.
// The ring doubles when a new seq would not fit beside the live span
// [front(), back()]; a caller that bounds the span and reserves it up front
// never reallocates.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace rpv::rtp {

template <typename T>
class SeqWindow {
 public:
  // Room for `span` consecutive seqs without reallocating.
  void reserve(std::size_t span) {
    if (span > slots_.size()) regrow(span);
  }

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  // Smallest and largest live seq; only meaningful when !empty().
  [[nodiscard]] std::int64_t front() const { return front_; }
  [[nodiscard]] std::int64_t back() const { return back_; }

  [[nodiscard]] const T* find(std::int64_t seq) const {
    if (empty()) return nullptr;
    const Slot& s = slots_[index(seq)];
    return s.seq == seq ? &s.value : nullptr;
  }
  [[nodiscard]] T* find(std::int64_t seq) {
    return const_cast<T*>(std::as_const(*this).find(seq));
  }

  // Inserts unless `seq` is already live (the first insert wins, as with
  // std::map::emplace). Returns whether it inserted; a value that is not
  // inserted is not moved from.
  bool insert(std::int64_t seq, const T& value) {
    if (find(seq) != nullptr) return false;
    claim(seq) = value;
    return true;
  }
  bool insert(std::int64_t seq, T&& value) {
    if (find(seq) != nullptr) return false;
    claim(seq) = std::move(value);
    return true;
  }

  // Moves the value of the live `seq` out and erases it.
  [[nodiscard]] T take(std::int64_t seq) {
    T value = std::move(slot(seq).value);
    erase(seq);
    return value;
  }

  void erase(std::int64_t seq) {
    if (find(seq) == nullptr) return;
    slot(seq) = Slot{};
    if (--live_ == 0) return;
    // Another live seq lies inside the span, so both scans stop.
    if (seq == front_) {
      do ++front_; while (slot(front_).seq != front_);
    } else if (seq == back_) {
      do --back_; while (slot(back_).seq != back_);
    }
  }

  // Drops every seq below `bound`.
  void erase_below(std::int64_t bound) {
    while (!empty() && front_ < bound) erase(front_);
  }

 private:
  static constexpr std::int64_t kNone = std::numeric_limits<std::int64_t>::min();
  static constexpr std::size_t kMinCapacity = 64;

  // A slot is live exactly when it holds the seq it is indexed by; every
  // other slot holds kNone.
  struct Slot {
    std::int64_t seq = kNone;
    T value{};
  };

  std::size_t index(std::int64_t seq) const {
    return static_cast<std::size_t>(seq) & (slots_.size() - 1);
  }
  Slot& slot(std::int64_t seq) { return slots_[index(seq)]; }

  // Makes the free `seq` live and returns its value slot to fill.
  T& claim(std::int64_t seq) {
    if (empty()) {
      front_ = back_ = seq;
    } else {
      front_ = std::min(front_, seq);
      back_ = std::max(back_, seq);
    }
    const auto span = static_cast<std::size_t>(back_ - front_) + 1;
    if (span > slots_.size()) regrow(span);
    Slot& s = slot(seq);
    s.seq = seq;
    ++live_;
    return s.value;
  }

  void regrow(std::size_t span) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::bit_ceil(std::max(span, kMinCapacity)), Slot{});
    for (Slot& s : old) {
      if (s.seq != kNone) slot(s.seq) = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t live_ = 0;
  std::int64_t front_ = 0;
  std::int64_t back_ = 0;
};

}  // namespace rpv::rtp
