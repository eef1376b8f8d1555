#include "rtp/sequence.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "rtp/seq_window.hpp"

namespace rpv::rtp {
namespace {

TEST(SeqDiff, Basic) {
  EXPECT_EQ(seq_diff(10, 5), 5);
  EXPECT_EQ(seq_diff(5, 10), -5);
  EXPECT_EQ(seq_diff(7, 7), 0);
}

TEST(SeqDiff, AcrossWrap) {
  EXPECT_EQ(seq_diff(2, 65534), 4);
  EXPECT_EQ(seq_diff(65534, 2), -4);
}

TEST(SeqNewer, Semantics) {
  EXPECT_TRUE(seq_newer(1, 0));
  EXPECT_TRUE(seq_newer(0, 65535));  // wrapped
  EXPECT_FALSE(seq_newer(65535, 0));
}

TEST(SeqUnwrapper, MonotoneWithoutWrap) {
  SeqUnwrapper u;
  for (std::uint16_t s = 0; s < 1000; ++s) {
    EXPECT_EQ(u.unwrap(s), s);
  }
}

TEST(SeqUnwrapper, CrossesWrapForward) {
  SeqUnwrapper u;
  std::int64_t prev = u.unwrap(65530);
  for (int i = 0; i < 20; ++i) {
    const auto s = static_cast<std::uint16_t>(65531 + i);
    const std::int64_t v = u.unwrap(s);
    EXPECT_EQ(v, prev + 1);
    prev = v;
  }
}

TEST(SeqUnwrapper, ReorderedPacketMapsBackwards) {
  SeqUnwrapper u;
  u.unwrap(100);
  u.unwrap(101);
  u.unwrap(102);
  EXPECT_EQ(u.unwrap(99), u.highest() - 3);
  // State untouched by the reorder: next in-order value continues.
  const std::int64_t v103 = u.unwrap(103);
  EXPECT_EQ(v103, 103);
  EXPECT_EQ(u.highest(), v103);
}

TEST(SeqUnwrapper, ReorderAroundWrapDoesNotCorruptState) {
  // Regression: the old implementation shifted its base permanently when an
  // out-of-order pre-wrap packet arrived after the wrap, throwing every
  // subsequent value off by 65536.
  SeqUnwrapper u;
  std::int64_t v = 0;
  for (std::uint16_t s = 65500; s != 0; ++s) v = u.unwrap(s);  // up to 65535
  v = u.unwrap(0);
  v = u.unwrap(1);
  const std::int64_t at_one = v;
  // Late, reordered pre-wrap packet.
  EXPECT_EQ(u.unwrap(65534), at_one - 3);
  // In-order continuation must be exactly +1 from seq 1's value.
  EXPECT_EQ(u.unwrap(2), at_one + 1);
  EXPECT_EQ(u.unwrap(3), at_one + 2);
}

TEST(SeqUnwrapper, MultipleWraps) {
  SeqUnwrapper u;
  std::int64_t expected = 0;
  std::uint16_t s = 0;
  u.unwrap(0);
  for (std::int64_t i = 1; i <= 200000; ++i) {
    ++s;
    ++expected;
    EXPECT_EQ(u.unwrap(s), expected);
  }
}

TEST(SeqUnwrapper, LargeForwardJumpFollowed) {
  SeqUnwrapper u;
  u.unwrap(0);
  // A 1000-packet gap (sender-side discard) still unwraps forward.
  EXPECT_EQ(u.unwrap(1000), 1000);
}

TEST(SeqUnwrapper, StartedFlag) {
  SeqUnwrapper u;
  EXPECT_FALSE(u.started());
  u.unwrap(5);
  EXPECT_TRUE(u.started());
  EXPECT_EQ(u.highest(), 5);
}

// --- SeqWindow ---

TEST(SeqWindow, FirstInsertWinsAndFindsBySeq) {
  SeqWindow<int> w;
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.find(5), nullptr);
  EXPECT_TRUE(w.insert(5, 50));
  EXPECT_FALSE(w.insert(5, 51));
  ASSERT_NE(w.find(5), nullptr);
  EXPECT_EQ(*w.find(5), 50);
  EXPECT_EQ(w.find(6), nullptr);
  EXPECT_EQ(w.size(), 1u);
}

TEST(SeqWindow, FrontAndBackStayLive) {
  SeqWindow<int> w;
  for (std::int64_t s = 10; s < 20; ++s) w.insert(s, 0);
  w.erase(11);
  w.erase(10);  // the front skips the erased 11
  EXPECT_EQ(w.front(), 12);
  w.erase(19);
  w.erase(18);
  EXPECT_EQ(w.back(), 17);
  w.erase_below(15);
  EXPECT_EQ(w.front(), 15);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.find(14), nullptr);
}

TEST(SeqWindow, InsertBelowTheFrontAndNegativeSeqs) {
  SeqWindow<int> w;
  w.insert(3, 3);
  w.insert(-2, -2);
  EXPECT_EQ(w.front(), -2);
  EXPECT_EQ(w.back(), 3);
  w.erase(-2);
  EXPECT_EQ(w.front(), 3);
  w.erase(3);
  EXPECT_TRUE(w.empty());
  // A far-away insert after emptying needs no shared span.
  w.insert(1'000'000, 7);
  EXPECT_EQ(w.front(), 1'000'000);
  EXPECT_EQ(*w.find(1'000'000), 7);
}

TEST(SeqWindow, GrowsToFitTheSpanKeepingEntries) {
  SeqWindow<int> w;
  w.insert(0, 0);
  w.insert(5000, 5000);  // forces the ring past its minimum size
  EXPECT_GE(w.capacity(), 5001u);
  EXPECT_EQ(*w.find(0), 0);
  EXPECT_EQ(*w.find(5000), 5000);
  EXPECT_EQ(w.find(4096), nullptr);
}

TEST(SeqWindow, SlidingBoundedSpanNeverReallocates) {
  SeqWindow<int> w;
  w.reserve(257);
  const auto slots = w.capacity();
  for (std::int64_t s = 0; s < 100'000; ++s) {
    w.erase_below(s - 256);
    if (s % 5 != 0) w.insert(s, 0);
  }
  EXPECT_EQ(w.capacity(), slots);
}

TEST(SeqWindow, MoveInsertFindAndTakeOwnTheValue) {
  SeqWindow<std::vector<int>> w;
  std::vector<int> a{1, 2, 3};
  EXPECT_TRUE(w.insert(7, std::move(a)));
  std::vector<int> b{9};
  EXPECT_FALSE(w.insert(7, std::move(b)));
  EXPECT_EQ(b, std::vector<int>{9});  // not inserted, so not moved from
  ASSERT_NE(w.find(7), nullptr);
  w.find(7)->push_back(4);  // the mutable find edits in place
  w.insert(9, {5});
  const auto taken = w.take(7);
  EXPECT_EQ(taken, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(w.find(7), nullptr);
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(w.front(), 9);
}

}  // namespace
}  // namespace rpv::rtp
