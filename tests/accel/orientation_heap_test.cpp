#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "../test_util.h"
#include "accel/heap_hw.h"
#include "accel/orientation_hw.h"
#include "features/orientation.h"

namespace eslam {
namespace {

TEST(OrientationHw, CardinalDirections) {
  EXPECT_EQ(orientation_label_hw(1000, 0), 0);     // 0 deg
  EXPECT_EQ(orientation_label_hw(0, 1000), 8);     // 90 deg
  EXPECT_EQ(orientation_label_hw(-1000, 0), 16);   // 180 deg
  EXPECT_EQ(orientation_label_hw(0, -1000), 24);   // 270 deg
}

TEST(OrientationHw, DiagonalDirections) {
  EXPECT_EQ(orientation_label_hw(1000, 1000), 4);    // 45 deg
  EXPECT_EQ(orientation_label_hw(-1000, 1000), 12);  // 135 deg
  EXPECT_EQ(orientation_label_hw(-1000, -1000), 20); // 225 deg
  EXPECT_EQ(orientation_label_hw(1000, -1000), 28);  // 315 deg
}

// Dense sweep: the integer ladder agrees with round(atan2 / 11.25 deg)
// everywhere except within the Q16 rounding slack of a bin boundary.
class OrientationLadderSweep : public ::testing::TestWithParam<int> {};

TEST_P(OrientationLadderSweep, AgreesWithFloatReferenceAwayFromBoundaries) {
  const int step_count = 720;
  const int offset = GetParam();
  int checked = 0;
  for (int k = 0; k < step_count; ++k) {
    const double angle =
        (k + offset / 10.0) * 2.0 * M_PI / step_count - M_PI;
    const double mag = 1e5;
    const auto u = static_cast<std::int64_t>(std::llround(mag * std::cos(angle)));
    const auto v = static_cast<std::int64_t>(std::llround(mag * std::sin(angle)));
    const int expected = discretize_orientation(std::atan2(
        static_cast<double>(v), static_cast<double>(u)));
    // Skip angles within 0.05 deg of a boundary (quantization slack).
    const double bin_pos = angle / (11.25 * M_PI / 180.0);
    const double frac = std::abs(bin_pos - std::floor(bin_pos) - 0.5);
    if (frac < 0.005) continue;
    EXPECT_EQ(orientation_label_hw(u, v), expected)
        << "angle=" << angle * 180.0 / M_PI << " deg";
    ++checked;
  }
  EXPECT_GT(checked, 600);
}

INSTANTIATE_TEST_SUITE_P(PhaseOffsets, OrientationLadderSweep,
                         ::testing::Values(0, 3, 7));

TEST(OrientationHw, ZeroMomentsGiveLabelZero) {
  EXPECT_EQ(orientation_label_hw(0, 0), 0);
}

TEST(OrientationHw, MagnitudeInvariance) {
  // The label depends only on the ratio v/u and signs.
  for (std::int64_t scale : {1, 10, 1000, 100000}) {
    EXPECT_EQ(orientation_label_hw(3 * scale, 2 * scale),
              orientation_label_hw(3, 2));
  }
}

// --- FilterHeap -------------------------------------------------------------

Feature feat(std::int64_t score, int x = 0) {
  Feature f;
  f.keypoint.score = score;
  f.keypoint.x = x;
  return f;
}

TEST(FilterHeap, KeepsEverythingBelowCapacity) {
  FilterHeap heap(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(heap.offer(feat(i)));
  EXPECT_EQ(heap.size(), 5u);
  EXPECT_EQ(heap.min_score(), 0);
}

TEST(FilterHeap, EvictsWeakestWhenFull) {
  FilterHeap heap(4);
  for (int i = 0; i < 4; ++i) heap.offer(feat(i * 10));  // 0,10,20,30
  EXPECT_FALSE(heap.offer(feat(-5)));  // weaker than min: rejected
  EXPECT_TRUE(heap.offer(feat(15)));   // evicts 0
  EXPECT_EQ(heap.size(), 4u);
  EXPECT_EQ(heap.min_score(), 10);
}

TEST(FilterHeap, DrainEmptiesHeap) {
  FilterHeap heap(4);
  for (int i = 0; i < 6; ++i) heap.offer(feat(i));
  FeatureList out;
  heap.drain_into(out);
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(heap.size(), 0u);
}

class HeapOracle : public ::testing::TestWithParam<int> {};

TEST_P(HeapOracle, MatchesSortBasedTopK) {
  eslam::testing::rng(static_cast<std::uint32_t>(500 + GetParam()));
  const std::size_t capacity = 64;
  FilterHeap heap(capacity);
  std::vector<std::int64_t> scores;
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    const auto s =
        static_cast<std::int64_t>(eslam::testing::uniform(-1e6, 1e6));
    scores.push_back(s);
    heap.offer(feat(s, i));
  }
  FeatureList kept;
  heap.drain_into(kept);
  ASSERT_EQ(kept.size(), capacity);

  std::sort(scores.rbegin(), scores.rend());
  std::vector<std::int64_t> kept_scores;
  for (const Feature& f : kept) kept_scores.push_back(f.keypoint.score);
  std::sort(kept_scores.rbegin(), kept_scores.rend());
  for (std::size_t i = 0; i < capacity; ++i)
    EXPECT_EQ(kept_scores[i], scores[i]) << "rank " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapOracle, ::testing::Range(0, 8));

TEST(FilterHeap, CycleCostIsLogarithmic) {
  FilterHeap heap(1024);
  // Fill with ascending scores: every insert sifts to the top region.
  for (int i = 0; i < 4096; ++i) heap.offer(feat(i));
  // Worst case per op is ~1 + log2(1024) = 11 cycles; average well below.
  const double per_op = static_cast<double>(heap.cycles()) / 4096.0;
  EXPECT_LT(per_op, 12.0);
  EXPECT_GT(per_op, 1.0);
}

TEST(FilterHeap, StorageMatchesPaperHeapGeometry) {
  FilterHeap heap(1024);
  // 1024 x (256 descriptor + 32 coord + 32 score + 8 aux) bits = 41 KB.
  EXPECT_EQ(heap.storage_bits(), 1024u * 328u);
}

}  // namespace
}  // namespace eslam
