#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "../test_util.h"
#include "features/nms.h"
#include "features/orientation.h"
#include "image/convolve.h"

namespace eslam {
namespace {

Keypoint kp(int x, int y, std::int64_t score) {
  Keypoint k;
  k.x = x;
  k.y = y;
  k.score = score;
  return k;
}

TEST(Nms, KeepsIsolatedKeypoints) {
  const std::vector<Keypoint> in = {kp(5, 5, 10), kp(20, 20, 5)};
  EXPECT_EQ(nms_3x3(in, 32, 32).size(), 2u);
}

TEST(Nms, SuppressesWeakerNeighbour) {
  const std::vector<Keypoint> in = {kp(5, 5, 10), kp(6, 5, 20)};
  const auto out = nms_3x3(in, 32, 32);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].x, 6);
}

TEST(Nms, DiagonalNeighboursCompete) {
  const std::vector<Keypoint> in = {kp(5, 5, 10), kp(6, 6, 9), kp(4, 4, 11)};
  const auto out = nms_3x3(in, 32, 32);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].x, 4);
}

TEST(Nms, TwoApartBothSurvive) {
  const std::vector<Keypoint> in = {kp(5, 5, 10), kp(7, 5, 20)};
  EXPECT_EQ(nms_3x3(in, 32, 32).size(), 2u);
}

TEST(Nms, TieBreaksTowardEarlierKeypoint) {
  const std::vector<Keypoint> in = {kp(5, 5, 10), kp(6, 5, 10)};
  const auto out = nms_3x3(in, 32, 32);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].x, 5);
}

TEST(Nms, ChainSuppression) {
  // Ascending chain: only the last survives (each dominated by the next).
  std::vector<Keypoint> in;
  for (int i = 0; i < 8; ++i) in.push_back(kp(5 + i, 5, i));
  const auto out = nms_3x3(in, 32, 32);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].x, 12);
}

TEST(Nms, MatchesBruteForceOracle) {
  eslam::testing::rng(17);
  std::vector<Keypoint> in;
  for (int trial = 0; trial < 120; ++trial) {
    const int x = static_cast<int>(eslam::testing::uniform(0, 39.99));
    const int y = static_cast<int>(eslam::testing::uniform(0, 39.99));
    bool duplicate = false;
    for (const auto& k : in)
      if (k.x == x && k.y == y) duplicate = true;
    if (!duplicate)
      in.push_back(kp(x, y,
                      static_cast<std::int64_t>(
                          eslam::testing::uniform(0, 1000))));
  }
  const auto out = nms_3x3(in, 40, 40);
  // Oracle: i survives iff no strictly-stronger (or equal-and-earlier)
  // neighbour within Chebyshev distance 1.
  std::size_t expected = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    bool survives = true;
    for (std::size_t j = 0; j < in.size(); ++j) {
      if (i == j) continue;
      if (std::abs(in[i].x - in[j].x) <= 1 &&
          std::abs(in[i].y - in[j].y) <= 1 &&
          (in[j].score > in[i].score ||
           (in[j].score == in[i].score && j < i)))
        survives = false;
    }
    expected += survives;
  }
  EXPECT_EQ(out.size(), expected);
}

TEST(Nms, RowEndsDoNotAlias) {
  // (31, 5) is the last pixel of its row; (0, 6) starts the next row but
  // is 31 columns away, so neither suppresses the other.
  const std::vector<Keypoint> in = {kp(31, 5, 10), kp(0, 6, 20)};
  EXPECT_EQ(nms_3x3(in, 32, 32).size(), 2u);
  const std::vector<Keypoint> reversed = {kp(0, 6, 20), kp(31, 5, 10)};
  EXPECT_EQ(nms_3x3(reversed, 32, 32).size(), 2u);
}

TEST(Nms, MatchesBruteForceOracleWithTiesBordersAndAnyOrder) {
  // Small grids packed with keypoints: scores from {0..3} force ties,
  // coordinates cover every border pixel, the input order is shuffled and
  // duplicates at one pixel occur.  Only the first keypoint at a pixel is
  // a neighbour of the others; a survivor beats every neighbour strictly
  // or ties with a later one.  One scratch is recycled across every case.
  std::mt19937 rng(23);
  NmsScratch scratch;
  std::vector<Keypoint> out;
  std::size_t survivors = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const int w = 1 + static_cast<int>(rng() % 12);
    const int h = 1 + static_cast<int>(rng() % 12);
    const int n = static_cast<int>(rng() % static_cast<unsigned>(w * h + 4));
    std::vector<Keypoint> in;
    for (int i = 0; i < n; ++i)
      in.push_back(kp(static_cast<int>(rng() % static_cast<unsigned>(w)),
                      static_cast<int>(rng() % static_cast<unsigned>(h)),
                      static_cast<std::int64_t>(rng() % 4)));
    std::shuffle(in.begin(), in.end(), rng);

    std::vector<Keypoint> want;
    for (std::size_t i = 0; i < in.size(); ++i) {
      bool survives = true;
      for (std::size_t j = 0; j < in.size(); ++j) {
        const int dx = std::abs(in[i].x - in[j].x);
        const int dy = std::abs(in[i].y - in[j].y);
        if (dx > 1 || dy > 1 || (dx == 0 && dy == 0)) continue;
        bool first_at_pixel = true;
        for (std::size_t k = 0; k < j; ++k)
          if (in[k].x == in[j].x && in[k].y == in[j].y) first_at_pixel = false;
        if (first_at_pixel &&
            (in[j].score > in[i].score ||
             (in[j].score == in[i].score && j < i)))
          survives = false;
      }
      if (survives) want.push_back(in[i]);
    }

    nms_3x3_into(in, w, h, scratch, out);
    ASSERT_EQ(out.size(), want.size()) << "trial " << trial;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(out[i].x, want[i].x) << "trial " << trial << " survivor " << i;
      EXPECT_EQ(out[i].y, want[i].y) << "trial " << trial << " survivor " << i;
      EXPECT_EQ(out[i].score, want[i].score)
          << "trial " << trial << " survivor " << i;
    }
    survivors += want.size();
  }
  EXPECT_GT(survivors, 1000u);
  // The grid is back to empty after every call.
  for (const std::int32_t cell : scratch.grid) ASSERT_EQ(cell, -1);
}

TEST(Orientation, CircleSpanIsRadius15Disc) {
  EXPECT_EQ(circle_span(0), 15);
  EXPECT_EQ(circle_span(15), 3);
  for (int dy = 0; dy <= 15; ++dy) {
    const int s = circle_span(dy);
    // (s, dy) inside, (s+1, dy) outside the radius-15.5 disc ORB uses.
    EXPECT_LE(s * s + dy * dy, 16 * 16);
    EXPECT_GT((s + 1) * (s + 1) + dy * dy, 15 * 15);
  }
}

TEST(Orientation, GradientPointsAlongBrightSide) {
  // Brighter on +x side: centroid pulls along +x, angle ~ 0.
  ImageU8 img(64, 64, 0);
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x)
      img.at(x, y) = static_cast<std::uint8_t>(40 + 3 * x);
  EXPECT_NEAR(orientation_angle(img, 32, 32), 0.0, 0.02);
}

TEST(Orientation, RotatedGradientRotatesAngle) {
  // Brighter toward +y: angle ~ +90 degrees.
  ImageU8 img(64, 64, 0);
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x)
      img.at(x, y) = static_cast<std::uint8_t>(40 + 3 * y);
  EXPECT_NEAR(orientation_angle(img, 32, 32), M_PI / 2, 0.02);
}

TEST(Orientation, FlatPatchDefaultsToZero) {
  const ImageU8 img(64, 64, 128);
  EXPECT_EQ(orientation_angle(img, 32, 32), 0.0);
}

TEST(Orientation, DiscretizeNearestBin) {
  const double step = 11.25 * M_PI / 180.0;
  EXPECT_EQ(discretize_orientation(0.0), 0);
  EXPECT_EQ(discretize_orientation(step), 1);
  EXPECT_EQ(discretize_orientation(step * 0.49), 0);
  EXPECT_EQ(discretize_orientation(step * 0.51), 1);
  EXPECT_EQ(discretize_orientation(-step), 31);
  EXPECT_EQ(discretize_orientation(M_PI), 16);
  EXPECT_EQ(discretize_orientation(-M_PI), 16);
}

class OrientationSweep : public ::testing::TestWithParam<int> {};

// A synthetic directional patch at each of the 32 canonical angles must
// discretize to that label.
TEST_P(OrientationSweep, DirectionalPatchYieldsExpectedLabel) {
  const int label = GetParam();
  const double angle = label * 11.25 * M_PI / 180.0;
  ImageU8 img(64, 64, 0);
  const double dx = std::cos(angle), dy = std::sin(angle);
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x) {
      const double proj = (x - 32) * dx + (y - 32) * dy;
      img.at(x, y) =
          static_cast<std::uint8_t>(std::clamp(128.0 + 4.0 * proj, 0.0, 255.0));
    }
  const double measured = orientation_angle(img, 32, 32);
  EXPECT_EQ(discretize_orientation(measured), label);
}

INSTANTIATE_TEST_SUITE_P(AllLabels, OrientationSweep, ::testing::Range(0, 32));

}  // namespace
}  // namespace eslam
