#include <gtest/gtest.h>

#include <random>
#include <utility>

#include "../test_util.h"
#include "features/fast.h"
#include "features/harris.h"

namespace eslam {
namespace {

TEST(Fast, CircleHasSixteenUniqueRadiusThreeOffsets) {
  const auto& circle = fast_circle();
  ASSERT_EQ(circle.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    const double r = std::hypot(circle[i].dx, circle[i].dy);
    EXPECT_NEAR(r, 3.0, 0.33) << "offset " << i;  // Bresenham circle
    for (std::size_t j = i + 1; j < 16; ++j)
      EXPECT_FALSE(circle[i].dx == circle[j].dx &&
                   circle[i].dy == circle[j].dy);
  }
}

TEST(Fast, DetectsBrightSquareCorner) {
  const ImageU8 img = eslam::testing::corner_image(40, 40, 20, 20);
  const auto kps = detect_fast(img, 20, 3);
  bool near_corner = false;
  for (const Keypoint& kp : kps)
    if (std::abs(kp.x - 20) <= 2 && std::abs(kp.y - 20) <= 2)
      near_corner = true;
  EXPECT_TRUE(near_corner);
}

TEST(Fast, DetectsDarkCornerToo) {
  ImageU8 img(40, 40, 220);
  for (int y = 20; y < 40; ++y)
    for (int x = 20; x < 40; ++x) img.at(x, y) = 30;
  const auto kps = detect_fast(img, 20, 3);
  bool near_corner = false;
  for (const Keypoint& kp : kps)
    if (std::abs(kp.x - 20) <= 2 && std::abs(kp.y - 20) <= 2)
      near_corner = true;
  EXPECT_TRUE(near_corner);
}

TEST(Fast, FlatImageHasNoCorners) {
  const ImageU8 img(32, 32, 128);
  EXPECT_TRUE(detect_fast(img, 10, 3).empty());
}

TEST(Fast, StraightEdgeIsNotACorner) {
  // A long vertical edge: every circle crossing has two arcs of ~8, below
  // the 9-contiguous requirement.
  ImageU8 img(40, 40, 30);
  for (int y = 0; y < 40; ++y)
    for (int x = 20; x < 40; ++x) img.at(x, y) = 220;
  for (int y = 10; y < 30; ++y) {
    EXPECT_FALSE(is_fast_corner(img, 20, y, 20)) << "y=" << y;
  }
}

TEST(Fast, WindowFormMatchesImageForm) {
  const ImageU8 img = eslam::testing::structured_test_image(64, 64, 12);
  for (int y = 3; y < 61; y += 5)
    for (int x = 3; x < 61; x += 5) {
      std::uint8_t win[7][7];
      for (int dy = -3; dy <= 3; ++dy)
        for (int dx = -3; dx <= 3; ++dx)
          win[3 + dy][3 + dx] = img.at(x + dx, y + dy);
      EXPECT_EQ(is_fast_corner(img, x, y, 20),
                is_fast_corner_window(win, 20))
          << "(" << x << "," << y << ")";
    }
}

class FastThreshold : public ::testing::TestWithParam<int> {};

TEST_P(FastThreshold, DetectionCountDecreasesMonotonically) {
  const ImageU8 img = eslam::testing::structured_test_image(96, 96, 77);
  const int t = GetParam();
  const auto at_t = detect_fast(img, t, 3).size();
  const auto at_t_plus = detect_fast(img, t + 10, 3).size();
  EXPECT_GE(at_t, at_t_plus);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, FastThreshold,
                         ::testing::Values(5, 10, 20, 30, 50));

TEST(Fast, RespectsMargin) {
  const ImageU8 img = eslam::testing::structured_test_image(64, 64, 31);
  for (const Keypoint& kp : detect_fast(img, 10, 8)) {
    EXPECT_GE(kp.x, 8);
    EXPECT_GE(kp.y, 8);
    EXPECT_LT(kp.x, 56);
    EXPECT_LT(kp.y, 56);
  }
}

TEST(Harris, CornerScoresHigherThanEdgeAndFlat) {
  const ImageU8 corner = eslam::testing::corner_image(40, 40, 20, 20);
  ImageU8 edge(40, 40, 30);
  for (int y = 0; y < 40; ++y)
    for (int x = 20; x < 40; ++x) edge.at(x, y) = 220;
  const ImageU8 flat(40, 40, 128);

  const auto corner_score = harris_score_int(corner, 20, 20);
  const auto edge_score = harris_score_int(edge, 20, 20);
  const auto flat_score = harris_score_int(flat, 20, 20);
  EXPECT_GT(corner_score, edge_score);
  EXPECT_GT(corner_score, 0);
  EXPECT_LT(edge_score, 0);  // det ~ 0, -k tr^2 < 0
  EXPECT_EQ(flat_score, 0);
}

TEST(Harris, IntegerMatchesAtReferenceEverywhere) {
  ImageU8 noise(40, 40);
  std::mt19937 rng(3);
  for (auto& p : noise.data()) p = static_cast<std::uint8_t>(rng() & 0xFF);
  const ImageU8 structured = eslam::testing::structured_test_image(64, 64, 21);
  for (const ImageU8* img : {&std::as_const(noise), &structured})
    for (int y = 4; y < img->height() - 4; ++y)
      for (int x = 4; x < img->width() - 4; ++x)
        ASSERT_EQ(harris_score_int(*img, x, y),
                  eslam::testing::harris_at_reference(*img, x, y))
            << img->width() << "x" << img->height() << " (" << x << "," << y
            << ")";
}

TEST(Harris, IntegerTracksFloatReference) {
  // The integer path truncates gradients (>>3, rounding toward -inf) while
  // the reference divides exactly, so individual scores can differ; what
  // must hold is a strong linear relationship (the heap only consumes the
  // ordering).  Require Pearson correlation > 0.95 over a dense sample.
  const ImageU8 img = eslam::testing::structured_test_image(64, 64, 15);
  std::vector<double> xs, ys;
  for (int y = 8; y < 56; y += 3)
    for (int x = 8; x < 56; x += 3) {
      xs.push_back(harris_score_ref(img, x, y));
      ys.push_back(static_cast<double>(harris_score_int(img, x, y)));
    }
  const auto n = static_cast<double>(xs.size());
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= n;
  my /= n;
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  EXPECT_GT(sxy / std::sqrt(sxx * syy), 0.95);
}

TEST(Harris, RankingAgreesWithReference) {
  // What the heap consumes is the *ordering*; spot-check that int and
  // float scores order keypoint pairs identically in the common case.
  const ImageU8 img = eslam::testing::structured_test_image(96, 96, 99);
  std::vector<std::pair<int, int>> points;
  for (int y = 10; y < 86; y += 9)
    for (int x = 10; x < 86; x += 9) points.emplace_back(x, y);
  int agreements = 0, comparisons = 0;
  for (std::size_t i = 0; i < points.size(); ++i)
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      const auto ref_order =
          harris_score_ref(img, points[i].first, points[i].second) <
          harris_score_ref(img, points[j].first, points[j].second);
      const auto int_order =
          harris_score_int(img, points[i].first, points[i].second) <
          harris_score_int(img, points[j].first, points[j].second);
      agreements += ref_order == int_order;
      ++comparisons;
    }
  EXPECT_GE(static_cast<double>(agreements) / comparisons, 0.97);
}

}  // namespace
}  // namespace eslam
