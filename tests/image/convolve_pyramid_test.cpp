#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "../test_util.h"
#include "image/convolve.h"
#include "image/pyramid.h"

namespace eslam {
namespace {

TEST(Smoother, ConstantImageIsInvariant) {
  const ImageU8 img(32, 24, 117);
  const ImageU8 out = smooth_gaussian7_u8(img);
  for (int y = 0; y < img.height(); ++y)
    for (int x = 0; x < img.width(); ++x) EXPECT_EQ(out.at(x, y), 117);
}

TEST(Smoother, ImpulseResponseIsBinomial) {
  ImageU8 img(15, 15, 0);
  img.at(7, 7) = 255;
  const ImageU8 out = smooth_gaussian7_u8(img);
  // Center tap: 255 * 20 * 20 / 4096 = 24.9 -> 25 after rounding.
  EXPECT_EQ(out.at(7, 7), 25);
  // Separable symmetry.
  EXPECT_EQ(out.at(6, 7), out.at(8, 7));
  EXPECT_EQ(out.at(7, 6), out.at(7, 8));
  EXPECT_EQ(out.at(5, 7), out.at(7, 5));
  // Support is exactly 7x7.
  EXPECT_EQ(out.at(11, 7), 0);
  EXPECT_EQ(out.at(7, 11), 0);
  EXPECT_NE(out.at(10, 7), 0);
}

TEST(Smoother, PreservesMeanApproximately) {
  const ImageU8 img = eslam::testing::structured_test_image(64, 48);
  const ImageU8 out = smooth_gaussian7_u8(img);
  double mean_in = 0, mean_out = 0;
  for (int y = 0; y < img.height(); ++y)
    for (int x = 0; x < img.width(); ++x) {
      mean_in += img.at(x, y);
      mean_out += out.at(x, y);
    }
  mean_in /= static_cast<double>(img.pixel_count());
  mean_out /= static_cast<double>(img.pixel_count());
  EXPECT_NEAR(mean_in, mean_out, 1.0);
}

TEST(Smoother, IntegerTracksFloatReference) {
  const ImageU8 img = eslam::testing::structured_test_image(48, 40, 5);
  const ImageU8 fixed = smooth_gaussian7_u8(img);
  const ImageF32 ref = smooth_gaussian7_f32(img);
  // The binomial kernel approximates a sigma~1.6 Gaussian while the
  // reference uses sigma=2, so they agree only coarsely on high-frequency
  // noise; this bounds the divergence of the two smoothing choices.
  double max_err = 0;
  for (int y = 4; y < img.height() - 4; ++y)
    for (int x = 4; x < img.width() - 4; ++x)
      max_err = std::max(
          max_err, std::abs(static_cast<double>(fixed.at(x, y)) - ref.at(x, y)));
  EXPECT_LE(max_err, 26.0);
}

TEST(Smoother, GenericSeparableMatchesDedicated) {
  // Every size up to 9x9 (all-border through interior fast path), a mid
  // size and VGA, smoothed through one recycled buffer pair.
  static constexpr int taps[7] = {1, 6, 15, 20, 15, 6, 1};
  std::mt19937 rng(9);
  auto noise = [&](int w, int h) {
    ImageU8 img(w, h);
    for (auto& p : img.data()) p = static_cast<std::uint8_t>(rng() & 0xFF);
    return img;
  };
  std::vector<ImageU8> images;
  for (int h = 1; h <= 9; ++h)
    for (int w = 1; w <= 9; ++w) images.push_back(noise(w, h));
  images.push_back(eslam::testing::structured_test_image(30, 26, 8));
  images.push_back(noise(640, 480));

  Image<std::uint16_t> tmp;
  ImageU8 smoothed;
  for (const ImageU8& img : images) {
    smooth_gaussian7_u8_into(img, tmp, smoothed);
    EXPECT_EQ(smoothed, convolve_separable_u8(img, taps, 7, 6))
        << img.width() << "x" << img.height();
  }
}

TEST(Resize, NearestConstantImage) {
  const ImageU8 img(64, 48, 200);
  const ImageU8 out = resize_nearest(img, 53, 40);
  EXPECT_EQ(out.width(), 53);
  EXPECT_EQ(out.height(), 40);
  for (int y = 0; y < 40; ++y)
    for (int x = 0; x < 53; ++x) EXPECT_EQ(out.at(x, y), 200);
}

TEST(Resize, NearestSamplesExistingPixels) {
  const ImageU8 img = eslam::testing::structured_test_image(40, 30, 4);
  const ImageU8 out = resize_nearest(img, 33, 25);
  // Every output value must occur in the source (nearest neighbour never
  // invents values).
  for (int y = 0; y < out.height(); ++y)
    for (int x = 0; x < out.width(); ++x) {
      bool found = false;
      for (int sy = 0; sy < img.height() && !found; ++sy)
        for (int sx = 0; sx < img.width() && !found; ++sx)
          found = img.at(sx, sy) == out.at(x, y);
      ASSERT_TRUE(found);
    }
}

TEST(Resize, IdentityWhenSameSize) {
  const ImageU8 img = eslam::testing::structured_test_image(24, 18, 6);
  EXPECT_EQ(resize_nearest(img, 24, 18), img);
}

TEST(Resize, BilinearConstantImage) {
  const ImageU8 img(30, 20, 99);
  const ImageU8 out = resize_bilinear(img, 21, 13);
  for (int y = 0; y < out.height(); ++y)
    for (int x = 0; x < out.width(); ++x) EXPECT_EQ(out.at(x, y), 99);
}

TEST(Pyramid, LevelGeometryFollowsScale) {
  const ImageU8 img(640, 480, 10);
  const ImagePyramid pyr(img, 4, 1.2);
  ASSERT_EQ(pyr.levels(), 4);
  EXPECT_EQ(pyr.level(0).image.width(), 640);
  EXPECT_EQ(pyr.level(1).image.width(), 533);
  EXPECT_EQ(pyr.level(2).image.width(), 444);
  EXPECT_EQ(pyr.level(3).image.width(), 370);
  EXPECT_NEAR(pyr.level(3).scale, 1.2 * 1.2 * 1.2, 1e-12);
}

TEST(Pyramid, TotalPixelsMatchesSum) {
  const ImageU8 img(640, 480, 0);
  const ImagePyramid pyr(img, 4, 1.2);
  std::size_t sum = 0;
  for (int i = 0; i < 4; ++i) sum += pyr.level(i).image.pixel_count();
  EXPECT_EQ(pyr.total_pixels(), sum);
}

// The paper's section 4.4 arithmetic: a 4-layer pyramid processes ~48%
// more pixels than a 2-layer one at scale 1.2.
TEST(Pyramid, FourLayersProcess48PercentMorePixelsThanTwo) {
  const ImageU8 img(640, 480, 0);
  const ImagePyramid four(img, 4, 1.2);
  const ImagePyramid two(img, 2, 1.2);
  const double ratio = static_cast<double>(four.total_pixels()) /
                       static_cast<double>(two.total_pixels());
  EXPECT_NEAR(ratio, 1.48, 0.02);
}

class PyramidLevels : public ::testing::TestWithParam<int> {};

TEST_P(PyramidLevels, EveryLevelShrinksAndStaysNonEmpty) {
  const ImageU8 img = eslam::testing::structured_test_image(160, 120, 2);
  const ImagePyramid pyr(img, GetParam(), 1.2);
  for (int i = 1; i < pyr.levels(); ++i) {
    EXPECT_LT(pyr.level(i).image.width(), pyr.level(i - 1).image.width());
    EXPECT_LT(pyr.level(i).image.height(), pyr.level(i - 1).image.height());
    EXPECT_GE(pyr.level(i).image.width(), 8);
    EXPECT_GT(pyr.level(i).scale, pyr.level(i - 1).scale);
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, PyramidLevels, ::testing::Values(1, 2, 4, 6));

}  // namespace
}  // namespace eslam
