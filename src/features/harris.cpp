#include "features/harris.h"

#include "geometry/assert.h"

namespace eslam {

namespace {

// Sobel gradients at a single pixel.
inline void sobel(const ImageU8& img, int x, int y, int& gx, int& gy) {
  const int a = img.at(x - 1, y - 1), b = img.at(x, y - 1),
            c = img.at(x + 1, y - 1);
  const int d = img.at(x - 1, y), f = img.at(x + 1, y);
  const int g = img.at(x - 1, y + 1), h = img.at(x, y + 1),
            i = img.at(x + 1, y + 1);
  gx = (c + 2 * f + i) - (a + 2 * d + g);
  gy = (g + 2 * h + i) - (a + 2 * b + c);
}

}  // namespace

std::int64_t harris_score_int(const ImageU8& img, int x, int y) {
  constexpr int r = kHarrisBlock / 2;
  ESLAM_ASSERT(x >= r + 1 && y >= r + 1 && x < img.width() - r - 1 &&
                   y < img.height() - r - 1,
               "Harris window out of bounds");
  // The bounds check above covers every Sobel tap, so the block is read
  // through raw row pointers.  int32 sums cannot overflow: each product is
  // at most 128^2 and the block has 49 of them.
  std::int32_t sxx = 0, syy = 0, sxy = 0;
  for (int dy = -r; dy <= r; ++dy) {
    const std::uint8_t* above = img.row(y + dy - 1) + x;
    const std::uint8_t* mid = img.row(y + dy) + x;
    const std::uint8_t* below = img.row(y + dy + 1) + x;
    for (int dx = -r; dx <= r; ++dx) {
      const int a = above[dx - 1], b = above[dx], c = above[dx + 1];
      const int d = mid[dx - 1], f = mid[dx + 1];
      const int g = below[dx - 1], h = below[dx], i = below[dx + 1];
      // >>3 keeps the per-pixel product within 8+8 bit multiplier range
      // (|g| <= 1020 -> <= 127), the same quantization the DSP slices use.
      const int gx = ((c + 2 * f + i) - (a + 2 * d + g)) >> 3;
      const int gy = ((g + 2 * h + i) - (a + 2 * b + c)) >> 3;
      sxx += gx * gx;
      syy += gy * gy;
      sxy += gx * gy;
    }
  }
  const std::int64_t det = std::int64_t{sxx} * syy - std::int64_t{sxy} * sxy;
  const std::int64_t tr = std::int64_t{sxx} + syy;
  return det - ((41 * tr * tr) >> 10);  // k = 41/1024 ~ 0.04004
}

double harris_score_ref(const ImageU8& img, int x, int y) {
  constexpr int r = kHarrisBlock / 2;
  ESLAM_ASSERT(x >= r + 1 && y >= r + 1 && x < img.width() - r - 1 &&
                   y < img.height() - r - 1,
               "Harris window out of bounds");
  double sxx = 0, syy = 0, sxy = 0;
  for (int dy = -r; dy <= r; ++dy)
    for (int dx = -r; dx <= r; ++dx) {
      int gx, gy;
      sobel(img, x + dx, y + dy, gx, gy);
      const double fx = gx / 8.0, fy = gy / 8.0;
      sxx += fx * fx;
      syy += fy * fy;
      sxy += fx * fy;
    }
  return (sxx * syy - sxy * sxy) - 0.04 * (sxx + syy) * (sxx + syy);
}

}  // namespace eslam
