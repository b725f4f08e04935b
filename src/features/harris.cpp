#include "features/harris.h"

#include "core/simd_dispatch.h"
#include "geometry/assert.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

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

std::int64_t harris_response(std::int32_t sxx, std::int32_t syy,
                             std::int32_t sxy) {
  const std::int64_t det = std::int64_t{sxx} * syy - std::int64_t{sxy} * sxy;
  const std::int64_t tr = std::int64_t{sxx} + syy;
  return det - ((41 * tr * tr) >> 10);  // k = 41/1024 ~ 0.04004
}

// Row-pointer scalar tier.  int32 sums cannot overflow: each product is at
// most 128^2 and the block has 49 of them.
std::int64_t harris_scalar(const ImageU8& img, int x, int y) {
  constexpr int r = kHarrisBlock / 2;
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
  return harris_response(sxx, syy, sxy);
}

#if defined(__x86_64__) || defined(__i386__)
// One window row, `p` at column x - 4.  `left` holds columns x-4..x+3 and
// `mid` columns x-3..x+4 as int16 lanes (two 8-byte loads; the last byte
// read is column x + 4).  `right` is `mid` shifted down one lane, not a third
// load, so its lane 7 is zero and the caller masks that lane.  Lane k gets
// the horizontal Sobel taps of centre column x - 3 + k: diff = right - left,
// sum = left + 2 * mid + right.
__attribute__((target("avx2"))) inline void harris_row_avx2(
    const std::uint8_t* p, __m128i& diff, __m128i& sum) {
  const __m128i left = _mm_cvtepu8_epi16(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  const __m128i mid = _mm_cvtepu8_epi16(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p + 1)));
  const __m128i right = _mm_srli_si128(mid, 2);
  diff = _mm_sub_epi16(right, left);
  sum = _mm_add_epi16(_mm_add_epi16(left, right), _mm_add_epi16(mid, mid));
}

// The 7x7 block as 7 output rows of 7 lanes (lane 7 masked): gx/gy are the
// vertical Sobel passes over the row taps (|g| <= 1020 fits int16), >>3 is
// srai_epi16 (the same floor shift as the scalar int >> 3) and madd_epi16
// sums lane pairs of the products into int32.
__attribute__((target("avx2"))) std::int64_t harris_avx2(const ImageU8& img,
                                                          int x, int y) {
  const std::size_t stride = static_cast<std::size_t>(img.width());
  const std::uint8_t* p = img.row(y - 4) + (x - 4);
  __m128i diff[9], sum[9];
  for (int r = 0; r < 9; ++r) harris_row_avx2(p + r * stride, diff[r], sum[r]);

  const __m128i lanes_0_6 = _mm_setr_epi16(-1, -1, -1, -1, -1, -1, -1, 0);
  __m128i acc_xx = _mm_setzero_si128(), acc_yy = acc_xx, acc_xy = acc_xx;
  for (int r = 1; r <= 7; ++r) {
    const __m128i gx = _mm_add_epi16(
        _mm_add_epi16(diff[r - 1], diff[r + 1]), _mm_add_epi16(diff[r], diff[r]));
    const __m128i gy = _mm_sub_epi16(sum[r + 1], sum[r - 1]);
    const __m128i qx = _mm_and_si128(_mm_srai_epi16(gx, 3), lanes_0_6);
    const __m128i qy = _mm_and_si128(_mm_srai_epi16(gy, 3), lanes_0_6);
    acc_xx = _mm_add_epi32(acc_xx, _mm_madd_epi16(qx, qx));
    acc_yy = _mm_add_epi32(acc_yy, _mm_madd_epi16(qy, qy));
    acc_xy = _mm_add_epi32(acc_xy, _mm_madd_epi16(qx, qy));
  }
  // [xx, yy, xy, xy] after two rounds of pairwise horizontal adds.
  const __m128i h = _mm_hadd_epi32(_mm_hadd_epi32(acc_xx, acc_yy),
                                   _mm_hadd_epi32(acc_xy, acc_xy));
  return harris_response(_mm_cvtsi128_si32(h), _mm_extract_epi32(h, 1),
                         _mm_extract_epi32(h, 2));
}
#endif

}  // namespace

std::int64_t harris_score_int(const ImageU8& img, int x, int y) {
  constexpr int r = kHarrisBlock / 2;
  ESLAM_ASSERT(x >= r + 1 && y >= r + 1 && x < img.width() - r - 1 &&
                   y < img.height() - r - 1,
               "Harris window out of bounds");
  // The bounds check above covers every Sobel tap, so both tiers read the
  // block through raw row pointers.
#if defined(__x86_64__) || defined(__i386__)
  if (simd::active_isa() == simd::IsaLevel::kAvx2) return harris_avx2(img, x, y);
#endif
  return harris_scalar(img, x, y);
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
