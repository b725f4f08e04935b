#include "image/convolve.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace eslam {

namespace {

constexpr int kBinomial7[7] = {1, 6, 15, 20, 15, 6, 1};  // sums to 64

}  // namespace

ImageU8 convolve_separable_u8(const ImageU8& src, const int* taps, int n,
                              int shift) {
  ESLAM_ASSERT(n % 2 == 1, "kernel length must be odd");
  const int r = n / 2;
  const int w = src.width(), h = src.height();

  // Horizontal pass into a 16-bit intermediate to keep full precision of
  // the first pass before the second shift (matches the HW datapath which
  // carries 14 bits between the two passes).
  Image<std::uint16_t> tmp(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      int acc = 0;
      for (int k = -r; k <= r; ++k)
        acc += taps[k + r] * src.at_clamped(x + k, y);
      tmp.at(x, y) = static_cast<std::uint16_t>(acc);
    }
  }
  ImageU8 dst(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      int acc = 0;
      for (int k = -r; k <= r; ++k)
        acc += taps[k + r] * tmp.at_clamped(x, y + k);
      // Two passes accumulate a factor of (2^shift)^2; divide once with
      // round-half-up.
      const int v = (acc + (1 << (2 * shift - 1))) >> (2 * shift);
      dst.at(x, y) = static_cast<std::uint8_t>(std::min(v, 255));
    }
  }
  return dst;
}

ImageU8 smooth_gaussian7_u8(const ImageU8& src) {
  Image<std::uint16_t> tmp;
  ImageU8 dst;
  smooth_gaussian7_u8_into(src, tmp, dst);
  return dst;
}

void smooth_gaussian7_u8_into(const ImageU8& src, Image<std::uint16_t>& tmp,
                              ImageU8& dst) {
  const int w = src.width(), h = src.height();
  // Interior columns [3, w - 3) and rows [3, h - 3) never clamp, so they run
  // on raw row pointers (which the compiler vectorizes); the borders keep
  // the clamped loop.  Both compute the same sums.
  const int x_lo = std::min(3, w), x_hi = std::max(x_lo, w - 3);
  const int y_lo = std::min(3, h), y_hi = std::max(y_lo, h - 3);

  tmp.reset(w, h);
  auto h_clamped = [&](int x, int y) {
    int acc = 0;
    for (int k = -3; k <= 3; ++k)
      acc += kBinomial7[k + 3] * src.at_clamped(x + k, y);
    tmp.at(x, y) = static_cast<std::uint16_t>(acc);  // <= 255*64 = 16320
  };
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < x_lo; ++x) h_clamped(x, y);
    const std::uint8_t* s = src.row(y);
    std::uint16_t* t = tmp.row(y);
    for (int x = x_lo; x < x_hi; ++x)
      t[x] = static_cast<std::uint16_t>(
          s[x - 3] + 6 * s[x - 2] + 15 * s[x - 1] + 20 * s[x] +
          15 * s[x + 1] + 6 * s[x + 2] + s[x + 3]);
    for (int x = x_hi; x < w; ++x) h_clamped(x, y);
  }

  dst.reset(w, h);
  auto v_clamped_row = [&](int y) {
    for (int x = 0; x < w; ++x) {
      int acc = 0;
      for (int k = -3; k <= 3; ++k)
        acc += kBinomial7[k + 3] * tmp.at_clamped(x, y + k);
      // acc <= 255 * 64 * 64; normalize by 4096 with round-half-up.
      const int v = (acc + 2048) >> 12;
      dst.at(x, y) = static_cast<std::uint8_t>(std::min(v, 255));
    }
  };
  for (int y = 0; y < y_lo; ++y) v_clamped_row(y);
  for (int y = y_lo; y < y_hi; ++y) {
    const std::uint16_t* t0 = tmp.row(y - 3);
    const std::uint16_t* t1 = tmp.row(y - 2);
    const std::uint16_t* t2 = tmp.row(y - 1);
    const std::uint16_t* t3 = tmp.row(y);
    const std::uint16_t* t4 = tmp.row(y + 1);
    const std::uint16_t* t5 = tmp.row(y + 2);
    const std::uint16_t* t6 = tmp.row(y + 3);
    std::uint8_t* d = dst.row(y);
    for (int x = 0; x < w; ++x) {
      const int acc = t0[x] + 6 * t1[x] + 15 * t2[x] + 20 * t3[x] +
                      15 * t4[x] + 6 * t5[x] + t6[x];
      d[x] = static_cast<std::uint8_t>(std::min((acc + 2048) >> 12, 255));
    }
  }
  for (int y = y_hi; y < h; ++y) v_clamped_row(y);
}

ImageF32 smooth_gaussian7_f32(const ImageU8& src) {
  constexpr double kSigma = 2.0;
  double taps[7];
  double sum = 0.0;
  for (int k = -3; k <= 3; ++k) {
    taps[k + 3] = std::exp(-(k * k) / (2.0 * kSigma * kSigma));
    sum += taps[k + 3];
  }
  for (double& t : taps) t /= sum;

  const int w = src.width(), h = src.height();
  ImageF32 tmp(w, h), dst(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      double acc = 0.0;
      for (int k = -3; k <= 3; ++k)
        acc += taps[k + 3] * src.at_clamped(x + k, y);
      tmp.at(x, y) = static_cast<float>(acc);
    }
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      double acc = 0.0;
      for (int k = -3; k <= 3; ++k)
        acc += taps[k + 3] * tmp.at_clamped(x, y + k);
      dst.at(x, y) = static_cast<float>(acc);
    }
  return dst;
}

}  // namespace eslam
