#include "features/fast.h"

#include <bit>
#include <cstddef>

#include "core/simd_dispatch.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace eslam {

const std::array<FastOffset, 16>& fast_circle() {
  static const std::array<FastOffset, 16> kCircle = {{{0, -3},
                                                      {1, -3},
                                                      {2, -2},
                                                      {3, -1},
                                                      {3, 0},
                                                      {3, 1},
                                                      {2, 2},
                                                      {1, 3},
                                                      {0, 3},
                                                      {-1, 3},
                                                      {-2, 2},
                                                      {-3, 1},
                                                      {-3, 0},
                                                      {-3, -1},
                                                      {-2, -2},
                                                      {-1, -3}}};
  return kCircle;
}

namespace {

// Classifies the 16 circle pixels against (center ± t) and scans for a
// contiguous arc of >= 9 equal classifications (wrapping).
bool segment_test(const int ring[16], int center, int threshold) {
  const int hi = center + threshold;
  const int lo = center - threshold;

  // Fast reject: a 9-arc must contain at least 2 of the 4 compass pixels
  // {0, 4, 8, 12} on the same side.
  int brighter4 = 0, darker4 = 0;
  for (int i = 0; i < 16; i += 4) {
    if (ring[i] > hi) ++brighter4;
    if (ring[i] < lo) ++darker4;
  }
  if (brighter4 < 2 && darker4 < 2) return false;

  auto has_arc = [&](auto pred) {
    int run = 0;
    // Scan 16 + 8 entries so wrapping arcs are found without special cases.
    for (int i = 0; i < 16 + kFastArcLength - 1; ++i) {
      if (pred(ring[i % 16])) {
        if (++run >= kFastArcLength) return true;
      } else {
        run = 0;
      }
    }
    return false;
  };
  if (brighter4 >= 2 && has_arc([&](int v) { return v > hi; })) return true;
  if (darker4 >= 2 && has_arc([&](int v) { return v < lo; })) return true;
  return false;
}

}  // namespace

bool is_fast_corner(const ImageU8& img, int x, int y, int threshold) {
  ESLAM_ASSERT(x >= 3 && y >= 3 && x < img.width() - 3 && y < img.height() - 3,
               "FAST test requires a 3-pixel border");
  int ring[16];
  const auto& circle = fast_circle();
  for (int i = 0; i < 16; ++i)
    ring[i] = img.at(x + circle[i].dx, y + circle[i].dy);
  return segment_test(ring, img.at(x, y), threshold);
}

bool is_fast_corner_window(const std::uint8_t win[7][7], int threshold) {
  int ring[16];
  const auto& circle = fast_circle();
  for (int i = 0; i < 16; ++i)
    ring[i] = win[3 + circle[i].dy][3 + circle[i].dx];
  return segment_test(ring, win[3][3], threshold);
}

std::vector<Keypoint> detect_fast(const ImageU8& img, int threshold,
                                  int margin) {
  std::vector<Keypoint> out;
  detect_fast_into(img, threshold, margin, out);
  return out;
}

namespace {

// True when the 16-bit ring mask (bit i = circle pixel i passes) holds a
// contiguous, wrapping run of >= kFastArcLength set bits.  Doubling the mask
// to 32 bits unrolls the wrap; runs of 2, 4, 8 and then 9 are AND-folded.
inline bool has_arc9(std::uint32_t ring_mask) {
  const std::uint32_t m = ring_mask | (ring_mask << 16);
  std::uint32_t run = m & (m >> 1);
  run &= run >> 2;
  run &= run >> 4;
  run &= m >> 8;
  return run != 0;
}

inline void push_corner(int x, int y, std::vector<Keypoint>& out) {
  Keypoint kp;
  kp.x = x;
  kp.y = y;
  out.push_back(kp);
}

// Row-pointer form of is_fast_corner over x in [x_begin, x_end) of row y;
// `offsets` are the circle's pointer offsets for this image's stride.  Any
// threshold: the bounds stay in int, as in segment_test.  A 9-arc always
// covers >= 2 of the 4 compass pixels, so the compass count is a pure
// pre-reject and the result is "bright arc or dark arc".
void detect_fast_row_scalar(const ImageU8& img, const std::ptrdiff_t* offsets,
                            int y, int x_begin, int x_end, int threshold,
                            std::vector<Keypoint>& out) {
  const std::uint8_t* row = img.row(y);
  for (int x = x_begin; x < x_end; ++x) {
    const std::uint8_t* p = row + x;
    const int hi = p[0] + threshold;
    const int lo = p[0] - threshold;
    const int c0 = p[offsets[0]], c4 = p[offsets[4]], c8 = p[offsets[8]],
              c12 = p[offsets[12]];
    const int brighter4 = (c0 > hi) + (c4 > hi) + (c8 > hi) + (c12 > hi);
    const int darker4 = (c0 < lo) + (c4 < lo) + (c8 < lo) + (c12 < lo);
    if (brighter4 < 2 && darker4 < 2) continue;
    std::uint32_t bright = 0, dark = 0;
    for (int i = 0; i < 16; ++i) {
      const int v = p[offsets[i]];
      bright |= static_cast<std::uint32_t>(v > hi) << i;
      dark |= static_cast<std::uint32_t>(v < lo) << i;
    }
    if (has_arc9(bright) || has_arc9(dark)) push_corner(x, y, out);
  }
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2"))) inline __m256i load32(const std::uint8_t* q) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q));
}

// 32 pixels per step.  For t in [0, 255], saturating c + t / c - t give the
// same decisions as the int bounds: v > 255 and v < 0 are never true for a
// u8 ring pixel.  Unsigned bytes compare as signed after flipping bit 7.
// Returns the first x it did not process; the caller finishes the row.
__attribute__((target("avx2"))) int detect_fast_row_avx2(
    const ImageU8& img, const std::ptrdiff_t* offsets, int y, int x_begin,
    int x_end, int threshold, std::vector<Keypoint>& out) {
  const std::uint8_t* row = img.row(y);
  const __m256i t = _mm256_set1_epi8(static_cast<char>(threshold));
  const __m256i flip = _mm256_set1_epi8(static_cast<char>(0x80));
  const __m256i minus_one = _mm256_set1_epi8(-1);

  int x = x_begin;
  for (; x + 32 <= x_end; x += 32) {
    const std::uint8_t* p = row + x;
    const __m256i c = load32(p);
    const __m256i hi = _mm256_xor_si256(_mm256_adds_epu8(c, t), flip);
    const __m256i lo = _mm256_xor_si256(_mm256_subs_epu8(c, t), flip);
    __m256i bright[16], dark[16];
    for (int i = 0; i < 16; i += 4) {
      const __m256i v = _mm256_xor_si256(load32(p + offsets[i]), flip);
      bright[i] = _mm256_cmpgt_epi8(v, hi);
      dark[i] = _mm256_cmpgt_epi8(lo, v);
    }

    // Compass pre-reject: each mask byte is 0 or -1, so a sum <= -2 means
    // at least 2 of the 4 compass pixels are on that side.
    const __m256i bright4 =
        _mm256_add_epi8(_mm256_add_epi8(bright[0], bright[4]),
                        _mm256_add_epi8(bright[8], bright[12]));
    const __m256i dark4 = _mm256_add_epi8(_mm256_add_epi8(dark[0], dark[4]),
                                          _mm256_add_epi8(dark[8], dark[12]));
    const __m256i pass =
        _mm256_or_si256(_mm256_cmpgt_epi8(minus_one, bright4),
                        _mm256_cmpgt_epi8(minus_one, dark4));
    std::uint32_t lanes =
        static_cast<std::uint32_t>(_mm256_movemask_epi8(pass));
    if (lanes == 0) continue;

    for (int i = 0; i < 16; ++i) {
      if (i % 4 == 0) continue;
      const __m256i v = _mm256_xor_si256(load32(p + offsets[i]), flip);
      bright[i] = _mm256_cmpgt_epi8(v, hi);
      dark[i] = _mm256_cmpgt_epi8(lo, v);
    }
    // Per-lane ring masks, one byte per half: bit i of byte k is circle
    // pixel 8k + i.
    __m256i bright_lo = _mm256_setzero_si256(), bright_hi = bright_lo;
    __m256i dark_lo = bright_lo, dark_hi = bright_lo;
    for (int i = 0; i < 8; ++i) {
      const __m256i bit = _mm256_set1_epi8(static_cast<char>(1 << i));
      bright_lo = _mm256_or_si256(bright_lo, _mm256_and_si256(bright[i], bit));
      bright_hi =
          _mm256_or_si256(bright_hi, _mm256_and_si256(bright[i + 8], bit));
      dark_lo = _mm256_or_si256(dark_lo, _mm256_and_si256(dark[i], bit));
      dark_hi = _mm256_or_si256(dark_hi, _mm256_and_si256(dark[i + 8], bit));
    }
    alignas(32) std::uint8_t b_lo[32], b_hi[32], d_lo[32], d_hi[32];
    _mm256_store_si256(reinterpret_cast<__m256i*>(b_lo), bright_lo);
    _mm256_store_si256(reinterpret_cast<__m256i*>(b_hi), bright_hi);
    _mm256_store_si256(reinterpret_cast<__m256i*>(d_lo), dark_lo);
    _mm256_store_si256(reinterpret_cast<__m256i*>(d_hi), dark_hi);
    while (lanes != 0) {
      const int j = std::countr_zero(lanes);
      lanes &= lanes - 1;
      if (has_arc9(b_lo[j] | (std::uint32_t{b_hi[j]} << 8)) ||
          has_arc9(d_lo[j] | (std::uint32_t{d_hi[j]} << 8)))
        push_corner(x + j, y, out);
    }
  }
  return x;
}
#endif

}  // namespace

void detect_fast_into(const ImageU8& img, int threshold, int margin,
                      std::vector<Keypoint>& out) {
  ESLAM_ASSERT(margin >= 3, "margin must cover the FAST circle");
  out.clear();
  std::ptrdiff_t offsets[16];
  const auto& circle = fast_circle();
  for (int i = 0; i < 16; ++i)
    offsets[i] =
        static_cast<std::ptrdiff_t>(circle[i].dy) * img.width() + circle[i].dx;
  const int x_end = img.width() - margin;
#if defined(__x86_64__) || defined(__i386__)
  const bool avx2 = simd::active_isa() == simd::IsaLevel::kAvx2 &&
                    threshold >= 0 && threshold <= 255;
#endif
  for (int y = margin; y < img.height() - margin; ++y) {
    int x = margin;
#if defined(__x86_64__) || defined(__i386__)
    if (avx2)
      x = detect_fast_row_avx2(img, offsets, y, x, x_end, threshold, out);
#endif
    detect_fast_row_scalar(img, offsets, y, x, x_end, threshold, out);
  }
}

}  // namespace eslam
