// FAST-9/16 corner detector (Features from Accelerated Segment Test).
//
// A pixel p is a corner when >= 9 contiguous pixels on the radius-3
// Bresenham circle are all brighter than p + t or all darker than p - t.
// The circle spans a 7x7 window — exactly the patch the paper's FAST
// Detection module consumes per cycle.
#pragma once

#include <vector>

#include "features/keypoint.h"
#include "image/image.h"

namespace eslam {

// The 16 circle offsets in clockwise order starting at 12 o'clock.
struct FastOffset {
  int dx, dy;
};
const std::array<FastOffset, 16>& fast_circle();

inline constexpr int kFastArcLength = 9;
inline constexpr int kFastDefaultThreshold = 20;

// Tests a single pixel.  (x, y) must be >= 3 pixels from every border.
bool is_fast_corner(const ImageU8& img, int x, int y, int threshold);

// Same decision from an explicit 7x7 window (row-major, win[3][3] is the
// candidate) — the form the streaming hardware evaluates.  Bit-identical to
// is_fast_corner on the same pixels.
bool is_fast_corner_window(const std::uint8_t win[7][7], int threshold);

// Detects all FAST corners with a border margin (margin >= 3).
std::vector<Keypoint> detect_fast(const ImageU8& img, int threshold,
                                  int margin = 3);

// Same scan into a recycled vector (cleared first).  Dispatched through
// simd::active_isa(): AVX2 for thresholds in [0, 255], a row-pointer scalar
// tier otherwise; every tier returns exactly the is_fast_corner raster scan.
void detect_fast_into(const ImageU8& img, int threshold, int margin,
                      std::vector<Keypoint>& out);

}  // namespace eslam
