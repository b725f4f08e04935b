// Harris corner response.
//
// The paper's FAST Detection module computes a Harris score per detected
// keypoint; it is the ranking key of the 1024-entry filtering heap.  The
// integer implementation here (Sobel gradients over a 7x7 block, k = 41/1024
// ~ 0.04) is the one the HW model reuses bit-for-bit; a floating-point
// reference (k = 0.04 exactly) backs the accuracy tests.
#pragma once

#include <cstdint>

#include "image/image.h"

namespace eslam {

inline constexpr int kHarrisBlock = 7;  // 7x7 gradient window

// Integer Harris response at (x, y); requires a 4-pixel border (3 for the
// block + 1 for Sobel).  Response = det(M) - (41/1024) * trace(M)^2 where
// M accumulates Sobel gradients over the block; gradients are right-shifted
// by 3 before accumulation to keep products in 64-bit range, matching the
// DSP-width-limited hardware datapath.  Dispatched through
// simd::active_isa(): an AVX2 tier (one int16 vector per window row) and a
// row-pointer scalar tier, bit-identical to each other.
std::int64_t harris_score_int(const ImageU8& img, int x, int y);

// Floating-point reference with k = 0.04 on the same window.
double harris_score_ref(const ImageU8& img, int x, int y);

}  // namespace eslam
