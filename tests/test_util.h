// Shared helpers for the test suite: deterministic random geometry,
// synthetic test images, descriptor generators.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>

#include "features/descriptor.h"
#include "features/matcher.h"
#include "geometry/se3.h"
#include "image/image.h"

namespace eslam::testing {

inline std::mt19937& rng(std::uint32_t seed = 0) {
  static thread_local std::mt19937 gen(12345);
  if (seed != 0) gen.seed(seed);
  return gen;
}

inline double uniform(double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  return d(rng());
}

inline Vec3 random_unit_vector() {
  while (true) {
    const Vec3 v{uniform(-1, 1), uniform(-1, 1), uniform(-1, 1)};
    const double n = v.norm();
    if (n > 1e-3 && n <= 1.0) return v / n;
  }
}

inline Mat3 random_rotation(double max_angle = M_PI * 0.9) {
  return so3_exp(uniform(0.0, max_angle) * random_unit_vector());
}

inline SE3 random_pose(double max_angle = M_PI * 0.9,
                       double max_translation = 2.0) {
  return SE3{random_rotation(max_angle),
             Vec3{uniform(-max_translation, max_translation),
                  uniform(-max_translation, max_translation),
                  uniform(-max_translation, max_translation)}};
}

inline Descriptor256 random_descriptor() {
  Descriptor256 d;
  std::uniform_int_distribution<std::uint64_t> dist;
  for (auto& w : d.words()) w = dist(rng());
  return d;
}

// `queries` ascending candidate lists of `per_query` train indices each,
// spread over a `train`-point map by a fixed stride pattern.
inline CandidateSet window_lists(std::size_t queries, std::size_t train,
                                 std::size_t per_query) {
  CandidateSet set;
  set.offsets.push_back(0);
  for (std::size_t q = 0; q < queries; ++q) {
    for (std::size_t k = 0; k < per_query; ++k)
      set.indices.push_back(
          static_cast<std::int32_t>((q * 7 + k * 13) % train));
    auto begin = set.indices.end() - static_cast<std::ptrdiff_t>(per_query);
    std::sort(begin, set.indices.end());
    set.offsets.push_back(static_cast<std::int32_t>(set.indices.size()));
  }
  return set;
}

// A noise image with enough structure for FAST/Harris (hash-based, fully
// deterministic).
inline ImageU8 structured_test_image(int w, int h, std::uint32_t seed = 7) {
  ImageU8 img(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      std::uint32_t v = seed;
      v ^= static_cast<std::uint32_t>(x / 6) * 0x9e3779b9u;
      v ^= static_cast<std::uint32_t>(y / 6) * 0x85ebca6bu;
      v ^= v >> 13;
      v *= 0xc2b2ae35u;
      v ^= v >> 16;
      img.at(x, y) = static_cast<std::uint8_t>(40 + (v % 176));
    }
  return img;
}

// A single bright square corner on dark background centred at (cx, cy).
inline ImageU8 corner_image(int w, int h, int cx, int cy) {
  ImageU8 img(w, h, 30);
  for (int y = cy; y < h; ++y)
    for (int x = cx; x < w; ++x) img.at(x, y) = 220;
  return img;
}

// The integer Harris formula read pixel by pixel through the asserted
// Image::at(), 64-bit sums — the pin every harris_score_int tier must
// reproduce exactly.
inline std::int64_t harris_at_reference(const ImageU8& img, int x, int y) {
  std::int64_t sxx = 0, syy = 0, sxy = 0;
  for (int dy = -3; dy <= 3; ++dy)
    for (int dx = -3; dx <= 3; ++dx) {
      const int px = x + dx, py = y + dy;
      const int a = img.at(px - 1, py - 1), b = img.at(px, py - 1),
                c = img.at(px + 1, py - 1);
      const int d = img.at(px - 1, py), f = img.at(px + 1, py);
      const int g = img.at(px - 1, py + 1), h = img.at(px, py + 1),
                i = img.at(px + 1, py + 1);
      const int gx = ((c + 2 * f + i) - (a + 2 * d + g)) >> 3;
      const int gy = ((g + 2 * h + i) - (a + 2 * b + c)) >> 3;
      sxx += gx * gx;
      syy += gy * gy;
      sxy += gx * gy;
    }
  const std::int64_t det = sxx * syy - sxy * sxy;
  const std::int64_t tr = sxx + syy;
  return det - ((41 * tr * tr) >> 10);
}

}  // namespace eslam::testing
