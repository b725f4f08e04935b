#include "features/brief.h"

#include <cstddef>

namespace eslam {

Descriptor256 compute_descriptor(const ImageU8& smoothed, int x, int y,
                                 const Pattern256& pattern) {
  ESLAM_ASSERT(x >= kPatternRadius && y >= kPatternRadius &&
                   x < smoothed.width() - kPatternRadius &&
                   y < smoothed.height() - kPatternRadius,
               "descriptor patch out of bounds");
  // Every pattern location lies within kPatternRadius, so the check above
  // bounds all 512 reads.
  const std::ptrdiff_t stride = smoothed.width();
  const std::uint8_t* center = smoothed.row(y) + x;
  Descriptor256 d;
  for (int w = 0; w < Descriptor256::kWords; ++w) {
    std::uint64_t word = 0;
    for (int b = 0; b < 64; ++b) {
      const TestPair& p = pattern[static_cast<std::size_t>(64 * w + b)];
      const int is = center[p.s.y * stride + p.s.x];
      const int id = center[p.d.y * stride + p.d.x];
      word |= static_cast<std::uint64_t>(is > id) << b;
    }
    d.words()[static_cast<std::size_t>(w)] = word;
  }
  return d;
}

Descriptor256 rs_brief_descriptor(const ImageU8& smoothed, int x, int y,
                                  const RsBriefPattern& pattern, int label) {
  // Compute once at label 0, steer with the barrel shift — this is the
  // entire cost the BRIEF Rotator pays per feature.
  return compute_descriptor(smoothed, x, y, pattern.base())
      .rotated_bytes(label);
}

Descriptor256 orb_descriptor_lut(const ImageU8& smoothed, int x, int y,
                                 const OriginalBriefPattern& pattern,
                                 double angle_radians) {
  const int bin = OriginalBriefPattern::lut_bin(angle_radians);
  return compute_descriptor(smoothed, x, y, pattern.steered_lut(bin));
}

Descriptor256 orb_descriptor_exact(const ImageU8& smoothed, int x, int y,
                                   const OriginalBriefPattern& pattern,
                                   double angle_radians) {
  return compute_descriptor(smoothed, x, y,
                            pattern.steered_exact(angle_radians));
}

}  // namespace eslam
