#include "features/orb.h"

#include <algorithm>
#include <cmath>

#include "features/harris.h"
#include "features/nms.h"
#include "features/orientation.h"
#include "image/convolve.h"

namespace eslam {

OrbExtractor::OrbExtractor(const OrbConfig& config)
    : config_(config),
      rs_pattern_(kDefaultPatternSeed),
      orb_pattern_(kDefaultPatternSeed) {
  ESLAM_ASSERT(config_.n_features > 0, "n_features must be positive");
  ESLAM_ASSERT(config_.levels >= 1, "need at least one pyramid level");
  ESLAM_ASSERT(config_.border >= kPatternRadius + 1,
               "border must cover the descriptor patch");
}

FeatureList OrbExtractor::extract(const ImageU8& image) {
  FeatureList all;
  extract_into(image, all);
  return all;
}

void OrbExtractor::extract_into(const ImageU8& image, FeatureList& out) {
  stats_ = {};
  out.clear();
  candidates_.clear();
  pyramid_.rebuild(image, config_.levels, config_.scale);

  // Detection: FAST + Harris scoring + NMS on every raw level image.
  for (int level = 0; level < pyramid_.levels(); ++level) {
    const ImageU8& img = pyramid_.level(level).image;
    const double level_scale = pyramid_.level(level).scale;
    if (img.width() <= 2 * config_.border || img.height() <= 2 * config_.border)
      continue;
    detect_fast_into(img, config_.fast_threshold, config_.border, raw_kps_);
    for (Keypoint& kp : raw_kps_) {
      kp.level = level;
      kp.scale = level_scale;
      kp.score = harris_score_int(img, kp.x, kp.y);
    }
    nms_3x3_into(raw_kps_, img.width(), img.height(), nms_grid_, nms_kps_);
    candidates_.insert(candidates_.end(), nms_kps_.begin(), nms_kps_.end());
  }
  stats_.detected = static_cast<int>(candidates_.size());

  // Filtering: keep the n_features best Harris scores across all levels
  // (what the 1024-entry heap does in hardware).  The comparator reads only
  // the score, so this selects and orders exactly as filtering described
  // features would.
  if (static_cast<int>(candidates_.size()) > config_.n_features) {
    std::nth_element(candidates_.begin(),
                     candidates_.begin() + config_.n_features,
                     candidates_.end(),
                     [](const Keypoint& a, const Keypoint& b) {
                       return a.score > b.score;
                     });
    candidates_.resize(static_cast<std::size_t>(config_.n_features));
  }

  // Descriptors and orientations use the smoothened image of each level
  // that still holds a survivor.
  smoothed_.resize(static_cast<std::size_t>(pyramid_.levels()));
  for (int level = 0; level < pyramid_.levels(); ++level)
    if (std::any_of(candidates_.begin(), candidates_.end(),
                    [level](const Keypoint& kp) { return kp.level == level; }))
      smooth_gaussian7_u8_into(pyramid_.level(level).image, smooth_tmp_,
                               smoothed_[static_cast<std::size_t>(level)]);

  for (Keypoint& kp : candidates_) {
    const ImageU8& smoothed = smoothed_[static_cast<std::size_t>(kp.level)];
    kp.angle = orientation_angle(smoothed, kp.x, kp.y);
    kp.orientation_label = discretize_orientation(kp.angle);

    Feature f;
    switch (config_.mode) {
      case DescriptorMode::kRsBrief:
        f.descriptor = rs_brief_descriptor(smoothed, kp.x, kp.y, rs_pattern_,
                                           kp.orientation_label);
        break;
      case DescriptorMode::kOrbLut:
        f.descriptor =
            orb_descriptor_lut(smoothed, kp.x, kp.y, orb_pattern_, kp.angle);
        break;
      case DescriptorMode::kOrbExact:
        f.descriptor = orb_descriptor_exact(smoothed, kp.x, kp.y,
                                            orb_pattern_, kp.angle);
        break;
    }
    f.keypoint = kp;
    out.push_back(std::move(f));
  }
  stats_.described = static_cast<int>(out.size());
  stats_.kept = static_cast<int>(out.size());
}

}  // namespace eslam
