// Per-layer breakdown of feature extraction: timed calls into the public
// features/ and image/ kernels on the workload's own frames, in the order
// OrbExtractor::extract_into composes them, plus a probe of the simulated
// fabric (accel/) on the same frames.
#include "kernels.h"

#include <algorithm>

#include "accel/eslam_accel.h"
#include "features/harris.h"
#include "features/orientation.h"
#include "image/convolve.h"

namespace perfbench {

namespace {

constexpr std::size_t kProbeFrames = 6;

bool same_features(const eslam::FeatureList& a, const eslam::FeatureList& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const eslam::Keypoint& ka = a[i].keypoint;
    const eslam::Keypoint& kb = b[i].keypoint;
    if (ka.x != kb.x || ka.y != kb.y || ka.level != kb.level ||
        ka.score != kb.score || ka.angle != kb.angle ||
        !(a[i].descriptor == b[i].descriptor))
      return false;
  }
  return true;
}

}  // namespace

std::vector<const FrameInput*> probe_frames(
    const std::vector<FrameInput>& frames) {
  std::vector<const FrameInput*> out;
  const std::size_t last = frames.size() - 1;
  for (std::size_t k = 0; k < kProbeFrames; ++k)
    out.push_back(&frames[k * last / (kProbeFrames - 1)]);
  return out;
}

void report_fe_breakdown(const std::vector<const FrameInput*>& frames,
                         const eslam::OrbConfig& config, SpanLog& log,
                         Report& report) {
  bool composition_matches = true;
  eslam::OrbExtractor extractor(config);
  eslam::FeatureList reference;
  eslam::ImagePyramid pyramid;
  std::vector<eslam::Keypoint> raw, kept;
  eslam::NmsScratch nms;
  eslam::Image<std::uint16_t> smooth_tmp;
  eslam::ImageU8 smoothed;
  eslam::FeatureList composed;
  std::int64_t detected = 0, retained = 0;

  for (std::size_t i = 0; i < frames.size(); ++i) {
    const eslam::ImageU8& gray = frames[i]->gray;
    const auto id = static_cast<std::int64_t>(i);
    log.scope("features", "extract", id, "", [&] {
      extractor.extract_into(gray, reference);
    });
    detected += extractor.last_stats().detected;
    retained += extractor.last_stats().kept;

    composed.clear();
    log.scope("image", "pyramid", id, "", [&] {
      pyramid.rebuild(gray, config.levels, config.scale);
    });
    for (int level = 0; level < pyramid.levels(); ++level) {
      const eslam::ImageU8& img = pyramid.level(level).image;
      const double level_scale = pyramid.level(level).scale;
      if (img.width() <= 2 * config.border ||
          img.height() <= 2 * config.border)
        continue;
      log.scope("features", "fast", id, "", [&] {
        eslam::detect_fast_into(img, config.fast_threshold, config.border,
                                raw);
        for (eslam::Keypoint& kp : raw) {
          kp.level = level;
          kp.scale = level_scale;
          kp.score = eslam::harris_score_int(img, kp.x, kp.y);
        }
        eslam::nms_3x3_into(raw, img.width(), img.height(), nms, kept);
      });
      log.scope("image", "smooth", id, "", [&] {
        eslam::smooth_gaussian7_u8_into(img, smooth_tmp, smoothed);
      });
      log.scope("features", "orient", id, "", [&] {
        for (eslam::Keypoint& kp : kept) {
          kp.angle = eslam::orientation_angle(smoothed, kp.x, kp.y);
          kp.orientation_label = eslam::discretize_orientation(kp.angle);
        }
      });
      log.scope("features", "brief", id, "", [&] {
        for (const eslam::Keypoint& kp : kept) {
          eslam::Feature f;
          f.keypoint = kp;
          f.descriptor = eslam::rs_brief_descriptor(
              smoothed, kp.x, kp.y, extractor.rs_pattern(),
              kp.orientation_label);
          composed.push_back(f);
        }
      });
    }
    if (static_cast<int>(composed.size()) > config.n_features) {
      std::nth_element(composed.begin(), composed.begin() + config.n_features,
                       composed.end(),
                       [](const eslam::Feature& a, const eslam::Feature& b) {
                         return a.keypoint.score > b.keypoint.score;
                       });
      composed.resize(static_cast<std::size_t>(config.n_features));
    }
    composition_matches =
        composition_matches && same_features(composed, reference);
  }

  const double n = static_cast<double>(frames.size());
  report.check("fe_breakdown_composes", composition_matches,
               "kernel-by-kernel FE reproduces OrbExtractor output");
  report.number("features.extract_ms", log.mean_ms("extract"));
  // The image layer's share of FE: pyramid build plus per-level smoothing.
  report.number("image.pyramid_ms",
                (log.total_ms("pyramid") + log.total_ms("smooth")) / n);
  report.number("features.fast_ms", log.total_ms("fast") / n);
  report.number("features.orient_ms", log.total_ms("orient") / n);
  report.number("features.brief_ms", log.total_ms("brief") / n);
  report.number("features.kept_frac", static_cast<double>(retained) /
                                          static_cast<double>(detected));
}

void report_accel_probe(const std::vector<const FrameInput*>& frames,
                        SpanLog& log, Report& report) {
  eslam::AcceleratedBackend fabric;
  eslam::FeatureList previous;
  double fe_sim = 0, fm_sim = 0;
  int matched = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto id = static_cast<std::int64_t>(i);
    eslam::FeatureList features = log.scope("accel", "hw_extract", id, "", [&] {
      return fabric.extract(frames[i]->gray);
    });
    fe_sim += fabric.last_extract_time_ms();
    if (!previous.empty()) {
      std::vector<eslam::Descriptor256> queries, train;
      for (const eslam::Feature& f : features) queries.push_back(f.descriptor);
      for (const eslam::Feature& f : previous) train.push_back(f.descriptor);
      log.scope("accel", "hw_match", id, "",
                [&] { return fabric.match(queries, train); });
      fm_sim += fabric.last_match_time_ms();
      ++matched;
    }
    previous = std::move(features);
  }
  report.number("accel.extract_host_ms", log.mean_ms("hw_extract"));
  report.number("accel.fe_sim_cycles",
                to_cycles(fe_sim / static_cast<double>(frames.size())));
  report.number("accel.fm_sim_cycles", to_cycles(fm_sim / matched));
}

}  // namespace perfbench
