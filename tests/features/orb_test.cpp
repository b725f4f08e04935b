#include "features/orb.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "../test_util.h"
#include "dataset/scene.h"
#include "features/harris.h"
#include "features/orientation.h"
#include "image/convolve.h"

namespace eslam {
namespace {

ImageU8 rendered_frame() {
  const BoxRoomScene scene;
  const PinholeCamera cam(260.0, 260.0, 160.0, 120.0, 320, 240);
  return scene.render(cam, SE3{}, 0).gray;
}

TEST(OrbExtractor, RespectsFeatureBudget) {
  OrbConfig cfg;
  cfg.n_features = 300;
  OrbExtractor ex(cfg);
  const FeatureList f = ex.extract(rendered_frame());
  EXPECT_LE(f.size(), 300u);
  EXPECT_GT(f.size(), 100u);  // textured scene must yield plenty
  EXPECT_EQ(ex.last_stats().kept, static_cast<int>(f.size()));
  EXPECT_GE(ex.last_stats().detected, ex.last_stats().kept);
  EXPECT_EQ(ex.last_stats().described, ex.last_stats().kept);
}

TEST(OrbExtractor, KeypointsStayInsideBorders) {
  OrbExtractor ex;
  const ImageU8 img = rendered_frame();
  for (const Feature& f : ex.extract(img)) {
    const int border = ex.config().border;
    EXPECT_GE(f.keypoint.x, border);
    EXPECT_GE(f.keypoint.y, border);
    // Level-0 coordinates stay inside the source image.
    EXPECT_LT(f.keypoint.x0(), img.width());
    EXPECT_LT(f.keypoint.y0(), img.height());
  }
}

TEST(OrbExtractor, KeepsBestHarrisScores) {
  OrbConfig cfg;
  cfg.n_features = 50;
  OrbExtractor small(cfg);
  cfg.n_features = 100000;  // effectively unfiltered
  OrbExtractor all(cfg);
  const ImageU8 img = rendered_frame();
  const FeatureList kept = small.extract(img);
  const FeatureList everything = all.extract(img);
  ASSERT_EQ(kept.size(), 50u);
  // The kept minimum must be >= the 50th best overall.
  std::vector<std::int64_t> scores;
  for (const Feature& f : everything) scores.push_back(f.keypoint.score);
  std::sort(scores.rbegin(), scores.rend());
  std::int64_t kept_min = kept[0].keypoint.score;
  for (const Feature& f : kept)
    kept_min = std::min(kept_min, f.keypoint.score);
  EXPECT_GE(kept_min, scores[49]);
}

TEST(OrbExtractor, UsesAllPyramidLevels) {
  OrbExtractor ex;
  const FeatureList f = ex.extract(rendered_frame());
  std::array<int, 4> per_level{};
  for (const Feature& feat : f)
    ++per_level[static_cast<std::size_t>(feat.keypoint.level)];
  // A textured full-frame scene should produce features on several levels.
  int levels_hit = 0;
  for (int c : per_level) levels_hit += c > 0;
  EXPECT_GE(levels_hit, 2);
}

TEST(OrbExtractor, DeterministicAcrossRuns) {
  OrbExtractor a, b;
  const ImageU8 img = rendered_frame();
  const FeatureList fa = a.extract(img);
  const FeatureList fb = b.extract(img);
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].keypoint.x, fb[i].keypoint.x);
    EXPECT_EQ(fa[i].descriptor, fb[i].descriptor);
  }
}

TEST(OrbExtractor, ModesProduceDifferentDescriptorsSameKeypoints) {
  OrbConfig rs_cfg, orb_cfg;
  rs_cfg.mode = DescriptorMode::kRsBrief;
  orb_cfg.mode = DescriptorMode::kOrbLut;
  OrbExtractor rs(rs_cfg), orb(orb_cfg);
  const ImageU8 img = rendered_frame();
  const FeatureList frs = rs.extract(img);
  const FeatureList forb = orb.extract(img);
  ASSERT_EQ(frs.size(), forb.size());
  int differing = 0;
  for (std::size_t i = 0; i < frs.size(); ++i) {
    EXPECT_EQ(frs[i].keypoint.x, forb[i].keypoint.x);  // same detector
    differing += frs[i].descriptor != forb[i].descriptor;
  }
  EXPECT_GT(differing, static_cast<int>(frs.size()) / 2);
}

TEST(OrbExtractor, ExactModeAgreesWithLutWithinDiscretization) {
  // The LUT discretizes to 12-degree bins (max 6 degrees error); exact and
  // LUT descriptors should still be close in Hamming distance.
  OrbConfig lut_cfg, exact_cfg;
  lut_cfg.mode = DescriptorMode::kOrbLut;
  exact_cfg.mode = DescriptorMode::kOrbExact;
  OrbExtractor lut(lut_cfg), exact(exact_cfg);
  const ImageU8 img = rendered_frame();
  const FeatureList fl = lut.extract(img);
  const FeatureList fe = exact.extract(img);
  ASSERT_EQ(fl.size(), fe.size());
  double mean_dist = 0;
  for (std::size_t i = 0; i < fl.size(); ++i)
    mean_dist += hamming_distance(fl[i].descriptor, fe[i].descriptor);
  mean_dist /= static_cast<double>(fl.size());
  EXPECT_LT(mean_dist, 32.0);  // well below the ~128 of random pairs
}

TEST(OrbExtractor, FlatImageYieldsNothing) {
  OrbExtractor ex;
  const ImageU8 flat(320, 240, 100);
  EXPECT_TRUE(ex.extract(flat).empty());
}

TEST(OrbExtractor, TinyImageIsHandledGracefully) {
  OrbExtractor ex;
  const ImageU8 tiny(40, 30, 100);
  EXPECT_TRUE(ex.extract(tiny).empty());  // smaller than 2x border
}

// Describe-all-then-filter composed from the public kernels: every NMS
// survivor of every level gets an orientation and a descriptor, then the
// same nth_element keeps the best n_features.  The extractor filters first
// and describes only the kept ones; its output must be identical, order
// included.
FeatureList describe_all_then_filter(const ImageU8& image,
                                     const OrbExtractor& ex) {
  const OrbConfig& cfg = ex.config();
  const ImagePyramid pyramid(image, cfg.levels, cfg.scale);
  FeatureList all;
  for (int level = 0; level < pyramid.levels(); ++level) {
    const ImageU8& img = pyramid.level(level).image;
    if (img.width() <= 2 * cfg.border || img.height() <= 2 * cfg.border)
      continue;
    std::vector<Keypoint> raw = detect_fast(img, cfg.fast_threshold, cfg.border);
    for (Keypoint& kp : raw) {
      kp.level = level;
      kp.scale = pyramid.level(level).scale;
      kp.score = harris_score_int(img, kp.x, kp.y);
    }
    const ImageU8 smoothed = smooth_gaussian7_u8(img);
    for (Keypoint kp : nms_3x3(raw, img.width(), img.height())) {
      kp.angle = orientation_angle(smoothed, kp.x, kp.y);
      kp.orientation_label = discretize_orientation(kp.angle);
      Feature f;
      f.keypoint = kp;
      switch (cfg.mode) {
        case DescriptorMode::kRsBrief:
          f.descriptor = rs_brief_descriptor(smoothed, kp.x, kp.y,
                                             ex.rs_pattern(),
                                             kp.orientation_label);
          break;
        case DescriptorMode::kOrbLut:
          f.descriptor = orb_descriptor_lut(smoothed, kp.x, kp.y,
                                            ex.orb_pattern(), kp.angle);
          break;
        case DescriptorMode::kOrbExact:
          f.descriptor = orb_descriptor_exact(smoothed, kp.x, kp.y,
                                              ex.orb_pattern(), kp.angle);
          break;
      }
      all.push_back(f);
    }
  }
  if (static_cast<int>(all.size()) > cfg.n_features) {
    std::nth_element(all.begin(), all.begin() + cfg.n_features, all.end(),
                     [](const Feature& a, const Feature& b) {
                       return a.keypoint.score > b.keypoint.score;
                     });
    all.resize(static_cast<std::size_t>(cfg.n_features));
  }
  return all;
}

TEST(OrbExtractor, EqualsDescribeAllThenFilterComposition) {
  const BoxRoomScene scene;
  const PinholeCamera cam(520.0, 520.0, 320.0, 240.0, 640, 480);
  const ImageU8 frames[] = {
      scene.render(cam, SE3{}, 0).gray,
      scene.render(cam, SE3::exp({0.1, 0.0, 0.2, 0.05, -0.1, 0.02}), 1).gray};
  for (const DescriptorMode mode : {DescriptorMode::kRsBrief,
                                    DescriptorMode::kOrbLut,
                                    DescriptorMode::kOrbExact})
    for (const int n : {50, 1024, 100000}) {
      OrbConfig cfg;
      cfg.mode = mode;
      cfg.n_features = n;
      OrbExtractor ex(cfg);
      FeatureList got;
      // One extractor across both frames: recycled scratch must not leak.
      for (const ImageU8& frame : frames) {
        ex.extract_into(frame, got);
        const FeatureList want = describe_all_then_filter(frame, ex);
        ASSERT_EQ(got.size(), want.size())
            << "mode " << static_cast<int>(mode) << " n " << n;
        if (n == 100000)
          EXPECT_EQ(ex.last_stats().kept, ex.last_stats().detected);
        else
          EXPECT_GT(ex.last_stats().detected, n);  // filtering did select
        for (std::size_t i = 0; i < want.size(); ++i) {
          const Keypoint& a = got[i].keypoint;
          const Keypoint& b = want[i].keypoint;
          ASSERT_TRUE(a.x == b.x && a.y == b.y && a.level == b.level &&
                      a.scale == b.scale && a.score == b.score &&
                      a.angle == b.angle &&
                      a.orientation_label == b.orientation_label &&
                      got[i].descriptor == want[i].descriptor)
              << "mode " << static_cast<int>(mode) << " n " << n
              << " feature " << i;
        }
      }
    }
}

class OrbBudget : public ::testing::TestWithParam<int> {};

TEST_P(OrbBudget, ExactlyNFeaturesWhenSceneIsRich) {
  OrbConfig cfg;
  cfg.n_features = GetParam();
  OrbExtractor ex(cfg);
  const FeatureList f = ex.extract(rendered_frame());
  EXPECT_EQ(static_cast<int>(f.size()), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Budgets, OrbBudget,
                         ::testing::Values(16, 64, 256, 512));

}  // namespace
}  // namespace eslam
