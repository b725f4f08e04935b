// The shared tracking core's acceptance rules, driven through
// tracking::estimate_pose on synthetic frames with exact geometry: the
// reloc plausibility gate, the reloc tier's absolute inlier gate, and the
// map tier's ratio gate with its strong-consensus override.
#include "slam/tracking_core.h"

#include <gtest/gtest.h>

#include <limits>

#include "geometry/so3.h"
#include "slam/map.h"

namespace eslam {
namespace {

PinholeCamera camera() { return PinholeCamera::tum_freiburg1(); }

// Where the synthetic camera really is (world-to-camera).
SE3 true_pose() {
  return SE3{so3_exp(Vec3{0.05, -0.08, 0.03}), Vec3{0.1, -0.05, 0.2}};
}

// A world-to-camera pose with camera centre `centre` and rotation `r`.
SE3 pose_at(const Mat3& r, const Vec3& centre) {
  return SE3{r, -(r * centre)};
}

Vec3 true_centre() { return true_pose().inverse().translation(); }

// Fills `fs` with `inliers` correspondences whose pixels are the exact
// projections of their 3D points under true_pose(), then `outliers` whose
// pixels sit ~75 px off.  The points go into `map` too, so the map tier
// (fs.view positions) and the reloc tier (fs.reloc_positions) see the
// same geometry.
void build_frame(int inliers, int outliers, MatchTier tier, Map& map,
                 FrameState& fs) {
  fs.reset();
  const SE3 pose_wc = true_pose().inverse();
  for (int i = 0; i < inliers + outliers; ++i) {
    const int u = 40 + (i * 37) % 560;
    const int v = 40 + (i * 53) % 400;
    const double z = 1.5 + (i % 7) * 0.3;
    const Vec3 world = pose_wc * camera().unproject(u, v, z);
    const bool outlier = i >= inliers;
    Feature f;
    f.keypoint.x = u + (outlier ? 60 : 0);
    f.keypoint.y = v + (outlier ? 45 : 0);
    fs.features.push_back(f);
    map.add_point(world, Descriptor256{}, 0);
    fs.matches.push_back(Match{i, i, 0});
    fs.reloc_positions.push_back(world);
  }
  fs.view = map.read_view();
  fs.match_tier = tier;
}

// Runs pose estimation with the motion model sitting on the true pose.
TrackResult estimate(FrameState& fs, const TrackingOptions& options) {
  MotionModel motion;
  motion.last_pose_cw = true_pose();
  tracking::estimate_pose(fs, camera(), options, motion, obs::kDefaultTrack);
  return fs.result;
}

// A recognized keyframe whose pose is `reference` against a frame with 80
// exact correspondences: the consensus is perfect, so only the
// plausibility gate can reject it.
TrackResult relocalize_against(const SE3& reference) {
  Map map;
  FrameState fs;
  build_frame(80, 0, MatchTier::kRelocIndex, map, fs);
  fs.reloc_reference_cw = reference;
  return estimate(fs, TrackingOptions{});
}

TEST(TrackingCore, RelocPlausibilityGateAcceptsPoseNearTheKeyframe) {
  const TrackingOptions defaults;
  ASSERT_DOUBLE_EQ(defaults.reloc.max_distance_m, 2.5);
  ASSERT_DOUBLE_EQ(defaults.reloc.max_rotation_rad, 1.3);
  const Mat3 r = true_pose().rotation();

  const TrackResult same = relocalize_against(true_pose());
  EXPECT_FALSE(same.lost);
  EXPECT_EQ(same.n_inliers, 80);

  EXPECT_FALSE(
      relocalize_against(pose_at(r, true_centre() + Vec3{2.0, 0, 0})).lost);
  EXPECT_FALSE(
      relocalize_against(pose_at(so3_exp(Vec3{0, 1.0, 0}) * r, true_centre()))
          .lost);
}

TEST(TrackingCore, RelocPlausibilityGateRejectsDistantPose) {
  const TrackResult r = relocalize_against(
      pose_at(true_pose().rotation(), true_centre() + Vec3{3.0, 0, 0}));
  EXPECT_TRUE(r.lost);
  EXPECT_EQ(r.n_inliers, 80);  // the consensus itself was perfect
}

TEST(TrackingCore, RelocPlausibilityGateRejectsRotatedPose) {
  const TrackResult r = relocalize_against(
      pose_at(so3_exp(Vec3{0, 1.5, 0}) * true_pose().rotation(),
              true_centre()));
  EXPECT_TRUE(r.lost);
  EXPECT_EQ(r.n_inliers, 80);
}

TEST(TrackingCore, RelocPlausibilityGateRejectsNaN) {
  // The gate is written accept-only-when-provably-plausible, so a NaN in
  // its distance/angle inputs rejects instead of slipping through.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const TrackResult r = relocalize_against(
      SE3{true_pose().rotation(), Vec3{nan, 0, 0}});
  EXPECT_TRUE(r.lost);
  EXPECT_EQ(r.pose_cw.translation_distance(true_pose()), 0.0);
}

TEST(TrackingCore, RelocTierUsesAbsoluteInlierGate) {
  // 40 exact correspondences: a 100% inlier share, but below the reloc
  // tier's absolute reloc.min_inliers (50).
  TrackingOptions options;
  ASSERT_EQ(options.reloc.min_inliers, 50);
  {
    Map map;
    FrameState fs;
    build_frame(40, 0, MatchTier::kRelocIndex, map, fs);
    fs.reloc_reference_cw = true_pose();
    const TrackResult r = estimate(fs, options);
    EXPECT_TRUE(r.lost);
    EXPECT_EQ(r.n_inliers, 40);
  }
  {
    // The same frame through the map tier passes its ratio gate.
    Map map;
    FrameState fs;
    build_frame(40, 0, MatchTier::kBruteForce, map, fs);
    EXPECT_FALSE(estimate(fs, options).lost);
  }
  {
    // And the reloc tier accepts it once the absolute gate allows 40.
    options.reloc.min_inliers = 40;
    Map map;
    FrameState fs;
    build_frame(40, 0, MatchTier::kRelocIndex, map, fs);
    fs.reloc_reference_cw = true_pose();
    EXPECT_FALSE(estimate(fs, options).lost);
  }
}

TEST(TrackingCore, MapTierUsesRatioGateWithStrongConsensusOverride) {
  // 60 inliers of 80 matches (75%) against a 90% ratio floor: lost...
  TrackingOptions options;
  options.min_inlier_ratio = 0.9;
  for (const MatchTier tier : {MatchTier::kGated, MatchTier::kBruteForce}) {
    Map map;
    FrameState fs;
    build_frame(60, 20, tier, map, fs);
    const TrackResult r = estimate(fs, options);
    EXPECT_TRUE(r.lost);
    EXPECT_EQ(r.n_inliers, 60);
  }
  // ...unless the consensus reaches strong_consensus_inliers.
  options.strong_consensus_inliers = 60;
  for (const MatchTier tier : {MatchTier::kGated, MatchTier::kBruteForce}) {
    Map map;
    FrameState fs;
    build_frame(60, 20, tier, map, fs);
    const TrackResult r = estimate(fs, options);
    EXPECT_FALSE(r.lost);
    EXPECT_EQ(r.n_inliers, 60);
  }
}

}  // namespace
}  // namespace eslam
