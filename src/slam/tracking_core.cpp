#include "slam/tracking_core.h"

#include <algorithm>
#include <cmath>

#include "geometry/wall_timer.h"

namespace eslam {

namespace {

// The _into forms read queries straight from a FeatureList; the returning
// adapters wrap bare descriptors as features.
std::vector<Feature> as_features(std::span<const Descriptor256> descriptors) {
  std::vector<Feature> features(descriptors.size());
  for (std::size_t i = 0; i < descriptors.size(); ++i)
    features[i].descriptor = descriptors[i];
  return features;
}

}  // namespace

FeatureList FeatureBackend::extract(const ImageU8& image) {
  FeatureList features;
  extract_into(image, features);
  return features;
}

std::vector<Match> FeatureBackend::match(
    std::span<const Descriptor256> queries,
    std::span<const Descriptor256> train) {
  std::vector<Match> matches;
  match_into(as_features(queries), TrainView{train}, nullptr, matches);
  return matches;
}

std::vector<Match> FeatureBackend::match_candidates(
    std::span<const Descriptor256> queries,
    std::span<const Descriptor256> train, const CandidateSet& candidates) {
  std::vector<Match> matches;
  match_candidates_into(as_features(queries), TrainView{train}, candidates,
                        nullptr, matches);
  return matches;
}

SoftwareBackend::SoftwareBackend(const OrbConfig& orb,
                                 const MatcherOptions& matcher)
    : extractor_(orb), matcher_options_(matcher) {}

void SoftwareBackend::extract_into(const ImageU8& image, FeatureList& out) {
  const WallTimer timer;
  extractor_.extract_into(image, out);
  extract_ms_.store(timer.elapsed_ms());
}

void SoftwareBackend::match_into(std::span<const Feature> queries,
                                 const TrainView& train, Arena* scratch,
                                 std::vector<Match>& out) {
  const WallTimer timer;
  match_descriptors_into(queries, train, matcher_options_, scratch, out);
  match_ms_.store(timer.elapsed_ms());
}

void SoftwareBackend::match_candidates_into(std::span<const Feature> queries,
                                            const TrainView& train,
                                            const CandidateSet& candidates,
                                            Arena* scratch,
                                            std::vector<Match>& out) {
  const WallTimer timer;
  eslam::match_candidates_into(queries, train, candidates, matcher_options_,
                               scratch, out);
  match_ms_.store(timer.elapsed_ms());
}

void FrameState::reset() {
  features.clear();
  matches.clear();
  match_tier = MatchTier::kBruteForce;
  map_epoch = 0;
  view.reset();  // release the borrowed map view (refcount only)
  bootstrap = false;
  reloc_positions.clear();
  reloc_reference_cw = SE3{};
  ransac.pose = SE3{};
  ransac.inliers.clear();
  ransac.success = false;
  ransac.iterations = 0;
  ransac_retry.inliers.clear();
  correspondences.clear();
  gate.candidates.indices.clear();
  gate.candidates.offsets.clear();
  gate.projected = 0;
  gate.build_ms = 0;
  result = TrackResult{};
  if (arena)
    arena->reset();
  else
    arena = std::make_unique<Arena>();
}

namespace tracking {
namespace {

// Post-loss recovery: query the keyframe-recognition index with this
// frame's descriptors and match against the best keyframe's local
// neighbourhood only.  Returns true when it produced fs.matches; false
// routes the frame to the brute-force fallback.
bool match_reloc_neighbourhood(FrameState& fs, const RelocSource& reloc,
                               const RelocOptions& options,
                               std::span<const Descriptor256> query,
                               double& match_ms) {
  const std::vector<backend::KeyframeScore> ranked =
      reloc.index.query(query, options.max_candidates);
  for (const backend::KeyframeScore& hit : ranked) {
    if (!reloc.graph.contains(hit.keyframe_id)) continue;
    // The candidate's local place: the keyframe plus its top covisible
    // neighbours.
    const std::vector<int> hood =
        reloc.graph.neighbourhood(hit.keyframe_id, options.neighbourhood);
    // The neighbourhood's observations ARE the recovery substrate: the
    // 3D side is each observation's own depth unprojection lifted by its
    // keyframe pose — drift-consistent, immune to map pruning, and
    // O(window) to assemble.
    const std::vector<backend::KeyframeGraph::PlaceObservation> place =
        reloc.graph.place_observations(hood);
    std::vector<Descriptor256> subset;
    std::vector<std::int32_t> map_index;  // view index or -1
    subset.reserve(place.size());
    map_index.reserve(place.size());
    for (const auto& obs : place) {
      subset.push_back(obs.descriptor);
      // Id lookup against the borrowed view, not the live map: the match
      // train indices must be consistent with the epoch fs carries.
      const auto index = fs.view->index_of(obs.point_id);
      map_index.push_back(index ? static_cast<std::int32_t>(*index) : -1);
    }
    if (static_cast<int>(subset.size()) < options.min_matches) continue;
    // Verification-grade matching (see RelocOptions::matcher), host-side
    // like the loop job's — the fabric's bulk matcher has no precision
    // knobs, and a lost session is off the nominal fabric schedule anyway.
    const WallTimer reloc_timer;
    std::vector<Match> matches =
        match_descriptors(query, subset, options.matcher);
    match_ms += reloc_timer.elapsed_ms();
    if (static_cast<int>(matches.size()) < options.min_matches)
      continue;  // recognition was wrong for this hit; try the next one
    fs.reloc_positions.clear();
    fs.reloc_positions.reserve(matches.size());
    for (Match& m : matches) {
      fs.reloc_positions.push_back(
          place[static_cast<std::size_t>(m.train)].position_w);
      m.train = map_index[static_cast<std::size_t>(m.train)];
    }
    fs.matches = std::move(matches);
    fs.reloc_reference_cw = reloc.graph.keyframe(hit.keyframe_id).pose_cw;
    return true;
  }
  return false;
}

}  // namespace

bool reloc_eligible(const FrameState& fs, const TrackingOptions& options) {
  return options.reloc.use_index &&
         static_cast<int>(fs.features.size()) >= options.reloc.min_matches;
}

bool match_frame(FrameState& fs, FeatureBackend& backend,
                 const PinholeCamera& camera, const TrackingOptions& options,
                 const std::optional<SE3>& gate_prior,
                 const RelocSource* reloc, obs::TrackId track) {
  ESLAM_TRACE_SCOPE(track, "FM");
  // --- Feature matching (FPGA in the paper) ------------------------------
  // Re-entrant: a replay overwrites the previous attempt's outputs.
  const MapReadView& view = *fs.view;
  fs.matches.clear();
  fs.reloc_positions.clear();
  fs.match_tier = MatchTier::kBruteForce;
  if (view.empty()) {
    fs.result.times.feature_matching = 0.0;
    fs.result.n_matches = 0;
    return false;
  }
  // Queries go to the backend as the features themselves (no per-frame
  // descriptor staging copy); the train side is the view's AoS span plus
  // its SoA word-plane mirror, both frozen for as long as fs.view is held.
  const TrainView train{view.descriptors(), &view.descriptor_soa()};

  double match_ms = 0.0;
  bool gated = false;
  if (options.match.use_gate && gate_prior &&
      static_cast<int>(view.size()) >= options.match.min_map_points_for_gate) {
    build_candidate_set_into(view.xs(), view.ys(), view.zs(), *gate_prior,
                             camera, fs.features, options.match,
                             fs.arena.get(), fs.gate);
    backend.match_candidates_into(fs.features, train, fs.gate.candidates,
                                  fs.arena.get(), fs.matches);
    match_ms += fs.gate.build_ms + backend.last_match_time_ms();
    const int required = std::max(
        options.match.min_gated_matches,
        static_cast<int>(std::ceil(options.match.min_gated_match_fraction *
                                   static_cast<double>(fs.features.size()))));
    if (static_cast<int>(fs.matches.size()) >= required) gated = true;
    // else: too few matches survived — the prior is likely wrong (fast
    // motion beyond the window, viewpoint jump), so fall through to the
    // full-map tier (which overwrites fs.matches).
  }
  bool relocated = false;
  if (!gated && reloc &&
      static_cast<int>(reloc->graph.size()) >= options.reloc.min_keyframes) {
    fs.result.reloc_attempted = true;
    // Relocalization is a rare, off-schedule path: the descriptor staging
    // copy the index query needs is allocated here, not on every frame.
    std::vector<Descriptor256> query;
    query.reserve(fs.features.size());
    for (const Feature& f : fs.features) query.push_back(f.descriptor);
    relocated =
        match_reloc_neighbourhood(fs, *reloc, options.reloc, query, match_ms);
  }
  // Fallback tier: full-map brute force (bootstrap-adjacent frames,
  // post-loss frames without a usable index, small maps, gate/reloc
  // fallback).
  if (!gated && !relocated) {
    backend.match_into(fs.features, train, fs.arena.get(), fs.matches);
    match_ms += backend.last_match_time_ms();
  }
  fs.match_tier = gated ? MatchTier::kGated
                : relocated ? MatchTier::kRelocIndex
                            : MatchTier::kBruteForce;
  fs.result.match_tier = fs.match_tier;
  fs.result.times.feature_matching = match_ms;
  fs.result.n_matches = static_cast<int>(fs.matches.size());
  return true;
}

void estimate_pose(FrameState& fs, const PinholeCamera& camera,
                   const TrackingOptions& options, const MotionModel& motion,
                   obs::TrackId track) {
  // --- Pose estimation: PnP + RANSAC (ARM) -------------------------------
  ESLAM_TRACE_SCOPE(track, "PE");
  WallTimer pe_timer;
  fs.correspondences.clear();
  fs.correspondences.reserve(fs.matches.size());
  const bool reloc = fs.match_tier == MatchTier::kRelocIndex;
  for (std::size_t i = 0; i < fs.matches.size(); ++i) {
    const Match& m = fs.matches[i];
    const Feature& f = fs.features[static_cast<std::size_t>(m.query)];
    // Reloc matches carry their own 3D (keyframe-observation geometry);
    // map matches read the borrowed view's frozen position column (the
    // values the matches were computed against).
    fs.correspondences.push_back(Correspondence{
        reloc ? fs.reloc_positions[i]
              : fs.view->position(static_cast<std::size_t>(m.train)),
        Vec2{f.keypoint.x0(), f.keypoint.y0()}});
  }
  // Relocalization matches cover only the recognized neighbourhood, so
  // the acceptance gate is absolute (see RelocOptions::min_inliers); the
  // ratio gate assumes the map-wide match set.
  const int required_inliers =
      reloc ? std::max(options.min_tracked_inliers, options.reloc.min_inliers)
            : std::max(options.min_tracked_inliers,
                       std::min(options.strong_consensus_inliers,
                                static_cast<int>(
                                    options.min_inlier_ratio *
                                    static_cast<double>(
                                        fs.correspondences.size()))));
  const auto accepted = [&] {
    return fs.ransac.success &&
           static_cast<int>(fs.ransac.inliers.size()) >= required_inliers;
  };
  ransac_pnp_into(fs.correspondences, camera,
                  motion.predict(options.use_motion_model), options.ransac,
                  fs.arena.get(), fs.ransac);
  // Retry once from the raw previous pose: the velocity extrapolation
  // itself can be the problem after an abrupt motion change, and a
  // low-consensus "success" is often a degenerate pose on repetitive
  // texture rather than the true one.
  if (!accepted() && options.use_motion_model && motion.have_velocity) {
    ransac_pnp_into(fs.correspondences, camera, motion.last_pose_cw,
                    options.ransac, fs.arena.get(), fs.ransac_retry);
    if (fs.ransac_retry.inliers.size() > fs.ransac.inliers.size())
      std::swap(fs.ransac, fs.ransac_retry);
  }
  // Relocalization: closed-form P3P hypotheses need no pose prior (the
  // cold-start workhorse — a fresh localizer has no prior at all).
  if (!accepted() && options.relocalize_with_p3p) {
    RansacOptions p3p_opts = options.ransac;
    p3p_opts.use_p3p = true;
    ransac_pnp_into(fs.correspondences, camera, SE3{}, p3p_opts,
                    fs.arena.get(), fs.ransac_retry);
    if (fs.ransac_retry.inliers.size() > fs.ransac.inliers.size())
      std::swap(fs.ransac, fs.ransac_retry);
  }
  fs.result.times.pose_estimation = pe_timer.elapsed_ms();
  fs.result.n_inliers = static_cast<int>(fs.ransac.inliers.size());
  if (reloc && fs.ransac.success) {
    // Plausibility: the recovered camera must be where the recognized
    // keyframe's scene is visible from.  A wrong-place consensus (large
    // on repetitive texture) that slips through would seed phantom map
    // geometry that every later recovery compounds.
    const Vec3 centre = fs.ransac.pose.inverse().translation();
    const Vec3 reference = fs.reloc_reference_cw.inverse().translation();
    const double distance = (centre - reference).norm();
    const double rotation =
        fs.ransac.pose.rotation_angle(fs.reloc_reference_cw);
    // Written as accept-only-when-provably-plausible: a NaN pose (a
    // degenerate refit can produce one) must fail this gate, and NaN
    // fails every comparison.
    if (!(distance <= options.reloc.max_distance_m &&
          rotation <= options.reloc.max_rotation_rad))
      fs.ransac.success = false;
  }
  if (!accepted()) {
    // Lost: keep the previous pose; the caller's commit drops the
    // velocity.
    fs.result.lost = true;
    fs.result.pose_cw = motion.last_pose_cw;
    fs.result.pose_wc = motion.last_pose_cw.inverse();
  }
}

bool optimize_pose(FrameState& fs, const PinholeCamera& camera,
                   const TrackingOptions& options, obs::TrackId track) {
  if (fs.bootstrap || fs.result.lost) return false;
  // --- Pose optimization: LM on inlier reprojection error (ARM) ----------
  ESLAM_TRACE_SCOPE(track, "PO");
  WallTimer po_timer;
  if (!fs.arena) fs.arena = std::make_unique<Arena>();
  const ArenaScope scope(*fs.arena);
  std::span<Correspondence> inlier_set =
      fs.arena->alloc_span<Correspondence>(fs.ransac.inliers.size());
  std::size_t k = 0;
  for (int idx : fs.ransac.inliers)
    inlier_set[k++] = fs.correspondences[static_cast<std::size_t>(idx)];
  const PnpResult optimized = solve_pnp(inlier_set, camera, fs.ransac.pose,
                                        options.pose_optimization);
  fs.result.times.pose_optimization = po_timer.elapsed_ms();
  fs.result.pose_cw = optimized.pose;
  fs.result.pose_wc = optimized.pose.inverse();
  return true;
}

}  // namespace tracking
}  // namespace eslam
