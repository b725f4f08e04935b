// The per-frame tracking core shared by the mapping Tracker and the
// read-only Localizer: feature matching -> pose estimation -> pose
// optimization over one FrameState (the paper's FM -> PE -> PO).  Feature
// extraction is the backend's extract_into(); map updating is the
// Tracker's alone.
//
// The core owns everything both session kinds agree on: the match-tier
// selection (projection gate -> keyframe-recognition relocalization ->
// map-wide brute force), the reloc-neighbourhood matcher, the inlier
// acceptance rule, the RANSAC retry / P3P ladder, the reloc plausibility
// gate, the LM refinement and the constant-velocity motion model.
// Callers decide only what differs between them:
//   - the gate prior: the Tracker's published two-frame-stale slot, the
//     Localizer's fresh motion model;
//   - whether the reloc tier may run, and which keyframe graph + index it
//     reads: the Tracker's own under its graph lock, or a FrozenMap's;
//   - what an empty map means: bootstrap (Tracker) or lost (Localizer);
//   - which trace track the stage spans land on, and stage histograms.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "backend/keyframe_graph.h"
#include "backend/keyframe_index.h"
#include "core/arena.h"
#include "features/matcher.h"
#include "features/orb.h"
#include "geometry/camera.h"
#include "geometry/se3.h"
#include "obs/trace.h"
#include "slam/map_view.h"
#include "slam/match_gate.h"
#include "slam/pnp.h"
#include "slam/ransac.h"

namespace eslam {

// Abstraction over "who computes features and matches" (ARM software vs
// FPGA fabric).  last_*_time_ms() report the backend's own notion of time:
// wall-clock for software, cycles / 100 MHz for the simulated accelerator.
//
// Matching is two-tier: match_into() is the full-scan tier (bootstrap /
// relocalization / fallback), match_candidates_into() the gated tier —
// each query scans only the candidate list the projection gate built for
// it.  Every backend must implement both with consistent acceptance
// semantics, so the tracker can fall back between tiers within one frame.
//
// A backend implements only the three _into forms: outputs land in
// recycled buffers, matcher scratch comes from the frame's arena, and the
// train side arrives as a TrainView so the map's word-plane mirror feeds
// the SIMD kernels.  The returning forms are adapters over them, shared by
// every backend; they stage descriptors and allocate, so only cold callers
// (tests, benches, one-off probes) use them.  They stay virtual only
// because the repo benchmark's timing wrapper (perfbench's TimedBackend)
// overrides them.
class FeatureBackend {
 public:
  virtual ~FeatureBackend() = default;

  virtual void extract_into(const ImageU8& image, FeatureList& out) = 0;
  virtual void match_into(std::span<const Feature> queries,
                          const TrainView& train, Arena* scratch,
                          std::vector<Match>& out) = 0;
  virtual void match_candidates_into(std::span<const Feature> queries,
                                     const TrainView& train,
                                     const CandidateSet& candidates,
                                     Arena* scratch,
                                     std::vector<Match>& out) = 0;

  virtual FeatureList extract(const ImageU8& image);
  virtual std::vector<Match> match(std::span<const Descriptor256> queries,
                                   std::span<const Descriptor256> train);
  virtual std::vector<Match> match_candidates(
      std::span<const Descriptor256> queries,
      std::span<const Descriptor256> train, const CandidateSet& candidates);

  virtual double last_extract_time_ms() const = 0;
  virtual double last_match_time_ms() const = 0;
  virtual const char* name() const = 0;
};

// Software backend: OrbExtractor + Hamming matching kernels, timed by wall
// clock.  The timing caches are atomics so the last-stage times can be
// read from a different thread than the one driving extraction and
// matching (the pipeline runtime runs both on its FPGA-model lane while
// stats readers poll).
class SoftwareBackend final : public FeatureBackend {
 public:
  explicit SoftwareBackend(const OrbConfig& orb = {},
                           const MatcherOptions& matcher = {});
  void extract_into(const ImageU8& image, FeatureList& out) override;
  void match_into(std::span<const Feature> queries, const TrainView& train,
                  Arena* scratch, std::vector<Match>& out) override;
  void match_candidates_into(std::span<const Feature> queries,
                             const TrainView& train,
                             const CandidateSet& candidates, Arena* scratch,
                             std::vector<Match>& out) override;
  double last_extract_time_ms() const override { return extract_ms_.load(); }
  double last_match_time_ms() const override { return match_ms_.load(); }
  const char* name() const override { return "software"; }

  OrbExtractor& extractor() { return extractor_; }

 private:
  OrbExtractor extractor_;
  MatcherOptions matcher_options_;
  std::atomic<double> extract_ms_{0.0};
  std::atomic<double> match_ms_{0.0};
};

struct FrameInput {
  ImageU8 gray;
  ImageU16 depth;       // raw sensor units; metres = value / depth_factor
  double timestamp = 0;
};

struct StageTimesMs {
  double feature_extraction = 0;
  double feature_matching = 0;
  double pose_estimation = 0;
  double pose_optimization = 0;
  double map_updating = 0;
  double total() const {
    return feature_extraction + feature_matching + pose_estimation +
           pose_optimization + map_updating;
  }
};

struct TrackResult {
  SE3 pose_cw;  // world-to-camera (the PnP estimate)
  SE3 pose_wc;  // camera-in-world (what trajectories record)
  bool lost = false;
  bool keyframe = false;
  int n_features = 0;
  int n_matches = 0;
  int n_inliers = 0;
  // Which matching tier produced this frame's matches (after fallback).
  MatchTier match_tier = MatchTier::kBruteForce;
  // Map maintenance visibility: age-pruned points from this frame's map
  // update, and — when a local-mapping backend delta was applied at this
  // keyframe — the culled/fused point counts it removed.
  int n_points_pruned = 0;
  int n_points_culled = 0;
  int n_points_fused = 0;
  bool backend_applied = false;
  // Recovery/correction visibility (a lost tracker used to burn full-map
  // matches with no signal anywhere): reloc_attempted marks a post-loss
  // frame that engaged the keyframe-recognition path (match_tier then
  // tells whether the index answered or the brute-force fallback ran);
  // relocalized marks the frame that actually recovered a pose from that
  // state; loop_closed marks a frame whose map update applied a verified
  // loop-closure correction.
  bool reloc_attempted = false;
  bool relocalized = false;
  bool loop_closed = false;
  double timestamp = 0;
  StageTimesMs times;
};

// Post-loss relocalization policy.  The mapping Tracker uses it only with
// the local-mapping backend enabled (the keyframe graph + recognition
// index are its data); without it — or before the graph holds
// min_keyframes — a lost tracker falls back to the map-wide brute-force
// scan.  A Localizer engages it on every frame without a pose.
struct RelocOptions {
  // Master switch for the indexed tier.
  bool use_index = true;
  // Consecutive lost retirements before the mapping Tracker engages
  // recognition (a Localizer without a pose has no motion prior worth
  // waiting for and ignores this).  A momentary flake (a 1-2 frame RANSAC
  // dropout) recovers best through the existing motion-model path — its
  // prior is still good, and on the desk regime routing those frames
  // through recognition measurably worsened ATE.  Recognition is for
  // *persistent* loss, where the prior is meaningfully stale (ORB-SLAM's
  // lost mode).
  int min_lost_frames = 3;
  // Graph size before the index is trusted for recovery.
  int min_keyframes = 3;
  // Ranked index hits to try before falling back to brute force.
  int max_candidates = 3;
  // Best keyframe + its top covisible neighbours form the match set.
  int neighbourhood = 5;
  // A candidate neighbourhood must yield at least this many descriptor
  // matches to feed P3P; fewer means the recognition was wrong and the
  // next candidate (or the full-map fallback) runs.
  int min_matches = 20;
  // Recovery matching is verification-grade, like the loop job's: the
  // tracking tiers deliberately run at 64 bits without cross-check (and
  // the map's near-duplicates forbid a ratio test everywhere), but a lost
  // tracker matching a recognized neighbourhood needs precision — junk
  // matches are what kept P3P from ever finding the true consensus.  A
  // tighter distance plus symmetric cross-check prunes them without
  // starving on duplicates (the agreed best pair still agrees when the
  // corner exists twice).
  MatcherOptions matcher{/*max_distance=*/48, /*ratio=*/1.0,
                         /*cross_check=*/true};
  // Absolute consensus to accept a relocalized pose.  The tracking path
  // gates on an inlier *ratio* because a map-wide match set is mostly
  // aliased junk on novel views — which is exactly why a lost tracker
  // could never pass it (genuine consensus ~100 of ~1000 "matches" loses
  // to a 20% ratio floor) and stayed lost forever.  The reloc tier
  // matches only the recognized keyframe's neighbourhood, where aliasing
  // is bounded, so an absolute gate (ORB-SLAM accepts at 50) is both safe
  // and the thing that makes recovery actually terminate.
  int min_inliers = 50;
  // Plausibility gate on the recovered pose: recognizing keyframe K means
  // the camera sees K's scene, so the recovered camera centre must lie
  // within visibility range of K and face roughly the same way.  On
  // repetitive texture a wrong-place consensus can be large — without
  // this gate one such acceptance seeds map points at a phantom location
  // and every later recovery compounds it (observed: poses km out of the
  // room within 150 frames).
  double max_distance_m = 2.5;
  double max_rotation_rad = 1.3;
};

// The tuning of FM -> PE -> PO, shared by both session kinds
// (TrackerOptions inherits it and adds the map-updating knobs; a
// localization session reads this part of its SessionConfig::tracker).
struct TrackingOptions {
  TrackingOptions() {
    // NOTE: no ratio test against the map — the map accumulates near-
    // duplicate points over keyframes, so best/second-best are often the
    // same physical corner and a ratio test starves the matcher.
    // Degenerate consensus is handled by min_inlier_ratio + P3P instead.
    // 4-point samples need more draws once the inlier share drops below
    // ~50% under viewpoint change.
    ransac.max_iterations = 256;
    // Keypoints detected on pyramid level l are quantized by scale^l when
    // mapped to level-0 coordinates; 3 px is too strict at level 3.
    ransac.inlier_threshold_px = 4.0;
  }

  // Tier selection for feature matching against the map (projection gate
  // vs brute force); see slam/match_gate.h.  Per-session when threaded
  // through server/SessionConfig::tracker.
  MatchPolicy match;
  // Post-loss / cold-start recovery via the keyframe-recognition index;
  // see RelocOptions.
  RelocOptions reloc;
  RansacOptions ransac;
  PnpOptions pose_optimization{/*max_iterations=*/15,
                               /*initial_lambda=*/1e-4,
                               /*huber_delta=*/2.5,
                               /*convergence_step=*/1e-8};
  int min_tracked_inliers = 10;
  // A pose is only accepted (and allowed to trigger a key frame) when the
  // RANSAC consensus covers at least this share of the matches; guards
  // against degenerate consensus sets on repetitive texture, which would
  // otherwise pollute the map with misplaced points.
  double min_inlier_ratio = 0.2;
  // ...unless the consensus is large in absolute terms.  This must stay
  // conservative: on repetitive texture a *wrong* pose can collect tens of
  // aliased-but-consistent matches out of ~1000, so a small override
  // silently poisons the map (observed at 60; 400 keeps the gate honest
  // while still accepting overwhelming consensus on sparse match sets).
  int strong_consensus_inliers = 400;
  // Constant-velocity motion model: seed RANSAC/PnP with the previous pose
  // advanced by the last inter-frame motion instead of the raw previous
  // pose.  Essential when inter-frame motion is large.
  bool use_motion_model = true;
  // When both prior-seeded RANSAC attempts fail, run a prior-free P3P
  // RANSAC against the map (relocalization after tracking loss).
  bool relocalize_with_p3p = true;
};

// Everything one frame carries between pipeline stages.  A FrameState is
// created by Tracker::begin_frame() and threaded through the stage
// methods; because all per-frame intermediates live here (not in the
// Tracker), stages of different frames can execute concurrently under the
// lane contract documented on the Tracker's stage methods.  A Localizer
// keeps one and resets it per frame.
struct FrameState {
  FrameInput input;
  int index = 0;  // frame index, assigned in feed order by begin_frame()
  FeatureList features;
  std::vector<Match> matches;
  // Tier that produced `matches` (gated candidate search vs brute force).
  MatchTier match_tier = MatchTier::kBruteForce;
  // Map structural epoch the matches were computed under.  Matches are
  // index-based, so they are only usable while the map still has this
  // epoch; the pipeline runtime replays match() when a key frame's map
  // update intervened (the paper's "FM waits for MU" dependency).  The
  // epoch check covers the gated tier too: the gate prior for frame N is
  // frozen when frame N-2 retires (see Tracker::match), so between a
  // speculative match and its finalize the only input that can move is
  // the map itself.
  std::uint64_t map_epoch = 0;
  // The immutable map version `matches` were computed against: borrowed
  // wait-free from Map::read_view() (or a FrozenMap's permanent view) at
  // the top of matching (one refcount acquisition, no lock shared with
  // any writer) and held until the frame is reset, so the
  // descriptor/position spans pose estimation reads stay frozen even while
  // a concurrent session's map update publishes a successor view.
  // map_epoch mirrors view->epoch() for the replay check.
  std::shared_ptr<const MapReadView> view;
  bool bootstrap = false;  // map was empty: frame initializes the map
  // Relocalization tier only (match_tier == kRelocIndex): the 3D side of
  // each match, aligned with `matches`, reconstructed from the recognized
  // keyframes' own depth observations (pose_wc * point_cam) rather than
  // from live map positions — recovery must not depend on what pruning
  // or drift did to the map since the keyframe was made.  A match whose
  // map point is gone carries train == -1 (pose evidence only).
  std::vector<Vec3> reloc_positions;
  // The recognized keyframe's stored pose — the plausibility reference
  // for RelocOptions::max_distance_m / max_rotation_rad.
  SE3 reloc_reference_cw;
  RansacResult ransac;
  std::vector<Correspondence> correspondences;
  TrackResult result;
  // Per-frame bump arena for stage scratch (matcher distance rows, gate
  // CSR, RANSAC index buffers, the map-maintenance matched mask).  Reset
  // once per frame by reset(); after warm-up its slab chain is
  // capacity-stable, so every arena draw on the steady-state path is
  // pointer arithmetic, not heap traffic.  unique_ptr (rather than a
  // plain member) keeps FrameState cheaply movable through the pipeline
  // queues.
  std::unique_ptr<Arena> arena;
  // Gated tier's candidate structure, built into recycled vectors.
  GateResult gate;
  // Scratch result for estimate_pose()'s retry attempts (reused so a retry
  // does not allocate a fresh inlier vector every lost-ish frame).
  RansacResult ransac_retry;

  // Clears the per-frame state for reuse, keeping every container's
  // capacity; the arena is reset (created on first use).  `input` and
  // `index` are the caller's to assign.
  void reset();
};

// Constant-velocity motion model over retired poses.
struct MotionModel {
  SE3 last_pose_cw;
  SE3 prev_pose_cw;  // pose one retirement before last_pose_cw
  bool have_velocity = false;

  // The pose `steps` frames past last_pose_cw: T(t+1) ~ [T(t) T(t-1)^-1]
  // T(t), applied `steps` times; the last pose itself when the model is
  // off or has no velocity.
  SE3 predict(bool use_motion_model, int steps = 1) const {
    if (!use_motion_model || !have_velocity) return last_pose_cw;
    const SE3 step = last_pose_cw * prev_pose_cw.inverse();
    SE3 pose = last_pose_cw;
    for (int i = 0; i < steps; ++i) pose = step * pose;
    return pose;
  }
  // Advances to a newly tracked pose.  A relocalized pose has no
  // meaningful predecessor for a velocity (the camera may have recovered
  // anywhere), so `restart` keeps the model from extrapolating off it.
  void commit(const SE3& pose_cw, bool restart) {
    prev_pose_cw = last_pose_cw;
    last_pose_cw = pose_cw;
    have_velocity = !restart;
  }
  // A lost frame: the velocity estimate is no longer reliable.
  void drop_velocity() { have_velocity = false; }
  // A loop correction moved the world under the camera: pose_cw' =
  // pose_cw * adjust^-1.  The velocity last * prev^-1 is invariant (the
  // adjusts cancel), so the model carries straight through.
  void rebase(const SE3& adjust_inv) {
    last_pose_cw = last_pose_cw * adjust_inv;
    prev_pose_cw = prev_pose_cw * adjust_inv;
  }
};

// The keyframe database + recognition index the reloc tier reads.  The
// caller keeps both stable (and, for a live map, locked against writers)
// for the duration of match_frame().
struct RelocSource {
  const backend::KeyframeGraph& graph;
  const backend::KeyframeIndex& index;
};

namespace tracking {

// True when this frame could use the reloc tier at all: the index is
// enabled and the frame has enough features to ever reach
// RelocOptions::min_matches (a dropout/blank frame cannot relocalize by
// any tier and is not counted as an attempt).
bool reloc_eligible(const FrameState& fs, const TrackingOptions& options);

// Feature matching of fs.features against fs.view (which the caller
// borrowed).  Tiers, first success wins:
//   1. gated: projection-gated candidate search off `gate_prior`, when the
//      policy allows, a prior is given and the map is big enough; it
//      succeeds with at least MatchPolicy's required match count;
//   2. reloc: when `reloc` is given and its graph holds
//      RelocOptions::min_keyframes, query the recognition index and match
//      the best keyframe's neighbourhood (sets result.reloc_attempted);
//   3. brute force over the whole map.
// Writes fs.matches / match_tier / reloc_* and the result's FM fields.
// Returns false (nothing matched) when the view is empty.
bool match_frame(FrameState& fs, FeatureBackend& backend,
                 const PinholeCamera& camera, const TrackingOptions& options,
                 const std::optional<SE3>& gate_prior,
                 const RelocSource* reloc, obs::TrackId track);

// PnP + RANSAC on fs.matches against a non-empty fs.view, seeded by the
// motion model: the prior-seeded attempt, a retry from the raw last pose,
// then prior-free P3P, under the required-inliers rule (absolute for the
// reloc tier, ratio with the strong-consensus override otherwise) and the
// reloc plausibility gate.  A rejected frame is marked lost at the motion
// model's last pose.
void estimate_pose(FrameState& fs, const PinholeCamera& camera,
                   const TrackingOptions& options, const MotionModel& motion,
                   obs::TrackId track);

// LM refinement on the RANSAC inliers.  Returns false (and does nothing)
// for a bootstrap or lost frame.
bool optimize_pose(FrameState& fs, const PinholeCamera& camera,
                   const TrackingOptions& options, obs::TrackId track);

}  // namespace tracking

}  // namespace eslam
