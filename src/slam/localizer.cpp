#include "slam/localizer.h"

#include <atomic>
#include <optional>
#include <string>

#include "geometry/wall_timer.h"

namespace eslam {

namespace {
std::atomic<int> g_localization_session_ordinal{0};
}  // namespace

Localizer::Localizer(std::shared_ptr<const FrozenMap> map,
                     std::unique_ptr<FeatureBackend> backend,
                     const TrackingOptions& options)
    : map_(std::move(map)), backend_(std::move(backend)), options_(options) {
  ESLAM_ASSERT(map_ != nullptr, "localizer needs a frozen map");
  ESLAM_ASSERT(backend_ != nullptr, "localizer needs a feature backend");
  const int ordinal =
      g_localization_session_ordinal.fetch_add(1, std::memory_order_relaxed);
  obs_.pid = obs::register_process("localization-" + std::to_string(ordinal));
  obs_.frame_track = obs::register_track(obs_.pid, "frame");
  obs_.frame_ms = &obs::metrics().histogram("eslam_localizer_frame_ms");
  obs_.coldstart_ms =
      &obs::metrics().histogram("eslam_localizer_coldstart_ms");
}

TrackResult Localizer::process(const FrameInput& frame) {
  ESLAM_TRACE_SCOPE(obs_.frame_track, "frame");
  const WallTimer frame_timer;
  FrameState& fs = frame_;
  fs.reset();
  fs.result.timestamp = frame.timestamp;

  // --- Feature extraction (FPGA in the paper) ---------------------------
  {
    ESLAM_TRACE_SCOPE(obs_.frame_track, "FE");
    backend_->extract_into(frame.gray, fs.features);
  }
  fs.result.times.feature_extraction = backend_->last_extract_time_ms();
  fs.result.n_features = static_cast<int>(fs.features.size());

  // No lock, no epoch check: the frozen tier is the degenerate one-version
  // case of the live map's published-view read path — the FrozenMap pins
  // a single MapReadView forever, so a match is never replayed.  A
  // tracking localizer gates off its fresh motion model; one without a
  // pose relocalizes immediately (no lost-streak delay).
  fs.view = map_->view();
  std::optional<SE3> gate_prior;
  if (tracking_) gate_prior = motion_.predict(options_.use_motion_model);
  const RelocSource reloc{map_->graph(), map_->keyframe_index()};
  const bool may_reloc = !tracking_ && tracking::reloc_eligible(fs, options_);
  tracking::match_frame(fs, *backend_, camera(), options_, gate_prior,
                        may_reloc ? &reloc : nullptr, obs_.frame_track);
  if (map_->empty()) {
    // Nothing to localize against — unlike the tracker there is no
    // bootstrap: a frozen map is the session's whole world.
    fs.result.lost = true;
    fs.result.pose_cw = motion_.last_pose_cw;
    fs.result.pose_wc = motion_.last_pose_cw.inverse();
  } else {
    tracking::estimate_pose(fs, camera(), options_, motion_,
                            obs_.frame_track);
  }
  tracking::optimize_pose(fs, camera(), options_, obs_.frame_track);

  // Commit — pose state only; there is no map to update.
  TrackResult& result = fs.result;
  if (result.lost) {
    motion_.drop_velocity();
    tracking_ = false;
  } else {
    // A cold/lost frame that reached here recovered a pose through the
    // recognition path — that is the relocalization the stats report.
    result.relocalized = result.reloc_attempted;
    motion_.commit(result.pose_cw, result.reloc_attempted);
    tracking_ = true;
  }
  ++frames_processed_;
  // Latency rollups: every frame, plus the cold-start distribution for
  // frames that engaged the relocalization entry path (the tier's
  // time-to-first-pose signal).
  const double frame_ms = frame_timer.elapsed_ms();
  obs_.frame_ms->record(frame_ms);
  if (result.reloc_attempted) obs_.coldstart_ms->record(frame_ms);
  return result;
}

}  // namespace eslam
