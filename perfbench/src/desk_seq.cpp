// desk_seq: one fr1/desk camera through System::process on the software
// platform, sequential execution, local-mapping backend on (BA runs inline
// at keyframes, so every pass is deterministic).  Closed loop: each frame
// is fed after the previous one returns.  Feature extraction is ~90% of a
// frame here and nothing runs on another thread, so features/ and image/
// changes show at full strength and runtime/ or server/ changes should
// show none.
//
// Timed run: fresh Systems replay the same rendered frames pass after pass
// until the time budget is spent; every pass must reproduce the first
// bit for bit.  Traced run: half the budget on the same System::process
// passes, half driving a Tracker through the stage API under the
// benchmark's spans; the stage-API trajectory must equal the System one.
#include <algorithm>
#include <memory>

#include "accel/backend_factory.h"
#include "common.h"
#include "core/eslam.h"
#include "eval/ate.h"
#include "kernels.h"
#include "pace.h"

namespace perfbench {

namespace {

constexpr int kFrames = 40;          // frames per pass (~6 s on a 2 GHz core)
constexpr std::uint32_t kStreamTag = 0xde5c;
constexpr int kSetupRepeats = 3;
constexpr int kRenderThreads = 4;
// Correctness bound on the first pass's mean ATE.  A healthy 40-frame pass
// stays within a few cm whatever the seed; a broken tracker drifts by metres.
constexpr double kMaxAteCm = 30.0;

eslam::SystemConfig desk_config() {
  eslam::SystemConfig config;
  config.platform = eslam::Platform::kSoftware;
  config.execution = eslam::ExecutionMode::kSequential;
  config.tracker.backend.enabled = true;
  return config;
}

// The backend System builds for `config` (core/eslam.cpp's mapping).
std::unique_ptr<eslam::FeatureBackend> backend_for(
    const eslam::SystemConfig& config) {
  eslam::BackendConfig backend;
  backend.platform = config.platform;
  backend.descriptor = config.descriptor;
  backend.orb = config.orb;
  backend.hw_extractor = config.hw_extractor;
  backend.hw_matcher = config.hw_matcher;
  backend.matcher = config.tracker.matcher;
  return eslam::make_feature_backend(backend);
}

struct Pass {
  std::vector<eslam::TrackResult> results;
  std::vector<double> latency_ms;  // wall
  std::vector<double> pace_ms;     // reference kernel around each frame
  std::size_t map_points = 0;
  eslam::MapViewStats view;
  int backend_jobs = 0;
};

Pass system_pass(const Stream& stream, const eslam::SystemConfig& config) {
  Pass pass;
  eslam::System system(stream.camera, config);
  for (const FrameInput& frame : stream.frames) {
    const double before = reference_ms();
    const double start = now_ms();
    pass.results.push_back(system.process(frame));
    pass.latency_ms.push_back(now_ms() - start);
    pass.pace_ms.push_back((before + reference_ms()) / 2);
  }
  pass.map_points = system.map().size();
  return pass;
}

Pass stage_api_pass(const Stream& stream, const eslam::SystemConfig& config,
                    SpanLog& log) {
  Pass pass;
  eslam::Tracker tracker(stream.camera, backend_for(config), config.tracker);
  for (std::size_t i = 0; i < stream.frames.size(); ++i) {
    const auto id = static_cast<std::int64_t>(i);
    const double before = reference_ms();
    const double start = now_ms();
    log.scope("slam", "frame", id, "", [&] {
      eslam::FrameState fs = log.scope("slam", "begin_frame", id, "frame", [&] {
        return tracker.begin_frame(stream.frames[i]);
      });
      log.scope("slam", "extract", id, "frame", [&] { tracker.extract(fs); });
      log.scope("slam", "match", id, "frame", [&] { tracker.match(fs); });
      log.scope("slam", "estimate_pose", id, "frame",
                [&] { tracker.estimate_pose(fs); });
      log.scope("slam", "optimize_pose", id, "frame",
                [&] { tracker.optimize_pose(fs); });
      pass.results.push_back(log.scope("slam", "update_map", id, "frame", [&] {
        return tracker.update_map(fs);
      }));
      log.scope("slam", "recycle_frame", id, "frame",
                [&] { tracker.recycle_frame(std::move(fs)); });
      if (tracker.backend_job_pending())
        log.scope("backend", "run_backend_job", id, "frame",
                  [&] { tracker.run_backend_job(); });
    });
    pass.latency_ms.push_back(now_ms() - start);
    pass.pace_ms.push_back((before + reference_ms()) / 2);
  }
  pass.map_points = tracker.map().size();
  pass.view = tracker.map().view_stats();
  pass.backend_jobs = tracker.backend_stats().jobs_run;
  return pass;
}

bool same_trajectory(const Pass& a, const Pass& b) {
  if (a.results.size() != b.results.size()) return false;
  for (std::size_t i = 0; i < a.results.size(); ++i)
    if (!same_result(a.results[i], b.results[i])) return false;
  return true;
}

// Runs passes until `budget_ms` is spent (at least one), each on the next
// CPU in turn, so one run samples every vCPU of the shared host rather than
// whichever one the thread happened to land on (see CpuTurn).
template <class RunPass>
std::vector<Pass> passes_for(double budget_ms, RunPass&& run_pass) {
  std::vector<Pass> passes;
  const double start = now_ms();
  do {
    const CpuTurn turn(static_cast<int>(passes.size()));
    passes.push_back(run_pass());
  } while (now_ms() - start < budget_ms);
  return passes;
}

// Scores a run's passes: every frame latency of every pass, paced (see
// pace.h); the wall latencies are kept beside them.
void report_passes(const std::vector<Pass>& passes, const std::string& prefix,
                   Report& report) {
  std::vector<double> latency, wall;
  for (const Pass& p : passes)
    for (std::size_t i = 0; i < p.latency_ms.size(); ++i) {
      wall.push_back(p.latency_ms[i]);
      latency.push_back(paced(p.latency_ms[i], p.pace_ms[i]));
    }
  double busy = 0;
  for (const double ms : latency) busy += ms;
  report.samples(prefix + "frame_ms", latency);
  report.samples(prefix + "wall_frame_ms", wall);
  report.number(prefix + "fps",
                1000.0 * static_cast<double>(latency.size()) / busy);
  report.number(prefix + "passes", static_cast<double>(passes.size()));
}

}  // namespace

std::uint64_t desk_seq_input_digest(std::uint32_t seed) {
  return digest_frames(render_stream(eslam::SequenceId::kFr1Desk, seed,
                                     kStreamTag, kFrames, kRenderThreads)
                           .frames);
}

void run_desk_seq(const Args& args, Report& report) {
  const eslam::SystemConfig config = desk_config();

  // --- set-up: render the pass and build a System, several times ---------
  Stream stream;
  std::vector<double> setup_s, wall_setup_s;
  std::uint64_t digest = 0;
  bool inputs_repeat = true;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double before = reference_median_ms(kPaceRuns);
    const double start = now_ms();
    Stream s = render_stream(eslam::SequenceId::kFr1Desk, args.seed,
                             kStreamTag, kFrames, kRenderThreads);
    { const eslam::System warm(s.camera, config); }
    wall_setup_s.push_back((now_ms() - start) / 1000.0);
    setup_s.push_back(
        paced(wall_setup_s.back(),
              (before + reference_median_ms(kPaceRuns)) / 2));
    const std::uint64_t d = digest_frames(s.frames);  // same seed, same bytes
    if (r == 0) digest = d;
    inputs_repeat = inputs_repeat && d == digest;
    stream = std::move(s);
  }
  report.samples("setup_s", setup_s);
  report.samples("wall_setup_s", wall_setup_s);
  report.check("inputs_repeat", inputs_repeat,
               "each set-up rendered byte-identical frames for the seed");

  const double budget_ms = args.seconds * 1000.0;
  std::vector<Pass> passes;
  if (!args.trace) {
    passes = passes_for(budget_ms, [&] { return system_pass(stream, config); });
    report_passes(passes, "", report);
  } else {
    passes = passes_for(budget_ms / 2,
                        [&] { return system_pass(stream, config); });
    report_passes(passes, "", report);

    SpanLog log(0, /*enabled=*/true);
    const double traced_start = now_ms();
    std::vector<Pass> traced = passes_for(
        budget_ms / 2, [&] { return stage_api_pass(stream, config, log); });
    report_passes(traced, "traced_", report);

    bool identical = true;
    for (const Pass& p : traced) identical = identical && same_trajectory(p, passes[0]);
    report.check("stage_api_matches_system", identical,
                 "stage-API trajectory is bit-identical to System::process");

    // Per-layer ledger from the traced passes.
    double frames = 0, features = 0, matches = 0, inliers = 0, gated = 0,
           keyframes = 0, points = 0, publishes = 0, copied = 0, jobs = 0;
    for (const Pass& p : traced) {
      for (const eslam::TrackResult& r : p.results) {
        frames += 1;
        features += r.n_features;
        matches += r.n_matches;
        inliers += r.n_inliers;
        gated += r.match_tier == eslam::MatchTier::kGated;
        keyframes += r.keyframe;
      }
      points += static_cast<double>(p.map_points);
      publishes += static_cast<double>(p.view.publishes);
      copied += static_cast<double>(p.view.bytes_copied);
      jobs += p.backend_jobs;
    }
    const double n_passes = static_cast<double>(traced.size());
    report.number("slam.match_ms", log.mean_ms("match"));
    report.number("slam.pose_ms", log.mean_ms("estimate_pose"));
    report.number("slam.optimize_ms", log.mean_ms("optimize_pose"));
    report.number("slam.update_map_ms", log.mean_ms("update_map"));
    report.number("slam.gated_frac", gated / frames);
    report.number("slam.match_frac", matches / std::max(features, 1.0));
    report.number("slam.inlier_frac", inliers / std::max(matches, 1.0));
    report.number("slam.keyframe_frac", keyframes / frames);
    report.number("slam.map_points", points / n_passes);
    report.number("slam.publishes", publishes / frames);
    report.number("slam.bytes_copied_mb", copied / (1024.0 * 1024.0) / frames);
    report.number("backend.jobs", jobs / frames);
    report.number("backend.job_ms",
                  log.total_ms("run_backend_job") / std::max(jobs, 1.0));
    // Absent layers in this workload: no scheduler, no service, no queue.
    for (const char* key :
         {"runtime.device_busy_frac", "runtime.arm_busy_frac",
          "runtime.replayed_frac", "runtime.rejected_feeds",
          "backend.jobs_rejected", "slam.coldstart_ok"})
      report.number(key, 0.0);

    // Kernel probes on frames of the same pass.
    SpanLog kernel_log(1, /*enabled=*/true);
    const std::vector<const FrameInput*> probe = probe_frames(stream.frames);
    report_fe_breakdown(probe, config.orb, kernel_log, report);
    report_accel_probe(probe, kernel_log, report);

    if (!write_chrome_trace(args.trace_out, {&log, &kernel_log},
                            traced_start))
      report.check("span_file_written", false, args.trace_out);
  }

  // --- correctness of the timed passes -----------------------------------
  bool deterministic = true;
  int lost = 0;
  for (const Pass& p : passes) {
    deterministic = deterministic && same_trajectory(p, passes[0]);
    for (const eslam::TrackResult& r : p.results) lost += r.lost;
  }
  report.check("passes_deterministic", deterministic,
               "every System::process pass reproduces the first bit for bit");
  std::vector<eslam::SE3> poses;
  for (const eslam::TrackResult& r : passes[0].results)
    poses.push_back(r.pose_wc);
  const eslam::AteResult ate =
      eslam::absolute_trajectory_error(poses, stream.ground_truth);
  report.number("ate_cm", ate.mean * 100.0);
  report.check("ate_bound", ate.mean * 100.0 <= kMaxAteCm,
               "mean ATE of the first pass within " +
                   std::to_string(static_cast<int>(kMaxAteCm)) + " cm");
  double total = 0;
  for (const Pass& p : passes) total += static_cast<double>(p.results.size());
  report.number("attempted", total);
  report.number("failed", 0);
  report.number("lost_frac", lost / total);
  report.number("late_frac", 0);  // closed loop: a frame is due when fed
  report.number("peak_rss_mb", peak_rss_mb());
}

}  // namespace perfbench
