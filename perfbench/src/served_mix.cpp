// served_mix: an open loop over SlamService with two ARM workers.  One
// mapping session on Platform::kAccelerated (the cycle-simulated fabric on
// the device lane, backend on) is fed its own fr1/xyz stream; two
// localization sessions on Platform::kSoftware serve against a FrozenMap
// that set-up builds from fr1/desk and passes through serialize_snapshot
// -> parse_snapshot.  One generator thread (this one) makes each session's
// frames due on a fixed, staggered schedule whether or not the service
// keeps up; a refused try_feed stays in a client-side backlog and is
// retried, never dropped.  Latency runs from a frame's due time to the
// poll() that returns it.  Generator + device lane + 2 workers = 4
// threads.
//
// This exercises what desk_seq cannot: the device lane, ARM-pool sharing
// between the tiers, the backend job lane, frozen-map reads beside live
// map writes, and the accel/ simulator.  Software FE appears only in the
// localization tier.
#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "accel/backend_factory.h"
#include "common.h"
#include "kernels.h"
#include "pace.h"
#include "server/slam_service.h"
#include "slam/map_snapshot.h"

namespace perfbench {

namespace {

constexpr int kArmWorkers = 2;
constexpr double kRateFps = 2.0;      // offered frames/s per session
constexpr int kMapFrames = 20;        // fr1/desk frames the frozen map holds
constexpr int kXyzFrames = 30;        // mapping stream (played ping-pong)
constexpr std::uint32_t kDeskTag = 0xde5c;
constexpr std::uint32_t kXyzTag = 0x0c1c;
constexpr int kSetupRepeats = 3;
constexpr int kTrials = 4;           // schedule replays per timed run
constexpr int kRenderThreads = 4;
constexpr double kLateMs = 1000.0;    // delivered later than this is late
constexpr double kDrainMs = 30000.0;  // wait this long past the window
// A generator that noticed a frame this late has stopped being an open
// loop; the run is flagged and not scored.
constexpr double kMaxGenLagMs = 100.0;
// The generator times the reference kernel this often (see pace.h).
constexpr double kPaceEveryMs = 25.0;

// Index of the k-th frame fed from a stream of `n` frames when the stream
// is played forwards then backwards (0..n-1, n-2..1, 0..), so a session
// fed longer than the stream never sees a jump.
int ping_pong(int k, int n) {
  if (n <= 1) return 0;
  const int period = 2 * (n - 1);
  const int r = k % period;
  return r < n ? r : period - r;
}

// The metrics registry's text exposition (SlamService::metrics_exposition)
// parsed into sample name (labels included) -> value.
using Exposition = std::map<std::string, double>;

Exposition read_exposition(const std::string& text) {
  Exposition out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

// after[name] - before[name] (0 when absent).
double delta(const Exposition& before, const Exposition& after,
             const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

// Sum of deltas over every sample named `<prefix><suffix>`, whatever its
// labels (e.g. one histogram's _sum across all label values).
double delta_sum(const Exposition& before, const Exposition& after,
                 const std::string& prefix, const std::string& suffix) {
  double sum = 0;
  for (const auto& entry : after) {
    const std::string& name = entry.first;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    const std::string rest = name.substr(prefix.size());
    if (rest.compare(0, suffix.size(), suffix) != 0) continue;
    const std::string tail = rest.substr(suffix.size());
    if (!tail.empty() && tail[0] != '{') continue;
    sum += delta(before, after, name);
  }
  return sum;
}

// Wraps a session's feature backend to time each call on the lane that
// makes it (traced runs only).  Calls may come from the device lane and,
// for a replayed match, from an ARM worker, so recording is locked.
class TimedBackend final : public eslam::FeatureBackend {
  template <class F>
  decltype(auto) timed(const char* name, F&& f) {
    struct Guard {
      TimedBackend* self;
      const char* name;
      double start = now_ms();
      ~Guard() {
        const double end = now_ms();
        const std::lock_guard<std::mutex> lock(self->mutex_);
        self->log_.record("accel", name, -1, "", start, end);
      }
    } guard{this, name};
    return f();
  }

 public:
  TimedBackend(std::unique_ptr<eslam::FeatureBackend> inner, SpanLog& log,
               std::mutex& mutex)
      : inner_(std::move(inner)), log_(log), mutex_(mutex) {}

  eslam::FeatureList extract(const eslam::ImageU8& image) override {
    return timed("hw_extract", [&] { return inner_->extract(image); });
  }
  std::vector<eslam::Match> match(
      std::span<const eslam::Descriptor256> queries,
      std::span<const eslam::Descriptor256> train) override {
    return timed("hw_match", [&] { return inner_->match(queries, train); });
  }
  std::vector<eslam::Match> match_candidates(
      std::span<const eslam::Descriptor256> queries,
      std::span<const eslam::Descriptor256> train,
      const eslam::CandidateSet& candidates) override {
    return timed("hw_match", [&] {
      return inner_->match_candidates(queries, train, candidates);
    });
  }
  void extract_into(const eslam::ImageU8& image,
                    eslam::FeatureList& out) override {
    timed("hw_extract", [&] { inner_->extract_into(image, out); });
  }
  void match_into(std::span<const eslam::Feature> queries,
                  const eslam::TrainView& train, eslam::Arena* scratch,
                  std::vector<eslam::Match>& out) override {
    timed("hw_match",
          [&] { inner_->match_into(queries, train, scratch, out); });
  }
  void match_candidates_into(std::span<const eslam::Feature> queries,
                             const eslam::TrainView& train,
                             const eslam::CandidateSet& candidates,
                             eslam::Arena* scratch,
                             std::vector<eslam::Match>& out) override {
    timed("hw_match", [&] {
      inner_->match_candidates_into(queries, train, candidates, scratch, out);
    });
  }
  double last_extract_time_ms() const override {
    return inner_->last_extract_time_ms();
  }
  double last_match_time_ms() const override {
    return inner_->last_match_time_ms();
  }
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<eslam::FeatureBackend> inner_;
  SpanLog& log_;
  std::mutex& mutex_;
};

// Everything set-up produces.
struct Setup {
  Stream desk;  // frozen-map source and the localization streams
  Stream xyz;   // the mapping session's stream
  std::shared_ptr<const eslam::FrozenMap> frozen;
  std::vector<std::uint8_t> snapshot_bytes;
};

Setup build_setup(std::uint32_t seed) {
  Setup setup;
  setup.desk = render_stream(eslam::SequenceId::kFr1Desk, seed, kDeskTag,
                             kMapFrames, kRenderThreads);
  setup.xyz = render_stream(eslam::SequenceId::kFr1Xyz, seed, kXyzTag,
                            kXyzFrames, kRenderThreads);
  eslam::TrackerOptions options;
  options.backend.enabled = true;
  eslam::Tracker mapper(setup.desk.camera,
                        std::make_unique<eslam::SoftwareBackend>(),
                        options);
  for (const FrameInput& f : setup.desk.frames) mapper.process(f);
  setup.snapshot_bytes = eslam::serialize_snapshot(eslam::capture_snapshot(
      mapper.map(), mapper.keyframe_graph(), setup.desk.camera));
  eslam::MapSnapshot parsed;
  if (eslam::parse_snapshot(setup.snapshot_bytes, parsed))
    setup.frozen = eslam::FrozenMap::from_snapshot(std::move(parsed));
  return setup;
}

eslam::SessionConfig mapping_config(const Setup& setup) {
  eslam::SessionConfig config;
  config.kind = eslam::SessionKind::kMapping;
  config.camera = setup.xyz.camera;
  config.backend.platform = eslam::Platform::kAccelerated;
  config.tracker.backend.enabled = true;
  return config;
}

eslam::SessionConfig localization_config(const Setup& setup) {
  eslam::SessionConfig config;
  config.kind = eslam::SessionKind::kLocalization;
  config.frozen_map = setup.frozen;
  config.backend.platform = eslam::Platform::kSoftware;
  return config;
}

// One session's client side of the open loop.
struct Client {
  eslam::SessionHandle handle;
  const Stream* stream = nullptr;
  bool mapping = false;
  int start_frame = 0;     // ping-pong ordinal of the first frame fed
  double phase_ms = 0;     // stagger within one schedule period
  int total = 0;           // frames due inside the window
  int scheduled = 0;       // frames made due so far
  std::deque<int> backlog; // due but not yet accepted
  std::vector<double> due_ms, delivered_ms;
  std::vector<eslam::TrackResult> results;

  int frame_of(int ordinal) const {
    return ping_pong(start_frame + ordinal,
                     static_cast<int>(stream->frames.size()));
  }
};

struct Window {
  std::vector<Client> clients;
  double wall_ms = 0;       // first due -> last delivery
  std::vector<double> gen_lag_ms;
  PaceLog pace;
  int rejected_feeds = 0;
  double poll_ms = 0;  // traced windows: every poll() call, summed
  double polls = 0;
  Exposition before, after;
  std::size_t map_points = 0;
  eslam::MapViewStats view;
  int backend_jobs = 0;
};

// Opens the three sessions on `service` (mapping first, then the two
// localization sessions at opposite ends of the desk stream).
std::vector<Client> open_clients(eslam::SlamService& service,
                                 const Setup& setup,
                                 const eslam::SessionConfig& mapping) {
  std::vector<Client> clients(3);
  clients[0].handle = service.open_session(mapping);
  clients[0].stream = &setup.xyz;
  clients[0].mapping = true;
  for (int k = 1; k < 3; ++k) {
    clients[k].handle = service.open_session(localization_config(setup));
    clients[k].stream = &setup.desk;
    clients[k].start_frame = (k - 1) * (kMapFrames - 1);
  }
  return clients;
}

Window run_window(const eslam::SlamService& service,
                  std::vector<Client> clients, double seconds,
                  SpanLog& gen_log) {
  Window w;
  w.clients = std::move(clients);
  const double period_ms = 1000.0 / kRateFps;
  const int n = static_cast<int>(w.clients.size());
  const double t0 = now_ms() + 20.0;
  const double end = t0 + seconds * 1000.0;
  for (int k = 0; k < n; ++k) {
    Client& c = w.clients[static_cast<std::size_t>(k)];
    c.phase_ms = period_ms * k / n;
    c.total = static_cast<int>(std::ceil((end - t0 - c.phase_ms) / period_ms));
    c.due_ms.resize(static_cast<std::size_t>(c.total));
    for (int j = 0; j < c.total; ++j)
      c.due_ms[static_cast<std::size_t>(j)] = t0 + c.phase_ms + j * period_ms;
    c.delivered_ms.assign(static_cast<std::size_t>(c.total), -1.0);
  }
  w.before = read_exposition(service.metrics_exposition());

  double last_delivery = t0;
  double next_pace = 0;
  for (;;) {
    double now = now_ms();
    if (now >= next_pace) {
      w.pace.sample();
      next_pace = now + kPaceEveryMs;
      now = now_ms();
    }
    bool done = true;
    double next_due = end + kDrainMs;
    for (Client& c : w.clients) {
      while (c.scheduled < c.total &&
             c.due_ms[static_cast<std::size_t>(c.scheduled)] <= now) {
        w.gen_lag_ms.push_back(now -
                               c.due_ms[static_cast<std::size_t>(c.scheduled)]);
        c.backlog.push_back(c.scheduled++);
      }
      while (!c.backlog.empty()) {
        const int ordinal = c.backlog.front();
        const FrameInput& frame =
            c.stream->frames[static_cast<std::size_t>(c.frame_of(ordinal))];
        const bool accepted = gen_log.scope(
            "server", "try_feed", ordinal, "",
            [&] { return c.handle.try_feed(frame); });
        if (!accepted) {
          ++w.rejected_feeds;
          break;
        }
        c.backlog.pop_front();
      }
      for (;;) {
        // Every poll is timed, but only the ones that return a frame get a
        // span: the generator polls each session every millisecond.
        const double poll_start = now_ms();
        std::optional<eslam::TrackResult> r = c.handle.poll();
        if (gen_log.enabled()) {
          const double poll_end = now_ms();
          w.poll_ms += poll_end - poll_start;
          ++w.polls;
          if (r)
            gen_log.record("server", "poll",
                           static_cast<std::int64_t>(c.results.size()), "",
                           poll_start, poll_end);
        }
        if (!r) break;
        last_delivery = now_ms();
        c.delivered_ms[c.results.size()] = last_delivery;
        c.results.push_back(std::move(*r));
      }
      if (c.scheduled < c.total)
        next_due = std::min(next_due,
                            c.due_ms[static_cast<std::size_t>(c.scheduled)]);
      done = done && c.scheduled == c.total &&
             static_cast<int>(c.results.size()) == c.total;
    }
    now = now_ms();
    if (done || now > end + kDrainMs) break;
    // Wake at the next due time, and at least every millisecond to poll.
    const double wake = std::min(next_due, now + 1.0);
    if (wake > now)
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(wake - now));
  }
  w.wall_ms = last_delivery - t0;
  w.after = read_exposition(service.metrics_exposition());

  Client& mapper = w.clients[0];
  mapper.handle.drain();  // finish background BA before reading the map
  w.map_points = mapper.handle.tracker().map().size();
  w.view = mapper.handle.tracker().map().view_stats();
  w.backend_jobs = mapper.handle.backend_stats().jobs_run;
  for (Client& c : w.clients) c.handle.close();
  return w;
}

// Scores a run's trials under `prefix`: the latency of every delivered
// frame, overall and per tier, paced by the reference samples taken
// between its due time and its delivery (see pace.h); the wall latencies
// are kept beside them.  Counts (late, lost, failed) cover every frame
// made due, and lateness is judged on wall time.
void report_windows(const std::vector<const Window*>& windows,
                    const std::string& prefix, Report& report) {
  std::vector<double> all, wall_all, map, loc;
  double attempted = 0, delivered = 0, late = 0, lost = 0, wall = 0,
         fabric_ms = 0;
  for (const Window* w : windows) {
    wall += w->wall_ms;
    for (const Client& c : w->clients)
      for (int j = 0; j < c.total; ++j) {
        attempted += 1;
        const double d = c.delivered_ms[static_cast<std::size_t>(j)];
        if (d < 0) {
          late += 1;
          lost += 1;
          continue;
        }
        delivered += 1;
        const eslam::TrackResult& r = c.results[static_cast<std::size_t>(j)];
        const double due = c.due_ms[static_cast<std::size_t>(j)];
        const double wall_latency = d - due;
        const double latency = paced(wall_latency, w->pace.around(due, d));
        wall_all.push_back(wall_latency);
        all.push_back(latency);
        (c.mapping ? map : loc).push_back(latency);
        late += wall_latency > kLateMs;
        lost += r.lost;
        if (c.mapping)
          fabric_ms += r.times.feature_extraction + r.times.feature_matching;
      }
  }
  report.samples(prefix + "frame_ms", all);
  report.samples(prefix + "wall_frame_ms", wall_all);
  report.samples(prefix + "map_frame_ms", map);
  report.samples(prefix + "loc_frame_ms", loc);
  report.number(prefix + "fps", 1000.0 * delivered / wall);
  report.number(prefix + "trials", static_cast<double>(windows.size()));
  report.number(prefix + "attempted", attempted);
  report.number(prefix + "failed", attempted - delivered);
  report.number(prefix + "late_frac", late / attempted);
  report.number(prefix + "lost_frac", lost / attempted);
  // The modelled eSLAM number: simulated FE+FM per mapping frame.
  report.number(prefix + "fabric_sim_ms",
                fabric_ms / std::max<double>(map.size(), 1.0));
}

// Correctness of a run's trials: every frame delivered, each localization
// stream bit-identical to a solo Localizer over the same frames and map
// (every trial feeds the same frames, so one oracle serves them all), and
// each localization session entering through the reloc tier.
void check_windows(const std::vector<const Window*>& windows,
                   const Setup& setup, Report& report) {
  bool all_delivered = true;
  for (const Window* w : windows)
    for (const Client& c : w->clients)
      all_delivered =
          all_delivered && static_cast<int>(c.results.size()) == c.total;
  report.check("every_frame_delivered", all_delivered,
               "every session delivered every frame it was fed");

  // Localization clients sit at the same positions in every trial.
  const std::vector<Client>& shape = windows[0]->clients;
  std::vector<std::vector<eslam::TrackResult>> oracle(shape.size());
  std::vector<std::thread> oracles;
  for (std::size_t k = 0; k < shape.size(); ++k) {
    if (shape[k].mapping) continue;
    int frames = 0;
    for (const Window* w : windows)
      frames = std::max(frames, static_cast<int>(w->clients[k].results.size()));
    oracles.emplace_back([&, k, frames] {
      eslam::Localizer solo(setup.frozen,
                            eslam::make_feature_backend(
                                localization_config(setup).backend));
      for (int j = 0; j < frames; ++j)
        oracle[k].push_back(solo.process(
            shape[k].stream->frames[static_cast<std::size_t>(
                shape[k].frame_of(j))]));
    });
  }
  for (std::thread& t : oracles) t.join();

  bool identical = true, coldstart = true;
  double sessions = 0, relocalized = 0;
  for (const Window* w : windows)
    for (std::size_t k = 0; k < w->clients.size(); ++k) {
      const Client& c = w->clients[k];
      if (c.mapping) continue;
      for (std::size_t j = 0; j < c.results.size(); ++j)
        identical = identical && same_result(c.results[j], oracle[k][j]);
      const bool entered = !c.results.empty() && c.results[0].reloc_attempted;
      coldstart = coldstart && entered;
      sessions += 1;
      relocalized += entered && c.results[0].relocalized;
    }
  report.check("localization_matches_solo", identical,
               "served localization streams equal a solo Localizer");
  report.check("localization_coldstart", coldstart,
               "each localization session's first frame took the reloc tier");
  report.number("slam.coldstart_ok", relocalized / std::max(sessions, 1.0));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Per-layer ledger of the traced window.
void report_layers(const Window& w, const SpanLog& gen_log,
                   const SpanLog& device_log, Report& report) {
  const Exposition& b = w.before;
  const Exposition& a = w.after;
  const Client& mapper = w.clients[0];
  const double map_frames = static_cast<double>(mapper.results.size());

  // The mapping tracker's FE/FM times are simulated fabric ms; its PE/PO/MU
  // times (MU on keyframes only) and every localizer stage are host ms on
  // an ARM worker.
  double fe_sim = 0, fm_sim = 0, keyframes = 0, pe = 0, po = 0, mu = 0;
  for (const eslam::TrackResult& r : mapper.results) {
    fe_sim += r.times.feature_extraction;
    fm_sim += r.times.feature_matching;
    pe += r.times.pose_estimation;
    po += r.times.pose_optimization;
    mu += r.times.map_updating;
    keyframes += r.keyframe;
  }
  double frames = 0, features = 0, matches = 0, inliers = 0, gated = 0,
         arm_ms = pe + po + mu;
  for (const Client& c : w.clients)
    for (const eslam::TrackResult& r : c.results) {
      frames += 1;
      features += r.n_features;
      matches += r.n_matches;
      inliers += r.n_inliers;
      gated += r.match_tier == eslam::MatchTier::kGated;
      if (!c.mapping) arm_ms += r.times.total();
    }

  report.number("accel.extract_host_ms", device_log.mean_ms("hw_extract"));
  report.number("accel.fe_sim_cycles", to_cycles(ratio(fe_sim, map_frames)));
  report.number("accel.fm_sim_cycles", to_cycles(ratio(fm_sim, map_frames)));

  report.number("slam.match_ms",
                ratio(device_log.total_ms("hw_match"), map_frames));
  report.number("slam.pose_ms", ratio(pe, map_frames));
  report.number("slam.optimize_ms", ratio(po, map_frames));
  report.number("slam.update_map_ms", ratio(mu, map_frames));
  report.number("slam.gated_frac", ratio(gated, frames));
  report.number("slam.match_frac", ratio(matches, features));
  report.number("slam.inlier_frac", ratio(inliers, matches));
  report.number("slam.keyframe_frac", ratio(keyframes, map_frames));
  report.number("slam.map_points", static_cast<double>(w.map_points));
  report.number("slam.publishes",
                ratio(static_cast<double>(w.view.publishes), map_frames));
  report.number("slam.bytes_copied_mb",
                ratio(static_cast<double>(w.view.bytes_copied) /
                          (1024.0 * 1024.0),
                      map_frames));

  const double optimize_sum =
      delta_sum(b, a, "eslam_backend_optimize_ms", "_sum");
  const double optimize_count =
      delta_sum(b, a, "eslam_backend_optimize_ms", "_count");
  report.number("backend.job_ms", ratio(optimize_sum, optimize_count));
  report.number("backend.jobs", ratio(w.backend_jobs, map_frames));
  report.number("backend.queue_ms",
                ratio(delta_sum(b, a, "eslam_backend_queue_wait_ms", "_sum"),
                      delta_sum(b, a, "eslam_backend_queue_wait_ms", "_count")));
  report.number("backend.jobs_rejected",
                delta(b, a, "eslam_backend_jobs_rejected_total"));

  // Lane occupancy over the window: the device lane's fabric calls, and
  // the ARM pool's tracked stages, localizer frames and backend jobs.
  double device_ms = 0;
  for (const SpanLog::Span& s : device_log.spans()) device_ms += s.dur_ms;
  arm_ms += optimize_sum;
  report.number("runtime.device_busy_frac", ratio(device_ms, w.wall_ms));
  report.number("runtime.arm_busy_frac",
                ratio(arm_ms, kArmWorkers * w.wall_ms));
  report.number("runtime.dispatch_wait_ms",
                ratio(delta(b, a, "eslam_scheduler_dispatch_wait_ms_sum"),
                      delta(b, a, "eslam_scheduler_dispatch_wait_ms_count")));
  report.number("runtime.replayed_frac",
                ratio(delta(b, a, "eslam_replayed_matches_total"),
                      delta(b, a, "eslam_speculative_matches_total")));
  report.number("runtime.rejected_feeds", w.rejected_feeds);

  report.number("server.feed_us", gen_log.mean_ms("try_feed") * 1000.0);
  report.number("server.poll_us", ratio(w.poll_ms, w.polls) * 1000.0);
}

std::uint64_t stream_digest(const Setup& setup) {
  return digest_frames(setup.desk.frames) ^ (digest_frames(setup.xyz.frames) << 1);
}

}  // namespace

std::uint64_t served_mix_input_digest(std::uint32_t seed) {
  Setup setup;
  setup.desk = render_stream(eslam::SequenceId::kFr1Desk, seed, kDeskTag,
                             kMapFrames, kRenderThreads);
  setup.xyz = render_stream(eslam::SequenceId::kFr1Xyz, seed, kXyzTag,
                            kXyzFrames, kRenderThreads);
  return stream_digest(setup);
}

void run_served_mix(const Args& args, Report& report) {
  // --- set-up: render, build + round-trip the frozen map, open sessions --
  // Repeated so setup_s is a median; the last repetition is kept.  Setup is
  // heap-held because the clients point into its streams.
  std::vector<double> setup_s, wall_setup_s;
  std::unique_ptr<Setup> setup;
  std::unique_ptr<eslam::SlamService> service;
  std::vector<Client> clients;
  bool inputs_repeat = true;
  std::uint64_t digest = 0;
  std::vector<std::uint8_t> first_snapshot;
  for (int r = 0; r < kSetupRepeats; ++r) {
    clients.clear();  // closes the previous repetition's sessions
    service.reset();
    const double before = reference_median_ms(kPaceRuns);
    const double start = now_ms();
    setup = std::make_unique<Setup>(build_setup(args.seed));
    if (!setup->frozen) break;
    service = std::make_unique<eslam::SlamService>(
        eslam::ServiceOptions{kArmWorkers});
    clients = open_clients(*service, *setup, mapping_config(*setup));
    wall_setup_s.push_back((now_ms() - start) / 1000.0);
    setup_s.push_back(
        paced(wall_setup_s.back(),
              (before + reference_median_ms(kPaceRuns)) / 2));

    const std::uint64_t d = stream_digest(*setup);
    if (r == 0) {
      digest = d;
      first_snapshot = setup->snapshot_bytes;
    }
    inputs_repeat = inputs_repeat && d == digest &&
                    setup->snapshot_bytes == first_snapshot;
  }
  report.check("snapshot_round_trip", setup->frozen != nullptr,
               "serialize_snapshot -> parse_snapshot accepted the map");
  if (!setup->frozen) return;
  report.samples("setup_s", setup_s);
  report.samples("wall_setup_s", wall_setup_s);
  report.check("inputs_repeat", inputs_repeat,
               "each set-up rendered byte-identical frames and snapshot");
  report.number("frozen_map_points",
                static_cast<double>(setup->frozen->size()));

  // --- measured trials ----------------------------------------------------
  // A timed run splits --seconds into kTrials replays of the schedule, each
  // on a fresh service (every trial feeds the same frames, so one oracle
  // checks them all); a traced run spends half on one untraced trial and
  // half on a traced one.
  SpanLog untraced(0, /*enabled=*/false);
  const int trials = args.trace ? 1 : kTrials;
  const double trial_s = args.trace ? args.seconds / 2 : args.seconds / trials;
  std::vector<Window> windows;
  windows.reserve(static_cast<std::size_t>(trials) + 1);  // `scored` points in
  for (int t = 0; t < trials; ++t) {
    if (t > 0) {
      service = std::make_unique<eslam::SlamService>(
          eslam::ServiceOptions{kArmWorkers});
      clients = open_clients(*service, *setup, mapping_config(*setup));
    }
    windows.push_back(
        run_window(*service, std::move(clients), trial_s, untraced));
    service.reset();
  }
  std::vector<const Window*> scored;
  for (const Window& w : windows) scored.push_back(&w);
  report_windows(scored, "", report);
  std::vector<double> gen_lag;
  for (const Window& w : windows)
    gen_lag.insert(gen_lag.end(), w.gen_lag_ms.begin(), w.gen_lag_ms.end());

  if (args.trace) {
    SpanLog gen_log(0, /*enabled=*/true);
    SpanLog device_log(1, /*enabled=*/true);
    std::mutex device_mutex;
    eslam::SessionConfig mapping = mapping_config(*setup);
    mapping.backend_factory = [&] {
      return std::make_unique<TimedBackend>(
          eslam::make_feature_backend(mapping_config(*setup).backend),
          device_log, device_mutex);
    };
    const double traced_start = now_ms();
    eslam::SlamService traced_service(eslam::ServiceOptions{kArmWorkers});
    windows.push_back(run_window(traced_service,
                                 open_clients(traced_service, *setup, mapping),
                                 trial_s, gen_log));
    const Window& traced = windows.back();
    scored.push_back(&traced);
    report_windows({&traced}, "traced_", report);
    gen_lag.insert(gen_lag.end(), traced.gen_lag_ms.begin(),
                   traced.gen_lag_ms.end());
    report_layers(traced, gen_log, device_log, report);

    SpanLog kernel_log(2, /*enabled=*/true);
    report_fe_breakdown(probe_frames(setup->desk.frames), eslam::OrbConfig{},
                        kernel_log, report);

    if (!write_chrome_trace(args.trace_out,
                            {&gen_log, &device_log, &kernel_log},
                            traced_start))
      report.check("span_file_written", false, args.trace_out);
  }
  // Every trial, the traced one included, must be correct.
  check_windows(scored, *setup, report);

  double max_lag = 0;
  for (const double lag : gen_lag) max_lag = std::max(max_lag, lag);
  report.number("server.gen_lag_ms", max_lag);
  report.check("generator_on_schedule", max_lag <= kMaxGenLagMs,
               "the open-loop generator noticed every due frame within " +
                   std::to_string(static_cast<int>(kMaxGenLagMs)) + " ms");
  report.number("peak_rss_mb", peak_rss_mb());
}

}  // namespace perfbench
