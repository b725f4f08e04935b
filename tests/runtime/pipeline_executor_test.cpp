// Tests for the Figure-7 pipeline runtime, driven the way a single camera
// streams: one TrackerScheduler session on a one-worker pool (the paper's
// two-lane pipeline).  Covers bounded SPSC queues, in-order delivery, the
// keyframe barrier (no authoritative FM of frame N+1 before map updating
// of frame N), end-to-end back-pressure, teardown with frames in flight,
// and bit-for-bit equivalence of streaming vs synchronous execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "accel/backend_factory.h"
#include "core/eslam.h"
#include "dataset/sequence.h"
#include "runtime/spsc_queue.h"
#include "runtime/tracker_scheduler.h"

namespace eslam {
namespace {

// --- SpscRing -------------------------------------------------------------

TEST(SpscRing, BoundedFifo) {
  SpscRing<int> ring(3);
  EXPECT_EQ(ring.capacity(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(ring.try_push(int{i}));
  int rejected = 99;
  EXPECT_FALSE(ring.try_push(std::move(rejected)));  // full: back-pressure
  int out = -1;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);  // FIFO order
  }
  EXPECT_FALSE(ring.try_pop(out));  // empty
  // Wrap-around: indices cycle through the sentinel slot correctly.
  for (int round = 0; round < 5; ++round) {
    EXPECT_TRUE(ring.try_push(10 + round));
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, 10 + round);
  }
}

TEST(SpscRing, TwoThreadStream) {
  SpscRing<int> ring(4);
  constexpr int kCount = 10000;
  std::thread producer([&] {
    for (int i = 0; i < kCount; ++i)
      while (!ring.try_push(int{i})) std::this_thread::yield();
  });
  int expected = 0;
  while (expected < kCount) {
    int v = -1;
    if (ring.try_pop(v)) {
      ASSERT_EQ(v, expected);  // SPSC preserves order, no loss, no dupes
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
}

// --- pipeline fixtures ----------------------------------------------------

// The tracker a System with this platform and tracker options builds.
std::unique_ptr<Tracker> make_tracker(const SyntheticSequence& seq,
                                      Platform platform,
                                      const TrackerOptions& options = {}) {
  BackendConfig backend;
  backend.platform = platform;
  backend.matcher = options.matcher;
  return std::make_unique<Tracker>(seq.camera(), make_feature_backend(backend),
                                   options);
}

// Streams frames [first, last) through one session and drains it.  The
// tests drive the single-camera pipeline: a one-worker TrackerScheduler
// (one device lane, one ARM worker).
std::vector<TrackResult> run_streaming(TrackerScheduler& scheduler,
                                       const SessionRef& session,
                                       const SyntheticSequence& seq,
                                       int first, int last) {
  for (int i = first; i < last; ++i) scheduler.feed(session, seq.frame(i));
  return scheduler.drain(session);
}

// --- equivalence ----------------------------------------------------------

TEST(PipelineExecutor, StreamingMatchesSynchronousBitForBit) {
  SequenceOptions opts;
  opts.frames = 10;
  const SyntheticSequence seq(SequenceId::kFr1Xyz, opts);

  SystemConfig seq_cfg;
  seq_cfg.platform = Platform::kAccelerated;
  System sync(seq.camera(), seq_cfg);
  for (int i = 0; i < opts.frames; ++i) sync.process(seq.frame(i));

  const std::unique_ptr<Tracker> streamed =
      make_tracker(seq, Platform::kAccelerated);
  TrackerScheduler scheduler(SchedulerOptions{/*arm_workers=*/1});
  const SessionRef session = scheduler.add_session(*streamed);
  const std::vector<TrackResult> results =
      run_streaming(scheduler, session, seq, 0, opts.frames);

  ASSERT_EQ(results.size(), sync.results().size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const TrackResult& a = results[i];
    const TrackResult& b = sync.results()[i];
    // Bit-for-bit: the pipeline's replayed matches always equal what the
    // sequential schedule computes, so every derived quantity is exact.
    EXPECT_EQ((a.pose_wc.translation() - b.pose_wc.translation()).max_abs(),
              0.0) << "frame " << i;
    EXPECT_EQ((a.pose_wc.rotation() - b.pose_wc.rotation()).max_abs(), 0.0)
        << "frame " << i;
    EXPECT_EQ(a.keyframe, b.keyframe) << "frame " << i;
    EXPECT_EQ(a.lost, b.lost) << "frame " << i;
    EXPECT_EQ(a.n_features, b.n_features) << "frame " << i;
    EXPECT_EQ(a.n_matches, b.n_matches) << "frame " << i;
    EXPECT_EQ(a.n_inliers, b.n_inliers) << "frame " << i;
  }
  EXPECT_EQ(streamed->map().size(), sync.map().size());
}

// --- in-order delivery & reuse -------------------------------------------

TEST(PipelineExecutor, DeliversResultsInFeedOrderAndSurvivesDrain) {
  SequenceOptions opts;
  opts.frames = 8;
  const SyntheticSequence seq(SequenceId::kFr1Xyz, opts);
  const std::unique_ptr<Tracker> tracker =
      make_tracker(seq, Platform::kSoftware);
  TrackerScheduler scheduler(SchedulerOptions{/*arm_workers=*/1});
  const SessionRef session = scheduler.add_session(*tracker);

  const std::vector<TrackResult> first =
      run_streaming(scheduler, session, seq, 0, 5);
  ASSERT_EQ(first.size(), 5u);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(first[static_cast<std::size_t>(i)].timestamp, seq.timestamp(i));

  // The pipeline stays usable after a drain.
  const std::vector<TrackResult> second =
      run_streaming(scheduler, session, seq, 5, 8);
  ASSERT_EQ(second.size(), 3u);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(second[static_cast<std::size_t>(i)].timestamp,
              seq.timestamp(5 + i));

  const PipelineStats stats = scheduler.stats(session);
  EXPECT_EQ(stats.frames_fed, 8);
  EXPECT_EQ(stats.frames_retired, 8);
  EXPECT_GT(stats.fpga_busy_ms, 0.0);
  EXPECT_GT(stats.arm_busy_ms, 0.0);
}

// --- keyframe barrier -----------------------------------------------------

// Many key frames (and thus many barrier/replay events) in few frames.
TrackerOptions keyframe_dense_options() {
  TrackerOptions opts;
  opts.keyframe.translation_threshold = 0.05;
  opts.keyframe.rotation_threshold = 5.0 * M_PI / 180.0;
  return opts;
}

// Forces the overlap the barrier test needs by construction instead of by
// relative lane speeds: the ARM lane holds frame N between pose estimation
// and pose optimization until the device lane has finished FM of frame
// N+1.  Frame N cannot retire before that FM, so the FM is always
// speculative, and every key frame's map update must replay it.  Runs as
// the session's StagePacer — called after each stage on the lane that ran
// it — and pads nothing.
class OverlapLatch {
 public:
  explicit OverlapLatch(int frames) : frames_(frames) {}

  StagePacer pacer() {
    return [this](PipeStage stage) {
      std::unique_lock<std::mutex> lock(mutex_);
      if (stage == PipeStage::kFeatureExtraction) {
        ++extracted_;
      } else if (stage == PipeStage::kFeatureMatching) {
        // The device lane finishes all FM of a frame before extracting the
        // next one, so FM belongs to the last extracted frame.
        matched_through_ = extracted_ - 1;
        cv_.notify_all();
      } else if (stage == PipeStage::kPoseEstimation) {
        // ARM stages of one session run in frame order.
        const int next = ++estimated_;
        if (next < frames_)
          cv_.wait(lock, [&] { return matched_through_ >= next; });
      }
      return 0.0;
    };
  }

 private:
  const int frames_;
  std::mutex mutex_;
  std::condition_variable cv_;
  int extracted_ = 0;
  int matched_through_ = -1;
  int estimated_ = 0;
};

TEST(PipelineExecutor, KeyframeBarrierOrdersMatchAfterMapUpdate) {
  // Dense enough sampling that the room sweep stays trackable (see the
  // system_test note on kFr1Room) while still crossing the lowered
  // key-frame thresholds several times.
  SequenceOptions opts;
  opts.frames = 36;
  const SyntheticSequence seq(SequenceId::kFr1Room, opts);
  const TrackerOptions tracker_options = keyframe_dense_options();
  Tracker tracker(seq.camera(),
                  std::make_unique<SoftwareBackend>(OrbConfig{},
                                                    tracker_options.matcher),
                  tracker_options);
  // The single-stream pipeline (one device lane, one ARM worker) with the
  // latch as its pacer.
  OverlapLatch latch(opts.frames);
  SchedulerSessionOptions session_options;
  session_options.pacer = latch.pacer();
  TrackerScheduler scheduler(SchedulerOptions{/*arm_workers=*/1});
  const SessionRef session = scheduler.add_session(tracker, session_options);
  for (int i = 0; i < opts.frames; ++i) scheduler.feed(session, seq.frame(i));
  const std::vector<TrackResult> results = scheduler.drain(session);
  ASSERT_EQ(results.size(), static_cast<std::size_t>(opts.frames));

  const std::vector<StageEvent> events = scheduler.stage_events(session);
  auto find_event = [&](int frame, PipeStage stage) -> const StageEvent* {
    // The authoritative run is the last non-speculative event of a stage.
    const StageEvent* found = nullptr;
    for (const StageEvent& e : events)
      if (e.frame == frame && e.stage == stage && !e.speculative) found = &e;
    return found;
  };

  int keyframes_with_successor = 0;
  int late_keyframes = 0;  // key frames whose ARM work could overlap FM
  for (int n = 0; n + 1 < opts.frames; ++n) {
    if (!results[static_cast<std::size_t>(n)].keyframe) continue;
    ++keyframes_with_successor;
    if (n > 0) ++late_keyframes;
    const StageEvent* mu = find_event(n, PipeStage::kMapUpdating);
    const StageEvent* fm = find_event(n + 1, PipeStage::kFeatureMatching);
    ASSERT_NE(mu, nullptr) << "frame " << n;
    ASSERT_NE(fm, nullptr) << "frame " << n + 1;
    // The paper's dependency: FM of N+1 sees the map only after MU of N.
    EXPECT_GE(fm->start_ms, mu->end_ms)
        << "FM of frame " << n + 1 << " overlapped MU of key frame " << n;
  }
  ASSERT_GE(keyframes_with_successor, 1);  // bootstrap at minimum
  ASSERT_GE(late_keyframes, 1);  // the replay path is actually exercised

  // The latch makes the FPGA lane always run ahead: every frame's match
  // is speculated, and every late key frame's successor must have been
  // replayed behind the map update.
  const PipelineStats stats = scheduler.stats(session);
  EXPECT_GT(stats.speculative_matches, 0);
  EXPECT_GE(stats.replayed_matches, late_keyframes);
  EXPECT_LE(stats.replayed_matches, stats.speculative_matches);
  EXPECT_GE(stats.max_in_flight, 2);  // frames genuinely overlapped
}

// --- back-pressure --------------------------------------------------------

// Holds every lane in its first paced stage until opened, so feeds meet
// full queues however fast the host runs the stages.
class LaneGate {
 public:
  StagePacer pacer() {
    return [this](PipeStage) {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return open_; });
      return 0.0;
    };
  }
  void open() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(PipelineExecutor, BoundedQueuesRejectFeedsUnderBackPressure) {
  SequenceOptions opts;
  opts.frames = 12;
  const SyntheticSequence seq(SequenceId::kFr1Xyz, opts);
  OrbConfig orb;
  orb.n_features = 400;
  const TrackerOptions tracker_options;
  Tracker tracker(seq.camera(),
                  std::make_unique<SoftwareBackend>(orb,
                                                    tracker_options.matcher),
                  tracker_options);
  LaneGate gate;
  SchedulerSessionOptions session_options;
  session_options.queue_capacity = 1;
  session_options.pacer = gate.pacer();
  TrackerScheduler scheduler(SchedulerOptions{/*arm_workers=*/1});
  const SessionRef session = scheduler.add_session(tracker, session_options);

  // Feed without polling while the gate holds the lanes: the stages and
  // 1-deep queues can hold only a few frames, so re-feeds must bounce.
  int accepted = 0;
  std::vector<int> accepted_frames;
  bool saw_rejection = false;
  for (int i = 0; i < opts.frames; ++i) {
    if (scheduler.try_feed(session, seq.frame(i))) {
      ++accepted;
      accepted_frames.push_back(i);
    } else {
      saw_rejection = true;
    }
  }
  gate.open();
  EXPECT_TRUE(saw_rejection);
  EXPECT_LT(accepted, opts.frames);

  const std::vector<TrackResult> results = scheduler.drain(session);
  ASSERT_EQ(results.size(), static_cast<std::size_t>(accepted));
  // Accepted frames still come out in feed order.
  for (std::size_t i = 0; i < results.size(); ++i)
    EXPECT_EQ(results[i].timestamp,
              seq.timestamp(accepted_frames[i]));

  const PipelineStats stats = scheduler.stats(session);
  EXPECT_GT(stats.rejected_feeds, 0);
  EXPECT_EQ(stats.frames_fed, accepted);
  EXPECT_EQ(stats.frames_retired, accepted);
  // In-flight depth is bounded by the queues plus one frame per lane.
  EXPECT_LE(stats.max_in_flight, 2 * session_options.queue_capacity + 2);
}

// --- teardown -------------------------------------------------------------

TEST(PipelineExecutor, TeardownWithFramesInFlightNeverHangs) {
  // Destroying the scheduler without drain() abandons in-flight frames; it
  // must still return promptly — including while the local-mapping backend
  // has BA jobs queued or running on the pool — and leave the tracker
  // safe to destroy afterwards.
  SequenceOptions opts;
  opts.frames = 8;
  const SyntheticSequence seq(SequenceId::kFr1Xyz, opts);
  TrackerOptions tracker_options;
  tracker_options.backend.enabled = true;
  std::unique_ptr<Tracker> tracker =
      make_tracker(seq, Platform::kSoftware, tracker_options);
  // Every stage occupies its lane for 20 ms, so frames are still queued
  // and mid-pipeline when the feeds return.
  SchedulerSessionOptions session_options;
  session_options.pacer = [](PipeStage) { return 20.0; };

  auto scheduler = std::make_unique<TrackerScheduler>(
      SchedulerOptions{/*arm_workers=*/1});
  const SessionRef session = scheduler->add_session(*tracker, session_options);
  for (int i = 0; i < opts.frames; ++i) scheduler->feed(session, seq.frame(i));
  EXPECT_GT(scheduler->in_flight(session), 0);

  const auto t0 = std::chrono::steady_clock::now();
  scheduler.reset();
  const double teardown_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
  // The lanes stop at their next stage boundary; a generous bound that
  // still fails loudly (instead of timing out the suite) on a hang.
  EXPECT_LT(teardown_s, 30.0);
  tracker.reset();
}

}  // namespace
}  // namespace eslam
