// Shared plumbing for the repo benchmark's two workloads: the clock, CPU
// rotation, the benchmark's own span log, input rendering from the
// workload seed, and the result file the Python front end (perfbench/run.py)
// turns into the printed metrics.
#pragma once

#include <sched.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "dataset/sequence.h"
#include "slam/tracker.h"

namespace perfbench {

using eslam::FrameInput;

// Monotonic milliseconds since an arbitrary epoch.
double now_ms();

// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

// Pins the calling thread to one CPU of the process's affinity set, chosen
// round-robin by `turn`, for as long as the object lives; the thread's
// previous affinity is restored on destruction.  On a shared virtual
// machine the vCPUs are slowed independently by neighbours for seconds at
// a time, so work rotated across them samples all of them.
class CpuTurn {
 public:
  explicit CpuTurn(int turn);
  ~CpuTurn();
  CpuTurn(const CpuTurn&) = delete;
  CpuTurn& operator=(const CpuTurn&) = delete;

 private:
  bool pinned_ = false;
  cpu_set_t previous_{};
};

// The benchmark's own spans, recorded around each call it makes into a
// layer.  Kept in a preallocated vector and written once at the end, so
// recording is a bounds check and a store.  One SpanLog per recording
// thread; write_chrome_trace() merges several logs into one file.
class SpanLog {
 public:
  struct Span {
    const char* layer = "";
    const char* name = "";
    std::int64_t id = -1;      // frame index; spans of one frame share it
    const char* parent = "";   // name of the enclosing span, if any
    double start_ms = 0;
    double dur_ms = 0;
  };

  SpanLog(int tid, bool enabled, std::size_t capacity = 1 << 16);

  bool enabled() const { return enabled_; }
  int tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }
  std::size_t dropped() const { return dropped_; }

  void record(const char* layer, const char* name, std::int64_t id,
              const char* parent, double start_ms, double end_ms);

  // Runs f() inside a span when enabled, plainly otherwise.
  template <class F>
  decltype(auto) scope(const char* layer, const char* name, std::int64_t id,
                       const char* parent, F&& f) {
    if (!enabled_) return f();
    struct Guard {
      SpanLog* log;
      const char* layer;
      const char* name;
      std::int64_t id;
      const char* parent;
      double start = now_ms();
      ~Guard() { log->record(layer, name, id, parent, start, now_ms()); }
    } guard{this, layer, name, id, parent};
    return f();
  }

  // Mean and total duration (ms) of the spans named `name`.
  double mean_ms(const char* name) const;
  double total_ms(const char* name) const;

 private:
  int tid_;
  bool enabled_;
  std::size_t capacity_;
  std::size_t dropped_ = 0;
  std::vector<Span> spans_;
};

// Chrome trace-event JSON (open in https://ui.perfetto.dev or
// chrome://tracing).  Timestamps are relative to `origin_ms`.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs,
                        double origin_ms);

// Frames of one synthetic stream, rendered on `threads` threads.  The
// texture seed is derived from (workload seed, stream tag), so the program
// only ever sees rendered pixels and the seed alone fixes them.
struct Stream {
  eslam::PinholeCamera camera = eslam::PinholeCamera::tum_freiburg1();
  std::vector<FrameInput> frames;
  std::vector<eslam::SE3> ground_truth;
};
Stream render_stream(eslam::SequenceId id, std::uint32_t workload_seed,
                     std::uint32_t stream_tag, int frames, int threads);

// FNV-1a 64 over every pixel and timestamp of the frames.
std::uint64_t digest_frames(const std::vector<FrameInput>& frames);

// Simulated fabric milliseconds -> cycles of the 100 MHz accelerator clock.
double to_cycles(double sim_ms);

// Bitwise equality of the fields a trajectory consumer reads.
bool same_result(const eslam::TrackResult& a, const eslam::TrackResult& b);

// Result file: flat JSON with numbers, number arrays, and named checks.
class Report {
 public:
  void number(const std::string& key, double value);
  void samples(const std::string& key, const std::vector<double>& values);
  void check(const std::string& name, bool ok, const std::string& detail);
  bool write(const std::string& path) const;

 private:
  std::map<std::string, double> numbers_;
  std::map<std::string, std::vector<double>> samples_;
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Check> checks_;
};

// Workload arguments as passed through from run.py.
struct Args {
  std::string workload;
  std::uint32_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;         // result JSON path
  std::string trace_out;   // span file path (trace runs)
};

void run_desk_seq(const Args& args, Report& report);
void run_served_mix(const Args& args, Report& report);
// Digest of every frame the workload renders at this seed.
std::uint64_t desk_seq_input_digest(std::uint32_t seed);
std::uint64_t served_mix_input_digest(std::uint32_t seed);

}  // namespace perfbench
