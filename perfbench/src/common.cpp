#include "common.h"

#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstring>
#include <thread>

#include "dataset/texture.h"
#include "hw/clock.h"

namespace perfbench {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuTurn::CpuTurn(int turn) {
  if (sched_getaffinity(0, sizeof previous_, &previous_) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &previous_)) cpus.push_back(c);
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<std::size_t>(turn) % cpus.size()], &one);
  pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
}

CpuTurn::~CpuTurn() {
  if (pinned_) sched_setaffinity(0, sizeof previous_, &previous_);
}

// ---- spans ------------------------------------------------------------------

SpanLog::SpanLog(int tid, bool enabled, std::size_t capacity)
    : tid_(tid), enabled_(enabled), capacity_(capacity) {
  if (enabled_) spans_.reserve(capacity_);
}

void SpanLog::record(const char* layer, const char* name, std::int64_t id,
                     const char* parent, double start_ms, double end_ms) {
  if (spans_.size() == capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back({layer, name, id, parent, start_ms, end_ms - start_ms});
}

double SpanLog::mean_ms(const char* name) const {
  double sum = 0;
  std::size_t n = 0;
  for (const Span& s : spans_)
    if (std::strcmp(s.name, name) == 0) {
      sum += s.dur_ms;
      ++n;
    }
  return n ? sum / static_cast<double>(n) : 0.0;
}

double SpanLog::total_ms(const char* name) const {
  double sum = 0;
  for (const Span& s : spans_)
    if (std::strcmp(s.name, name) == 0) sum += s.dur_ms;
  return sum;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs,
                        double origin_ms) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"args\":{\"name\":\"perfbench\"}}");
  std::size_t dropped = 0;
  for (const SpanLog* log : logs) {
    dropped += log->dropped();
    std::fprintf(f,
                 ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%d,\"args\":{\"name\":\"bench-thread-%d\"}}",
                 log->tid(), log->tid());
    for (const SpanLog::Span& s : log->spans())
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"frame\":"
                   "%" PRId64 ",\"parent\":\"%s\"}}",
                   s.name, s.layer, log->tid(),
                   (s.start_ms - origin_ms) * 1000.0, s.dur_ms * 1000.0, s.id,
                   s.parent);
  }
  std::fprintf(f, "\n],\"otherData\":{\"dropped_spans\":%zu}}\n", dropped);
  return std::fclose(f) == 0;
}

// ---- inputs -----------------------------------------------------------------

Stream render_stream(eslam::SequenceId id, std::uint32_t workload_seed,
                     std::uint32_t stream_tag, int frames, int threads) {
  eslam::SequenceOptions options;
  options.frames = frames;
  options.room.texture_seed = eslam::hash_combine(workload_seed, stream_tag);
  const eslam::SyntheticSequence sequence(id, options);

  Stream stream;
  stream.camera = sequence.camera();
  stream.ground_truth = sequence.ground_truth();
  stream.frames.resize(static_cast<std::size_t>(frames));
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t)
    workers.emplace_back([&, t] {
      for (int i = t; i < frames; i += threads)
        stream.frames[static_cast<std::size_t>(i)] = sequence.frame(i);
    });
  for (std::thread& w : workers) w.join();
  return stream;
}

std::uint64_t digest_frames(const std::vector<FrameInput>& frames) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  for (const FrameInput& f : frames) {
    for (int y = 0; y < f.gray.height(); ++y)
      mix(f.gray.row(y), static_cast<std::size_t>(f.gray.width()));
    for (int y = 0; y < f.depth.height(); ++y)
      mix(f.depth.row(y),
          static_cast<std::size_t>(f.depth.width()) * sizeof(std::uint16_t));
    mix(&f.timestamp, sizeof f.timestamp);
  }
  return h;
}

double to_cycles(double sim_ms) {
  return sim_ms * eslam::kAcceleratorClockMhz * 1e3;
}

bool same_result(const eslam::TrackResult& a, const eslam::TrackResult& b) {
  return (a.pose_wc.translation() - b.pose_wc.translation()).max_abs() == 0.0 &&
         (a.pose_wc.rotation() - b.pose_wc.rotation()).max_abs() == 0.0 &&
         a.lost == b.lost && a.keyframe == b.keyframe &&
         a.n_features == b.n_features && a.n_matches == b.n_matches &&
         a.n_inliers == b.n_inliers && a.match_tier == b.match_tier;
}

// ---- report -----------------------------------------------------------------

void Report::number(const std::string& key, double value) {
  numbers_[key] = value;
}

void Report::samples(const std::string& key, const std::vector<double>& v) {
  samples_[key] = v;
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

bool Report::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"numbers\":{");
  const char* sep = "";
  for (const auto& [k, v] : numbers_) {
    std::fprintf(f, "%s%s:%s", sep, json_string(k).c_str(),
                 json_number(v).c_str());
    sep = ",";
  }
  std::fprintf(f, "},\"samples\":{");
  sep = "";
  for (const auto& [k, values] : samples_) {
    std::fprintf(f, "%s%s:[", sep, json_string(k).c_str());
    const char* inner = "";
    for (const double v : values) {
      std::fprintf(f, "%s%s", inner, json_number(v).c_str());
      inner = ",";
    }
    std::fprintf(f, "]");
    sep = ",";
  }
  std::fprintf(f, "},\"checks\":[");
  sep = "";
  for (const Check& c : checks_) {
    std::fprintf(f, "%s{\"name\":%s,\"ok\":%s,\"detail\":%s}", sep,
                 json_string(c.name).c_str(), c.ok ? "true" : "false",
                 json_string(c.detail).c_str());
    sep = ",";
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
