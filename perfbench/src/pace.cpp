#include "pace.h"

#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common.h"

namespace perfbench {

namespace {

constexpr int kW = 192;
constexpr int kH = 144;
constexpr int kDescriptors = 160;

struct Fixture {
  std::vector<std::uint8_t> image;
  std::vector<std::array<std::uint64_t, 4>> descriptors;
  Fixture() : image(static_cast<std::size_t>(kW) * kH), descriptors(kDescriptors) {
    std::uint64_t s = 0x9e3779b97f4a7c15ull;  // xorshift64: fixed forever
    const auto next = [&s] {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      return s;
    };
    for (std::uint8_t& p : image) p = static_cast<std::uint8_t>(next() >> 56);
    for (auto& d : descriptors)
      for (std::uint64_t& w : d) w = next();
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

std::uint64_t kernel(const Fixture& f, std::vector<std::uint8_t>& blur) {
  std::uint64_t sum = 0;
  for (int y = 1; y + 1 < kH; ++y)
    for (int x = 1; x + 1 < kW; ++x) {
      int acc = 0;
      for (int dy = -1; dy <= 1; ++dy)
        for (int dx = -1; dx <= 1; ++dx)
          acc += f.image[static_cast<std::size_t>((y + dy) * kW + x + dx)];
      blur[static_cast<std::size_t>(y * kW + x)] = static_cast<std::uint8_t>(acc / 9);
    }
  static constexpr int kRing[16][2] = {{0, -3}, {1, -3}, {2, -2}, {3, -1},
                                       {3, 0},  {3, 1},  {2, 2},  {1, 3},
                                       {0, 3},  {-1, 3}, {-2, 2}, {-3, 1},
                                       {-3, 0}, {-3, -1}, {-2, -2}, {-1, -3}};
  for (int y = 3; y + 3 < kH; ++y)
    for (int x = 3; x + 3 < kW; ++x) {
      const int c = blur[static_cast<std::size_t>(y * kW + x)];
      int brighter = 0, darker = 0;
      for (const auto& o : kRing) {
        const int p = blur[static_cast<std::size_t>((y + o[1]) * kW + x + o[0])];
        brighter += p > c + 4;
        darker += p < c - 4;
      }
      sum += static_cast<std::uint64_t>(brighter >= 9 || darker >= 9);
    }
  for (const auto& a : f.descriptors) {
    int best = 257;
    for (const auto& b : f.descriptors) {
      int d = 0;
      for (int w = 0; w < 4; ++w) d += std::popcount(a[w] ^ b[w]);
      if (d > 0 && d < best) best = d;
    }
    sum += static_cast<std::uint64_t>(best);
  }
  return sum;
}

double thread_cpu_ms() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e3 +
         static_cast<double>(t.tv_nsec) / 1e6;
}

}  // namespace

double reference_ms() {
  const Fixture& f = fixture();
  thread_local std::vector<std::uint8_t> blur(f.image.size());
  static std::atomic<std::uint64_t> sink{0};
  const double start = thread_cpu_ms();
  sink.fetch_add(kernel(f, blur), std::memory_order_relaxed);
  return thread_cpu_ms() - start;
}

double reference_median_ms(int runs) {
  std::vector<double> ms;
  for (int i = 0; i < runs; ++i) ms.push_back(reference_ms());
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

void PaceLog::sample() {
  const double at = now_ms();
  samples_.emplace_back(at, reference_ms());
}

double PaceLog::around(double from_ms, double to_ms) const {
  double sum = 0, n = 0;
  for (const auto& [at, ms] : samples_)
    if (at >= from_ms && at <= to_ms) {
      sum += ms;
      n += 1;
    }
  if (n > 0) return sum / n;
  const double middle = (from_ms + to_ms) / 2;
  double nearest = kNominalPaceMs;
  double best = std::numeric_limits<double>::infinity();
  for (const auto& [at, ms] : samples_)
    if (std::abs(at - middle) < best) {
      best = std::abs(at - middle);
      nearest = ms;
    }
  return nearest;
}

}  // namespace perfbench
