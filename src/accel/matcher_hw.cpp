#include "accel/matcher_hw.h"

#include <algorithm>

#include "geometry/assert.h"

namespace eslam {

BriefMatcherHw::BriefMatcherHw(const HwMatcherConfig& config)
    : config_(config) {
  ESLAM_ASSERT(config.parallelism > 0, "parallelism must be positive");
}

void BriefMatcherHw::simulate(std::size_t queries, std::size_t map_points) {
  report_ = {};
  report_.queries = static_cast<int>(queries);
  report_.map_points = static_cast<int>(map_points);
  if (map_points == 0) return;

  // Each query takes ceil(m / P) cycles of distance computing.
  const std::uint64_t m = map_points;
  const std::uint64_t p = static_cast<std::uint64_t>(config_.parallelism);
  const std::uint64_t batches_per_query = (m + p - 1) / p;
  report_.compute_cycles =
      static_cast<std::uint64_t>(queries) * batches_per_query +
      static_cast<std::uint64_t>(config_.pipeline_depth);

  AxiBusModel axi(config_.axi);
  report_.load_cycles = axi.read_cycles(m * 32u);  // 256-bit descriptors
  report_.writeback_cycles =
      axi.write_cycles(static_cast<std::uint64_t>(queries) * 8u);

  // Descriptor load is double-buffered behind compute; writeback follows.
  report_.total_cycles =
      std::max(report_.compute_cycles, report_.load_cycles) +
      report_.writeback_cycles;
}

void BriefMatcherHw::simulate_candidates(std::size_t map_points,
                                         const CandidateSet& candidates) {
  const std::size_t queries = candidates.num_queries();
  report_ = {};
  report_.gated = true;
  report_.queries = static_cast<int>(queries);
  report_.map_points = static_cast<int>(map_points);
  report_.candidates = candidates.total_candidates();
  if (map_points == 0) return;

  // Each query occupies the comparator at least one cycle (issue/drain),
  // then ceil(|candidates| / P) distance batches.
  const std::uint64_t p = static_cast<std::uint64_t>(config_.parallelism);
  std::uint64_t compute = 0;
  for (std::size_t i = 0; i < queries; ++i)
    compute += std::max<std::uint64_t>(
        1, (candidates.candidates(i).size() + p - 1) / p);
  report_.compute_cycles =
      compute + static_cast<std::uint64_t>(config_.pipeline_depth);

  // SDRAM traffic: the gather streams each referenced descriptor once per
  // candidate entry (32 bytes) plus the candidate index lists themselves
  // (4 bytes each) — no cross-query dedup, matching a streaming gather.
  AxiBusModel axi(config_.axi);
  report_.load_cycles =
      axi.read_cycles(report_.candidates * 32u) +
      axi.read_cycles(report_.candidates * 4u);
  report_.writeback_cycles =
      axi.write_cycles(static_cast<std::uint64_t>(queries) * 8u);
  report_.total_cycles =
      std::max(report_.compute_cycles, report_.load_cycles) +
      report_.writeback_cycles;
}

}  // namespace eslam
