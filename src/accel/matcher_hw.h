// Cycle-level model of the BRIEF Matcher (paper Figure 6).
//
// The Distance Computing module holds P parallel 256-bit XOR + popcount
// units: each cycle it compares one query descriptor against P map
// descriptors.  The Comparator keeps the running minimum; results stream
// into the Result Cache and back to SDRAM.  Map descriptors arrive from
// SDRAM over AXI, double-buffered so the load overlaps compute.
//
// This class is the timing half only.  The fabric's functional result
// (each query's minimum-distance map index, ties to the lowest index) is
// exactly what the shared Hamming kernels in features/matcher.h compute,
// so AcceleratedBackend takes its matches from those kernels and asks
// this model for the cycles of the same call.  The cycle count depends
// only on the workload's shape: set sizes and candidate-list lengths.
//
// Two modes share the datapath:
//   * full scan (simulate): every query against every map descriptor — the
//     load streams the whole map once, compute is |q| * ceil(m/P) cycles;
//   * gated (simulate_candidates): the host's projection gate uploads
//     per-query candidate index lists, and the fabric gathers only those
//     descriptors — compute is sum_q max(1, ceil(|cand_q|/P)) cycles and
//     the SDRAM load shrinks to the candidate descriptors plus the index
//     lists themselves, so simulated FPGA time reflects the reduced
//     workload.
// An empty map leaves every cycle count at 0: the fabric is not started.
#pragma once

#include <cstdint>

#include "features/matcher.h"
#include "hw/axi.h"
#include "hw/clock.h"

namespace eslam {

struct HwMatcherConfig {
  int parallelism = 8;        // distance units (P)
  int pipeline_depth = 6;     // XOR + popcount adder tree latency
  AxiConfig axi;
};

struct HwMatcherReport {
  std::uint64_t compute_cycles = 0;
  std::uint64_t load_cycles = 0;       // map descriptors (+ candidate lists)
  std::uint64_t writeback_cycles = 0;  // results to SDRAM
  std::uint64_t total_cycles = 0;      // max(compute, load) + writeback
  int queries = 0;
  int map_points = 0;
  bool gated = false;                  // candidate-gated mode
  std::uint64_t candidates = 0;        // total candidate pairs (gated mode)
  double ms() const { return cycles_to_ms(total_cycles); }
};

class BriefMatcherHw {
 public:
  explicit BriefMatcherHw(const HwMatcherConfig& config = {});

  // Full scan of `queries` descriptors against `map_points` map
  // descriptors; the cycle report is in report().
  void simulate(std::size_t queries, std::size_t map_points);

  // Gated mode: each of the candidates.num_queries() queries scans only its
  // candidate list.
  void simulate_candidates(std::size_t map_points,
                           const CandidateSet& candidates);

  const HwMatcherReport& report() const { return report_; }
  const HwMatcherConfig& config() const { return config_; }

 private:
  HwMatcherConfig config_;
  HwMatcherReport report_;
};

}  // namespace eslam
