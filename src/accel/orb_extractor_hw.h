// Cycle-level model of the eSLAM ORB Extractor (paper Figure 4).
//
// Functional behaviour is bit-faithful to the integer datapath: FAST and
// Harris reuse the integer reference implementations, smoothing is the
// binomial 7x7, orientation uses the LUT compare ladder
// (orientation_label_hw) and descriptors are RS-BRIEF computed at label 0
// and steered by the BRIEF Rotator byte shift.  The 1024-feature Harris
// heap performs the filtering.
//
// Timing and function are computed apart.  The heap compares Harris scores
// only, so which features it keeps does not depend on their descriptors:
// the emulation offers it keypoints, and orients and describes just the
// kept N after the heap drains, from the smoothed images of the levels that
// hold a survivor.  The cycle model still charges the describe work of the
// workflow it models.
//
// extract_into() is the one implementation.  The pyramid, keypoint, NMS,
// smoothing and heap buffers are members recycled across frames, and the
// kept features drain into the caller's recycled list, so a steady-state
// frame makes no heap allocation.  extract() is a returning wrapper.
//
// Timing follows the streaming contract of section 3.1: pixels enter at 1
// pixel/cycle from the ping-pong Image Cache; per-keypoint work (BRIEF
// Computing, heap insertion) runs in parallel units fed by small FIFOs, so
// the stream stalls only when keypoints arrive faster than the units
// drain.  Both the *rescheduled* workflow (detect -> describe -> filter,
// all streaming) and the *original* workflow (detect -> filter -> describe
// with random SDRAM patch fetches) are modelled; the difference is the
// paper's rescheduling ablation.
#pragma once

#include <vector>

#include "accel/heap_hw.h"
#include "features/keypoint.h"
#include "features/nms.h"
#include "features/pattern.h"
#include "hw/axi.h"
#include "hw/clock.h"
#include "image/pyramid.h"

namespace eslam {

enum class HwWorkflow {
  kRescheduled,  // paper's streaming order: describe all M, filter last
  kOriginal,     // detect + filter first, then describe the kept N
};

struct HwExtractorConfig {
  int n_features = 1024;
  int fast_threshold = 20;
  int levels = kPyramidLevels;
  double scale = kPyramidScale;
  HwWorkflow workflow = HwWorkflow::kRescheduled;
  // Keep-out border (FAST circle + Harris window + descriptor patch).
  int border = 16;

  // --- timing contract (cycles) ------------------------------------------
  int describe_issue_cycles = 8;   // 256 tests / 32 comparator lanes
  int keypoint_fifo_depth = 64;    // NMS -> BRIEF Computing FIFO
  int heap_fifo_depth = 16;        // BRIEF -> Heap FIFO
  int pipeline_drain_cycles = 48;  // window/pipeline flush at end of level
  // Original workflow: one descriptor patch = 31 column bursts from SDRAM
  // (address latency 8 + 4 beats each) = 372 cycles, plus compute issue.
  int random_patch_fetch_cycles = 372;

  AxiConfig axi;
};

struct LevelCycleReport {
  int level = 0;
  int width = 0, height = 0;
  std::uint64_t fill_cycles = 0;    // 16-column FSM pre-store
  std::uint64_t skew_cycles = 0;    // descriptor window lag: BRIEF at column
                                    // x needs smoothed column x+18
  std::uint64_t stream_cycles = 0;  // W*H at 1 pixel/cycle
  std::uint64_t stall_cycles = 0;   // back-pressure from keypoint bursts
  std::uint64_t drain_cycles = 0;
  int detected = 0;  // keypoints surviving NMS on this level
  std::uint64_t total() const {
    return fill_cycles + skew_cycles + stream_cycles + stall_cycles +
           drain_cycles;
  }
};

struct HwExtractorReport {
  std::vector<LevelCycleReport> levels;
  std::uint64_t describe_serial_cycles = 0;  // original workflow only
  std::uint64_t writeback_cycles = 0;        // results to SDRAM
  std::uint64_t heap_cycles = 0;             // informational (overlapped)
  std::uint64_t total_cycles = 0;
  int detected = 0;   // M across all levels
  int described = 0;  // descriptors the modelled fabric computes: every
                      // detected keypoint when rescheduled, the kept N in
                      // the original workflow (the emulation itself only
                      // computes the kept N's)
  int kept = 0;       // N after the heap
  // On-chip buffer bits actually used (3-line caches x3 + heap).
  std::size_t onchip_bits = 0;
  // Bits a full-frame smoothed cache would need (what the original
  // workflow must buffer to avoid SDRAM round trips).
  std::size_t original_workflow_cache_bits = 0;
  // AXI traffic (overlapped with compute; reported for utilization).
  std::uint64_t axi_bytes_read = 0;
  std::uint64_t axi_bytes_written = 0;

  double ms() const { return cycles_to_ms(total_cycles); }
};

class OrbExtractorHw {
 public:
  explicit OrbExtractorHw(const HwExtractorConfig& config = {});

  // Extracts features into `out`; the cycle report for this frame is in
  // report().  Not reentrant (the scratch is per-extractor state).
  void extract_into(const ImageU8& image, FeatureList& out);
  FeatureList extract(const ImageU8& image);

  const HwExtractorReport& report() const { return report_; }
  const HwExtractorConfig& config() const { return config_; }
  const RsBriefPattern& pattern() const { return pattern_; }

 private:
  // Orientation label and rotated RS-BRIEF descriptor of each heap
  // survivor, from the smoothed image of its level.
  void describe_kept(FeatureList& kept);

  HwExtractorConfig config_;
  RsBriefPattern pattern_;
  HwExtractorReport report_;
  // Per-frame scratch, reused across extract_into() calls.
  FilterHeap heap_;  // reset at the start of each frame
  ImagePyramid pyramid_;
  std::vector<Keypoint> raw_kps_;
  std::vector<Keypoint> kps_;  // NMS survivors of the current level
  NmsScratch nms_;
  std::vector<std::uint64_t> issue_history_;  // describe issue times
  Image<std::uint16_t> smooth_tmp_;
  std::vector<ImageU8> smoothed_;  // indexed by level; stale when unused
};

}  // namespace eslam
