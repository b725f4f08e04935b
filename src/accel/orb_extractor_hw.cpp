#include "accel/orb_extractor_hw.h"

#include <algorithm>

#include "accel/orientation_hw.h"
#include "features/brief.h"
#include "features/fast.h"
#include "features/harris.h"
#include "features/nms.h"
#include "features/orientation.h"
#include "hw/linebuffer.h"
#include "image/convolve.h"

namespace eslam {

namespace {

// Arrival cycle of pixel (x, y) in the column-streaming order of the
// Image Cache (columns are filled left to right, each column top-down).
std::uint64_t arrival_cycle(int x, int y, int height) {
  return static_cast<std::uint64_t>(x) * height + y;
}

}  // namespace

OrbExtractorHw::OrbExtractorHw(const HwExtractorConfig& config)
    : config_(config),
      pattern_(kDefaultPatternSeed),
      heap_(static_cast<std::size_t>(std::max(config.n_features, 1))) {
  ESLAM_ASSERT(config.n_features > 0, "n_features must be positive");
  ESLAM_ASSERT(config.border >= kPatternRadius + 1,
               "border must cover the descriptor patch");
}

FeatureList OrbExtractorHw::extract(const ImageU8& image) {
  FeatureList features;
  extract_into(image, features);
  return features;
}

void OrbExtractorHw::extract_into(const ImageU8& image, FeatureList& out) {
  std::vector<LevelCycleReport> levels = std::move(report_.levels);
  levels.clear();
  report_ = {};
  report_.levels = std::move(levels);
  AxiBusModel axi(config_.axi);
  heap_.reset();

  pyramid_.rebuild(image, config_.levels, config_.scale,
                   /*use_bilinear=*/false);

  // On-chip buffers: Image Cache + Score Cache + Smoothened Image Cache,
  // all 3-line ping-pong structures (sized for the largest level), plus
  // the heap.
  report_.onchip_bits = 3 * LineBufferCache::storage_bits_for(image.height()) +
                        heap_.storage_bits();

  for (int li = 0; li < pyramid_.levels(); ++li) {
    const ImageU8& img = pyramid_.level(li).image;
    const double level_scale = pyramid_.level(li).scale;
    LevelCycleReport lvl;
    lvl.level = li;
    lvl.width = img.width();
    lvl.height = img.height();
    lvl.fill_cycles =
        static_cast<std::uint64_t>(2 * LineBufferCache::kColumnsPerLine) *
        img.height();
    // BRIEF Computing at column x consumes smoothed pixels up to column
    // x + 15; smoothing itself lags the raw stream by 3 columns.
    lvl.skew_cycles =
        static_cast<std::uint64_t>(kPatternRadius + 3) * img.height();
    lvl.stream_cycles =
        static_cast<std::uint64_t>(img.width()) * img.height();
    lvl.drain_cycles = static_cast<std::uint64_t>(config_.pipeline_drain_cycles);
    report_.original_workflow_cache_bits += img.pixel_count() * 8;

    // Input image streamed from SDRAM (overlapped with compute).
    axi.read_cycles(img.pixel_count());

    if (img.width() <= 2 * config_.border ||
        img.height() <= 2 * config_.border) {
      report_.levels.push_back(lvl);
      continue;
    }

    // ---- functional datapath ---------------------------------------------
    detect_fast_into(img, config_.fast_threshold, config_.border, raw_kps_);
    for (Keypoint& kp : raw_kps_) {
      kp.level = li;
      kp.scale = level_scale;
      kp.score = harris_score_int(img, kp.x, kp.y);
    }
    nms_3x3_into(raw_kps_, img.width(), img.height(), nms_, kps_);
    lvl.detected = static_cast<int>(kps_.size());
    report_.detected += lvl.detected;

    // Hardware streams column-major; order keypoints by arrival cycle.
    std::sort(kps_.begin(), kps_.end(),
              [&](const Keypoint& a, const Keypoint& b) {
                return arrival_cycle(a.x, a.y, img.height()) <
                       arrival_cycle(b.x, b.y, img.height());
              });

    // The heap compares scores only, so it is offered keypoint-only
    // features in both workflows; describe_kept() fills in the survivors.
    if (config_.workflow == HwWorkflow::kRescheduled) {
      // Describe-all-then-filter, fully streaming.  Micro-simulate the
      // BRIEF Computing and Heap units with FIFO back-pressure: every
      // keypoint is charged a describe here.
      std::uint64_t desc_free = 0, heap_free = 0, stall = 0;
      issue_history_.clear();  // descriptor issue times

      for (const Keypoint& kp : kps_) {
        std::uint64_t arrival =
            lvl.fill_cycles + arrival_cycle(kp.x, kp.y, img.height()) + stall;

        // Stream stalls when the keypoint FIFO is full: the k-th keypoint
        // cannot enter until the (k - depth)-th issued.
        const std::size_t k = issue_history_.size();
        if (k >= static_cast<std::size_t>(config_.keypoint_fifo_depth)) {
          const std::uint64_t gate =
              issue_history_[k - static_cast<std::size_t>(
                                     config_.keypoint_fifo_depth)];
          if (gate > arrival) {
            stall += gate - arrival;
            arrival = gate;
          }
        }

        const std::uint64_t desc_start = std::max(arrival, desc_free);
        desc_free = desc_start +
                    static_cast<std::uint64_t>(config_.describe_issue_cycles);
        issue_history_.push_back(desc_free);
        ++report_.described;

        // Heap insertion (the Filtering stage, overlapped with the stream).
        Feature f;
        f.keypoint = kp;
        const std::uint64_t before = heap_.cycles();
        heap_.offer(f);
        const std::uint64_t cost = heap_.cycles() - before;
        heap_free = std::max(heap_free, desc_free) + cost;
      }
      lvl.stall_cycles = stall;
      // If the heap is still draining after the last pixel, extend the
      // level (usually zero: heap rate ~11 cycles vs pixel stream).
      const std::uint64_t level_end =
          lvl.fill_cycles + lvl.stream_cycles + lvl.stall_cycles;
      if (heap_free > level_end) lvl.stall_cycles += heap_free - level_end;
    } else {
      // Original workflow: only detection + filtering stream; descriptors
      // wait until filtering completes (after the last level below).
      for (const Keypoint& kp : kps_) {
        Feature f;
        f.keypoint = kp;
        heap_.offer(f);
      }
    }

    report_.levels.push_back(lvl);
  }

  // ---- filtering result ----------------------------------------------------
  heap_.drain_into(out);
  report_.heap_cycles = heap_.cycles();
  describe_kept(out);

  if (config_.workflow == HwWorkflow::kOriginal) {
    // Descriptors are computed only for the N survivors, after filtering:
    // every patch is a random SDRAM fetch (the smoothened image no longer
    // sits in the stream caches) ...
    report_.describe_serial_cycles =
        static_cast<std::uint64_t>(out.size()) *
        static_cast<std::uint64_t>(config_.random_patch_fetch_cycles +
                                   config_.describe_issue_cycles);
    report_.described = static_cast<int>(out.size());
    // ... and the smoothened image of every level must round-trip through
    // SDRAM.
    for (int li = 0; li < pyramid_.levels(); ++li)
      axi.write_cycles(pyramid_.level(li).image.pixel_count());
  }

  report_.kept = static_cast<int>(out.size());

  // Results to SDRAM: descriptor (32 B) + coords/score/label (8 B) each.
  report_.writeback_cycles =
      axi.write_cycles(static_cast<std::uint64_t>(out.size()) * 40u);

  report_.total_cycles = 0;
  for (const LevelCycleReport& lvl : report_.levels)
    report_.total_cycles += lvl.total();
  report_.total_cycles +=
      report_.describe_serial_cycles + report_.writeback_cycles;
  report_.axi_bytes_read = axi.bytes_read();
  report_.axi_bytes_written = axi.bytes_written();
}

void OrbExtractorHw::describe_kept(FeatureList& kept) {
  smoothed_.resize(static_cast<std::size_t>(pyramid_.levels()));
  for (int li = 0; li < pyramid_.levels(); ++li)
    if (std::any_of(kept.begin(), kept.end(), [li](const Feature& f) {
          return f.keypoint.level == li;
        }))
      smooth_gaussian7_u8_into(pyramid_.level(li).image, smooth_tmp_,
                               smoothed_[static_cast<std::size_t>(li)]);

  for (Feature& f : kept) {
    Keypoint& kp = f.keypoint;
    const ImageU8& smoothed = smoothed_[static_cast<std::size_t>(kp.level)];
    std::int64_t m10, m01;
    patch_moments(smoothed, kp.x, kp.y, m10, m01);
    kp.orientation_label = orientation_label_hw(m10, m01);
    f.descriptor = compute_descriptor(smoothed, kp.x, kp.y, pattern_.base())
                       .rotated_bytes(kp.orientation_label);
  }
}

}  // namespace eslam
