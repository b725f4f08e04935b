// The accelerated feature backend: plugs the cycle-simulated ORB Extractor
// and BRIEF Matcher into the tracker, so the same SLAM frontend runs in
// "eSLAM mode".  Reported stage times are simulated FPGA milliseconds
// (cycles / 100 MHz), not wall clock.
//
// Matching follows the paper's Fig-7 split: the fabric returns each
// query's raw minimum-distance match and the ARM host applies the
// acceptance gates (MatcherOptions: distance, ratio, cross-check).  Both
// halves are the shared kernels of features/matcher.h run with `accept` —
// the same code, tie rule and acceptance semantics as SoftwareBackend —
// while BriefMatcherHw prices the call from its sizes and candidate
// lists.  Host acceptance is negligible next to PnP and is not timed.
//
// Concurrency: the _into operations must be driven from one thread (the
// pipeline runtime's FPGA lane), but last_*_time_ms() may be read from any
// thread — the simulated durations are published into atomic caches when
// each operation completes, so readers never touch the cycle reports of an
// operation still in flight.  The full extractor()/matcher() reports are
// only safe to inspect while the backend is idle.
#pragma once

#include <atomic>

#include "accel/matcher_hw.h"
#include "accel/orb_extractor_hw.h"
#include "slam/tracker.h"

namespace eslam {

class AcceleratedBackend final : public FeatureBackend {
 public:
  explicit AcceleratedBackend(const HwExtractorConfig& extractor = {},
                              const HwMatcherConfig& matcher = {},
                              const MatcherOptions& accept = {});

  void extract_into(const ImageU8& image, FeatureList& out) override;
  void match_into(std::span<const Feature> queries, const TrainView& train,
                  Arena* scratch, std::vector<Match>& out) override;
  // Gated tier: the fabric's candidate mode (BriefMatcherHw gated cycle
  // model), with the same host-side acceptance gates as match_into().
  void match_candidates_into(std::span<const Feature> queries,
                             const TrainView& train,
                             const CandidateSet& candidates, Arena* scratch,
                             std::vector<Match>& out) override;

  double last_extract_time_ms() const override { return extract_ms_.load(); }
  double last_match_time_ms() const override { return match_ms_.load(); }
  const char* name() const override { return "eslam-accel"; }

  const OrbExtractorHw& extractor() const { return extractor_; }
  const BriefMatcherHw& matcher() const { return matcher_; }

 private:
  OrbExtractorHw extractor_;
  BriefMatcherHw matcher_;
  MatcherOptions accept_;
  std::atomic<double> extract_ms_{0.0};
  std::atomic<double> match_ms_{0.0};
};

}  // namespace eslam
