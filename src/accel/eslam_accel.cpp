#include "accel/eslam_accel.h"

namespace eslam {

AcceleratedBackend::AcceleratedBackend(const HwExtractorConfig& extractor,
                                       const HwMatcherConfig& matcher,
                                       const MatcherOptions& accept)
    : extractor_(extractor), matcher_(matcher), accept_(accept) {}

void AcceleratedBackend::extract_into(const ImageU8& image, FeatureList& out) {
  extractor_.extract_into(image, out);
  extract_ms_.store(extractor_.report().ms());
}

void AcceleratedBackend::match_into(std::span<const Feature> queries,
                                    const TrainView& train, Arena* scratch,
                                    std::vector<Match>& out) {
  match_descriptors_into(queries, train, accept_, scratch, out);
  matcher_.simulate(queries.size(), train.size());
  match_ms_.store(matcher_.report().ms());
}

void AcceleratedBackend::match_candidates_into(
    std::span<const Feature> queries, const TrainView& train,
    const CandidateSet& candidates, Arena* scratch, std::vector<Match>& out) {
  eslam::match_candidates_into(queries, train, candidates, accept_, scratch,
                               out);
  matcher_.simulate_candidates(train.size(), candidates);
  match_ms_.store(matcher_.report().ms());
}

}  // namespace eslam
