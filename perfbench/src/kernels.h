// Kernel probes for the traced runs: the FE breakdown over the features/
// and image/ kernels, and the simulated fabric's FE/FM, timed on a few of
// the workload's own frames.
#pragma once

#include <vector>

#include "common.h"
#include "features/orb.h"

namespace perfbench {

// Six evenly spaced frames of `frames` (first and last included).
std::vector<const FrameInput*> probe_frames(const std::vector<FrameInput>& frames);

// Times OrbExtractor::extract_into and the same extraction composed from
// the public kernels (pyramid, FAST + Harris + NMS, smoothing, orientation,
// RS-BRIEF), checks the composition reproduces the extractor's features,
// and reports features.* / image.pyramid_ms.  `log` must be enabled; its
// span names are reused to aggregate, so it records nothing else.
void report_fe_breakdown(const std::vector<const FrameInput*>& frames,
                         const eslam::OrbConfig& config, SpanLog& log,
                         Report& report);

// Runs the simulated fabric on the frames (extraction, and brute-force
// matching of each frame against the previous one) and reports
// accel.extract_host_ms and the simulated FE/FM cycles per frame.
void report_accel_probe(const std::vector<const FrameInput*>& frames,
                        SpanLog& log, Report& report);

}  // namespace perfbench
