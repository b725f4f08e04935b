// Host pace.  The benchmark runs on shared virtual machines whose speed
// swings by up to 2x over seconds to minutes as neighbours come and go; a
// thread's CPU time slows with its wall time, so this is not steal time.
// The benchmark therefore times a fixed reference kernel of its own next to
// the program's work and reports each time "paced": rescaled to the speed
// at which the reference kernel takes kNominalPaceMs.  The reference is the
// benchmark's code, never the program's, so a change to the program moves
// only the paced time of the program's work.
#pragma once

#include <utility>
#include <vector>

namespace perfbench {

// The reference kernel's median CPU time (ms) on the 4-vCPU Xeon host the
// benchmark was tuned on.  It only fixes the scale of paced times.
constexpr double kNominalPaceMs = 0.75;

// Runs the reference kernel once and returns the CPU time it took on the
// calling thread, in ms (CPU time, so preemption by the program's own
// threads is not counted).  The kernel mimics feature extraction on a
// small fixed image (box blur, a FAST-style ring test, brute-force Hamming
// matching).
double reference_ms();

// Median of `runs` reference timings taken back to back.  A set-up is
// paced by the mean of one such median before it and one after it.
double reference_median_ms(int runs);
constexpr int kPaceRuns = 5;

// `ms` of work done while the reference kernel took `pace_ms`, rescaled to
// the nominal pace.
inline double paced(double ms, double pace_ms) {
  return ms * kNominalPaceMs / pace_ms;
}

// Reference timings sampled through a run, with their wall time.
class PaceLog {
 public:
  // Times the reference kernel now and keeps the sample.
  void sample();
  // Mean reference time of the samples taken within [from_ms, to_ms]; the
  // sample nearest the middle of the interval when none was.
  double around(double from_ms, double to_ms) const;

 private:
  std::vector<std::pair<double, double>> samples_;  // (taken at, ms)
};

}  // namespace perfbench
