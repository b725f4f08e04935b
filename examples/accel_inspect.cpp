// Accelerator inspection: run the cycle-simulated ORB Extractor and BRIEF
// Matcher on one synthetic frame and print the per-level cycle breakdown,
// AXI traffic, matcher timing and the FPGA resource inventory — the view a
// hardware engineer would want before committing the design to fabric.
//
//   ./examples/accel_inspect
#include <cstdio>

#include "accel/eslam_accel.h"
#include "dataset/sequence.h"
#include "eval/report.h"
#include "hw/resource_model.h"

int main() {
  using namespace eslam;

  SequenceOptions opts;
  opts.frames = 2;
  SyntheticSequence sequence(SequenceId::kFr1Desk, opts);
  const FrameInput frame = sequence.frame(0);

  OrbExtractorHw extractor;
  const FeatureList features = extractor.extract(frame.gray);
  const HwExtractorReport& rep = extractor.report();

  std::printf("ORB Extractor (rescheduled workflow), %dx%d input:\n",
              frame.gray.width(), frame.gray.height());
  Table levels({"level", "size", "fill", "skew", "stream", "stall",
                "drain", "keypoints"});
  for (const LevelCycleReport& l : rep.levels) {
    char size[32];
    std::snprintf(size, sizeof size, "%dx%d", l.width, l.height);
    levels.add_row({std::to_string(l.level), size,
                    std::to_string(l.fill_cycles),
                    std::to_string(l.skew_cycles),
                    std::to_string(l.stream_cycles),
                    std::to_string(l.stall_cycles),
                    std::to_string(l.drain_cycles),
                    std::to_string(l.detected)});
  }
  levels.print();
  std::printf(
      "detected M=%d -> described %d -> kept N=%d; writeback %llu cycles\n",
      rep.detected, rep.described, rep.kept,
      static_cast<unsigned long long>(rep.writeback_cycles));
  std::printf("total %llu cycles = %.2f ms @100 MHz (paper: 9.1 ms)\n",
              static_cast<unsigned long long>(rep.total_cycles), rep.ms());
  std::printf("on-chip buffers: %.1f KB (vs %.1f KB full-frame caches the"
              " original workflow would need)\n",
              rep.onchip_bits / 8192.0,
              rep.original_workflow_cache_bits / 8192.0);
  std::printf("AXI: %.1f KB read, %.1f KB written\n\n",
              rep.axi_bytes_read / 1024.0, rep.axi_bytes_written / 1024.0);

  // Matcher: the extracted features against a 3000-point map.
  BriefMatcherHw matcher;
  matcher.simulate(features.size(), 3000);
  const HwMatcherReport& mrep = matcher.report();
  std::printf("BRIEF Matcher: %d queries x %d map points\n", mrep.queries,
              mrep.map_points);
  std::printf("  compute %llu, load %llu, writeback %llu cycles\n",
              static_cast<unsigned long long>(mrep.compute_cycles),
              static_cast<unsigned long long>(mrep.load_cycles),
              static_cast<unsigned long long>(mrep.writeback_cycles));
  std::printf("  total %.2f ms @100 MHz (paper: 4.0 ms)\n\n", mrep.ms());

  // Resource inventory (Table 1 model).
  const auto inventory = eslam_resource_inventory();
  Table res({"module", "LUT", "FF", "DSP", "BRAM"});
  for (const ModuleResources& m : inventory)
    res.add_row({m.name, std::to_string(m.usage.lut), std::to_string(m.usage.ff),
                 std::to_string(m.usage.dsp), std::to_string(m.usage.bram)});
  const ResourceUsage total = total_resources(inventory);
  res.add_separator();
  res.add_row({"TOTAL (model)", std::to_string(total.lut),
               std::to_string(total.ff), std::to_string(total.dsp),
               std::to_string(total.bram)});
  const ResourceUsage paper = paper_table1_totals();
  res.add_row({"paper Table 1", std::to_string(paper.lut),
               std::to_string(paper.ff), std::to_string(paper.dsp),
               std::to_string(paper.bram)});
  res.print();
  return 0;
}
