// Microbenchmarks for the pipeline's hot kernels, emitting
// BENCH_micro_kernels.json (uploaded by CI's bench-smoke job) so the
// scalar-vs-SIMD kernel trajectory is tracked per run:
//
//   * one-query-vs-block Hamming popcount over the SoA word planes
//     (features/simd_kernels), scalar vs runtime-dispatched, at map sizes
//     1k / 4k / 16k;
//   * candidate-list Hamming gather at gate-realistic list lengths;
//   * batched map-point projection, scalar vs dispatched;
//   * end-to-end brute-force matching, AoS reference vs SoA _into tier;
//   * VGA FAST detection, dispatched detect_fast_into vs an is_fast_corner
//     scan, and 7x7 smoothing, smooth_gaussian7_u8_into vs the generic
//     separable convolution;
//   * Harris scoring of every FAST corner of a VGA frame, dispatched
//     harris_score_int vs a pixel-by-pixel loop of the same formula, and
//     3x3 NMS over those scored corners, nms_3x3_into vs a bounds-checked
//     neighbour scan.
//
// Every timed comparison first asserts bit-exactness between the reference
// and dispatched kernels on the same inputs — a dispatch regression fails
// the bench before it pollutes the numbers.
#include <cstdio>
#include <cstdlib>
#include <random>
#include <vector>

#include "bench_util.h"
#include "core/arena.h"
#include "core/simd_dispatch.h"
#include "features/descriptor_soa.h"
#include "features/fast.h"
#include "features/harris.h"
#include "features/matcher.h"
#include "features/nms.h"
#include "features/simd_kernels.h"
#include "geometry/camera.h"
#include "geometry/wall_timer.h"
#include "image/convolve.h"

namespace {

using namespace eslam;
using bench::BenchJson;

ImageU8 test_image(int w, int h) {
  ImageU8 img(w, h);
  std::mt19937 rng(7);
  for (auto& p : img.data())
    p = static_cast<std::uint8_t>(40 + rng() % 176);
  return img;
}

Descriptor256 random_descriptor(std::mt19937_64& rng) {
  Descriptor256 d;
  for (auto& w : d.words()) w = rng();
  return d;
}

void require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FATAL: kernel parity violated: %s\n", what);
    std::exit(1);
  }
}

// The integer Harris response read pixel by pixel through Image::at().
std::int64_t harris_reference(const ImageU8& img, int x, int y) {
  std::int32_t sxx = 0, syy = 0, sxy = 0;
  for (int py = y - 3; py <= y + 3; ++py)
    for (int px = x - 3; px <= x + 3; ++px) {
      const int gx = ((img.at(px + 1, py - 1) + 2 * img.at(px + 1, py) +
                       img.at(px + 1, py + 1)) -
                      (img.at(px - 1, py - 1) + 2 * img.at(px - 1, py) +
                       img.at(px - 1, py + 1))) >>
                     3;
      const int gy = ((img.at(px - 1, py + 1) + 2 * img.at(px, py + 1) +
                       img.at(px + 1, py + 1)) -
                      (img.at(px - 1, py - 1) + 2 * img.at(px, py - 1) +
                       img.at(px + 1, py - 1))) >>
                     3;
      sxx += gx * gx;
      syy += gy * gy;
      sxy += gx * gy;
    }
  const std::int64_t det = std::int64_t{sxx} * syy - std::int64_t{sxy} * sxy;
  const std::int64_t tr = std::int64_t{sxx} + syy;
  return det - ((41 * tr * tr) >> 10);
}

// 3x3 NMS with a per-neighbour bounds check and early exit over a dense
// width x height index grid (first keypoint at a pixel wins, ties to the
// lower index); `grid` is all -1 on entry and on return.
void nms_reference(const std::vector<Keypoint>& kps, int width, int height,
                   std::vector<std::int32_t>& grid,
                   std::vector<Keypoint>& out) {
  out.clear();
  grid.resize(static_cast<std::size_t>(width) * height, -1);
  auto at = [&](int x, int y) -> std::int32_t& {
    return grid[static_cast<std::size_t>(y) * width + x];
  };
  for (std::size_t i = 0; i < kps.size(); ++i)
    if (at(kps[i].x, kps[i].y) < 0)
      at(kps[i].x, kps[i].y) = static_cast<std::int32_t>(i);
  for (std::size_t i = 0; i < kps.size(); ++i) {
    bool is_max = true;
    for (int dy = -1; dy <= 1 && is_max; ++dy)
      for (int dx = -1; dx <= 1 && is_max; ++dx) {
        const int x = kps[i].x + dx, y = kps[i].y + dy;
        if ((dx == 0 && dy == 0) || x < 0 || y < 0 || x >= width ||
            y >= height || at(x, y) < 0)
          continue;
        const std::size_t j = static_cast<std::size_t>(at(x, y));
        if (kps[j].score > kps[i].score ||
            (kps[j].score == kps[i].score && j < i))
          is_max = false;
      }
    if (is_max) out.push_back(kps[i]);
  }
  for (const Keypoint& kp : kps) at(kp.x, kp.y) = -1;
}

// Median-of-reps wall time for `fn`, in milliseconds.
template <typename Fn>
double time_ms(int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const WallTimer t;
    fn();
    samples.push_back(t.elapsed_ms());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

int main() {
  bench::print_header("micro kernels: scalar vs SIMD",
                      "section 3.2 (BRIEF matcher) kernel throughput");
  BenchJson json("micro_kernels");
  json.text("isa", simd::active_isa_name());

  std::mt19937_64 rng(42);
  const int kQueries = 256;
  std::vector<Descriptor256> queries(kQueries);
  for (auto& d : queries) d = random_descriptor(rng);

  // ---- Hamming block: one query vs a contiguous train block --------------
  const std::vector<int> kTrainSizes = {1024, 4096, 16384};
  std::vector<std::vector<double>> hamming_rows;
  double speedup_at_4k = 0.0;
  for (const int n : kTrainSizes) {
    std::vector<Descriptor256> train(static_cast<std::size_t>(n));
    for (auto& d : train) d = random_descriptor(rng);
    DescriptorSoA soa;
    soa.assign(train);

    std::vector<std::uint16_t> dist_simd(train.size());
    std::vector<std::uint16_t> dist_scalar(train.size());
    for (const auto& q : queries) {
      simd::hamming_block(soa, q, 0, train.size(), dist_simd.data());
      simd::hamming_block_scalar(soa, q, 0, train.size(), dist_scalar.data());
      require(dist_simd == dist_scalar, "hamming_block vs scalar");
    }

    const int reps = 9;
    const double scalar_ms = time_ms(reps, [&] {
      for (const auto& q : queries)
        simd::hamming_block_scalar(soa, q, 0, train.size(),
                                   dist_scalar.data());
    });
    const double simd_ms = time_ms(reps, [&] {
      for (const auto& q : queries)
        simd::hamming_block(soa, q, 0, train.size(), dist_simd.data());
    });
    const double speedup = simd_ms > 0 ? scalar_ms / simd_ms : 0.0;
    if (n == 4096) speedup_at_4k = speedup;
    const double pairs = static_cast<double>(kQueries) * n;
    std::printf("hamming_block  n=%6d  scalar %7.3f ms  simd %7.3f ms  "
                "speedup %5.2fx  (%5.0f Mpairs/s)\n",
                n, scalar_ms, simd_ms, speedup,
                pairs / (simd_ms * 1e3));
    hamming_rows.push_back({static_cast<double>(n), scalar_ms, simd_ms,
                            speedup, pairs / (simd_ms * 1e3)});
  }
  const std::string hamming_cols[] = {"train_size", "scalar_ms", "simd_ms",
                                      "speedup", "simd_mpairs_per_s"};
  json.rows("hamming_block", hamming_cols, hamming_rows);
  json.number("hamming_speedup_at_4k", speedup_at_4k);

  // ---- Hamming gather: candidate-list indices (the gated tier) -----------
  {
    const int n = 4096, kListLen = 48;
    std::vector<Descriptor256> train(static_cast<std::size_t>(n));
    for (auto& d : train) d = random_descriptor(rng);
    DescriptorSoA soa;
    soa.assign(train);
    std::vector<std::int32_t> candidates(kListLen);
    for (auto& c : candidates)
      c = static_cast<std::int32_t>(rng() % static_cast<std::uint64_t>(n));
    std::sort(candidates.begin(), candidates.end());

    std::vector<std::uint16_t> dist_simd(candidates.size());
    std::vector<std::uint16_t> dist_scalar(candidates.size());
    for (const auto& q : queries) {
      simd::hamming_gather(soa, q, candidates, dist_simd.data());
      simd::hamming_gather_scalar(soa, q, candidates, dist_scalar.data());
      require(dist_simd == dist_scalar, "hamming_gather vs scalar");
    }
    const int reps = 9, inner = 64;
    const double scalar_ms = time_ms(reps, [&] {
      for (int i = 0; i < inner; ++i)
        for (const auto& q : queries)
          simd::hamming_gather_scalar(soa, q, candidates, dist_scalar.data());
    });
    const double simd_ms = time_ms(reps, [&] {
      for (int i = 0; i < inner; ++i)
        for (const auto& q : queries)
          simd::hamming_gather(soa, q, candidates, dist_simd.data());
    });
    std::printf("hamming_gather list=%d  scalar %7.3f ms  simd %7.3f ms  "
                "speedup %5.2fx\n",
                kListLen, scalar_ms, simd_ms,
                simd_ms > 0 ? scalar_ms / simd_ms : 0.0);
    json.number("gather_scalar_ms", scalar_ms);
    json.number("gather_simd_ms", simd_ms);
    json.number("gather_speedup", simd_ms > 0 ? scalar_ms / simd_ms : 0.0);
  }

  // ---- Batched projection (the match gate's kernel) ----------------------
  {
    const int n = 8192;
    std::vector<double> xs(n), ys(n), zs(n);
    std::mt19937_64 prng(9);
    auto uniform = [&](double lo, double hi) {
      return lo + (hi - lo) * (static_cast<double>(prng() >> 11) * 0x1p-53);
    };
    for (int i = 0; i < n; ++i) {
      xs[static_cast<std::size_t>(i)] = uniform(-4.0, 4.0);
      ys[static_cast<std::size_t>(i)] = uniform(-3.0, 3.0);
      zs[static_cast<std::size_t>(i)] = uniform(-1.0, 9.0);  // some behind
    }
    const PinholeCamera cam = PinholeCamera::tum_freiburg1();
    const SE3 pose;  // identity prior
    const double margin = 24.0;
    std::vector<double> u_a(xs.size()), v_a(xs.size());
    std::vector<double> u_b(xs.size()), v_b(xs.size());
    std::vector<std::uint8_t> keep_a(xs.size()), keep_b(xs.size());

    simd::project_batch(xs, ys, zs, pose, cam, margin, u_a.data(), v_a.data(),
                        keep_a.data());
    simd::project_batch_scalar(xs, ys, zs, pose, cam, margin, u_b.data(),
                               v_b.data(), keep_b.data());
    require(keep_a == keep_b, "project_batch keep mask vs scalar");
    for (std::size_t i = 0; i < xs.size(); ++i)
      if (keep_a[i])
        require(u_a[i] == u_b[i] && v_a[i] == v_b[i],
                "project_batch uv vs scalar");

    const int reps = 9, inner = 64;
    const double scalar_ms = time_ms(reps, [&] {
      for (int i = 0; i < inner; ++i)
        simd::project_batch_scalar(xs, ys, zs, pose, cam, margin, u_b.data(),
                                   v_b.data(), keep_b.data());
    });
    const double simd_ms = time_ms(reps, [&] {
      for (int i = 0; i < inner; ++i)
        simd::project_batch(xs, ys, zs, pose, cam, margin, u_a.data(),
                            v_a.data(), keep_a.data());
    });
    std::printf("project_batch  n=%d  scalar %7.3f ms  simd %7.3f ms  "
                "speedup %5.2fx\n",
                n, scalar_ms, simd_ms,
                simd_ms > 0 ? scalar_ms / simd_ms : 0.0);
    json.number("project_scalar_ms", scalar_ms);
    json.number("project_simd_ms", simd_ms);
    json.number("project_speedup", simd_ms > 0 ? scalar_ms / simd_ms : 0.0);
  }

  // ---- End-to-end brute-force match: AoS reference vs SoA _into tier -----
  {
    const int n = 4096;
    std::vector<Descriptor256> train(static_cast<std::size_t>(n));
    for (auto& d : train) d = random_descriptor(rng);
    DescriptorSoA soa;
    soa.assign(train);
    FeatureList features(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i)
      features[i].descriptor = queries[i];
    const MatcherOptions options;
    const TrainView view{train, &soa};
    Arena arena;
    std::vector<Match> out;

    const std::vector<Match> reference =
        match_descriptors(queries, train, options);
    match_descriptors_into(features, view, options, &arena, out);
    require(reference.size() == out.size(), "match_descriptors_into size");
    for (std::size_t i = 0; i < out.size(); ++i)
      require(reference[i].query == out[i].query &&
                  reference[i].train == out[i].train &&
                  reference[i].distance == out[i].distance &&
                  reference[i].second_best == out[i].second_best,
              "match_descriptors_into vs AoS reference");

    const int reps = 9;
    const double aos_ms = time_ms(
        reps, [&] { (void)match_descriptors(queries, train, options); });
    const double soa_ms = time_ms(reps, [&] {
      match_descriptors_into(features, view, options, &arena, out);
    });
    std::printf("brute_match    n=%d  aos %7.3f ms  soa %7.3f ms  "
                "speedup %5.2fx\n",
                n, aos_ms, soa_ms, soa_ms > 0 ? aos_ms / soa_ms : 0.0);
    json.number("brute_match_aos_ms", aos_ms);
    json.number("brute_match_soa_ms", soa_ms);
    json.number("brute_match_speedup", soa_ms > 0 ? aos_ms / soa_ms : 0.0);
  }

  // ---- FAST detection and 7x7 smoothing on VGA ---------------------------
  {
    const ImageU8 img = test_image(640, 480);
    std::vector<Keypoint> dispatched, reference;
    auto reference_scan = [&] {
      reference.clear();
      for (int y = 3; y < img.height() - 3; ++y)
        for (int x = 3; x < img.width() - 3; ++x)
          if (is_fast_corner(img, x, y, 20)) {
            Keypoint kp;
            kp.x = x;
            kp.y = y;
            reference.push_back(kp);
          }
    };
    reference_scan();
    detect_fast_into(img, 20, 3, dispatched);
    bool same = dispatched.size() == reference.size();
    for (std::size_t i = 0; same && i < reference.size(); ++i)
      same = dispatched[i].x == reference[i].x &&
             dispatched[i].y == reference[i].y;
    require(same, "detect_fast_into vs is_fast_corner scan");
    const double reference_ms = time_ms(9, reference_scan);
    const double fast_ms =
        time_ms(9, [&] { detect_fast_into(img, 20, 3, dispatched); });

    static constexpr int kTaps[7] = {1, 6, 15, 20, 15, 6, 1};
    Image<std::uint16_t> tmp;
    ImageU8 smoothed;
    smooth_gaussian7_u8_into(img, tmp, smoothed);
    require(smoothed == convolve_separable_u8(img, kTaps, 7, 6),
            "smooth_gaussian7_u8_into vs convolve_separable_u8");
    const double generic_ms =
        time_ms(9, [&] { (void)convolve_separable_u8(img, kTaps, 7, 6); });
    const double smooth_ms =
        time_ms(9, [&] { smooth_gaussian7_u8_into(img, tmp, smoothed); });

    std::printf("fast_detect vga  reference %7.3f ms  dispatched %7.3f ms  "
                "speedup %5.2fx  (%zu corners)\n",
                reference_ms, fast_ms,
                fast_ms > 0 ? reference_ms / fast_ms : 0.0, reference.size());
    std::printf("smooth7x7 vga    generic   %7.3f ms  dedicated  %7.3f ms  "
                "speedup %5.2fx\n",
                generic_ms, smooth_ms,
                smooth_ms > 0 ? generic_ms / smooth_ms : 0.0);
    json.number("fast_detect_vga_ms", fast_ms);
    json.number("fast_reference_vga_ms", reference_ms);
    json.number("fast_detect_speedup",
                fast_ms > 0 ? reference_ms / fast_ms : 0.0);
    json.number("smooth7_vga_ms", smooth_ms);
    json.number("smooth7_generic_vga_ms", generic_ms);
  }

  // ---- Harris scoring and NMS over a VGA frame's FAST corners -----------
  {
    const ImageU8 img = test_image(640, 480);
    std::vector<Keypoint> corners;
    detect_fast_into(img, 20, 4, corners);  // Harris needs a 4-pixel border
    std::vector<std::int64_t> dispatched(corners.size()),
        reference(corners.size());
    auto reference_loop = [&] {
      for (std::size_t i = 0; i < corners.size(); ++i)
        reference[i] = harris_reference(img, corners[i].x, corners[i].y);
    };
    auto dispatched_loop = [&] {
      for (std::size_t i = 0; i < corners.size(); ++i)
        dispatched[i] = harris_score_int(img, corners[i].x, corners[i].y);
    };
    reference_loop();
    dispatched_loop();
    require(dispatched == reference, "harris_score_int vs at() reference");
    const double harris_reference_ms = time_ms(9, reference_loop);
    const double harris_ms = time_ms(9, dispatched_loop);

    for (std::size_t i = 0; i < corners.size(); ++i)
      corners[i].score = dispatched[i];
    NmsScratch scratch;
    std::vector<std::int32_t> reference_grid;
    std::vector<Keypoint> kept, reference_kept;
    nms_3x3_into(corners, img.width(), img.height(), scratch, kept);
    nms_reference(corners, img.width(), img.height(), reference_grid,
                  reference_kept);
    bool same = kept.size() == reference_kept.size();
    for (std::size_t i = 0; same && i < kept.size(); ++i)
      same = kept[i].x == reference_kept[i].x &&
             kept[i].y == reference_kept[i].y;
    require(same, "nms_3x3_into vs bounds-checked reference");
    const double nms_reference_ms = time_ms(9, [&] {
      nms_reference(corners, img.width(), img.height(), reference_grid,
                    reference_kept);
    });
    const double nms_ms = time_ms(9, [&] {
      nms_3x3_into(corners, img.width(), img.height(), scratch, kept);
    });

    std::printf("harris_vga       reference %7.3f ms  dispatched %7.3f ms  "
                "speedup %5.2fx  (%zu corners)\n",
                harris_reference_ms, harris_ms,
                harris_ms > 0 ? harris_reference_ms / harris_ms : 0.0,
                corners.size());
    std::printf("nms_vga          reference %7.3f ms  dispatched %7.3f ms  "
                "speedup %5.2fx  (%zu kept)\n",
                nms_reference_ms, nms_ms,
                nms_ms > 0 ? nms_reference_ms / nms_ms : 0.0, kept.size());
    json.number("harris_vga_ms", harris_ms);
    json.number("harris_reference_vga_ms", harris_reference_ms);
    json.number("harris_speedup",
                harris_ms > 0 ? harris_reference_ms / harris_ms : 0.0);
    json.number("nms_vga_ms", nms_ms);
    json.number("nms_reference_vga_ms", nms_reference_ms);
    json.number("nms_speedup", nms_ms > 0 ? nms_reference_ms / nms_ms : 0.0);
  }

  json.write();
  return 0;
}
