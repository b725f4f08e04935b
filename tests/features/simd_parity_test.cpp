// Scalar-vs-SIMD parity: the dispatched kernels (features/simd_kernels,
// FAST detection, Harris scoring) and the allocation-free matcher/gate tiers built on them
// must be BIT-exact with the scalar reference paths — same corners in the
// same order, same Hamming distances, same lowest-index tie winners, same
// projected pixels, same candidate lists.
// The suite runs in the default build (dispatch picks AVX2/NEON where
// available) and in the ESLAM_FORCE_SCALAR CI leg (dispatch pinned to the
// scalar kernels), so both sides of every comparison stay exercised.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "core/arena.h"
#include "core/simd_dispatch.h"
#include "../test_util.h"
#include "features/descriptor_soa.h"
#include "features/fast.h"
#include "features/harris.h"
#include "features/matcher.h"
#include "features/simd_kernels.h"
#include "geometry/camera.h"
#include "slam/match_gate.h"

namespace eslam {
namespace {

Descriptor256 random_descriptor(std::mt19937_64& rng) {
  Descriptor256 d;
  for (auto& w : d.words()) w = rng();
  return d;
}

std::vector<Descriptor256> random_descriptors(std::mt19937_64& rng,
                                              std::size_t n) {
  std::vector<Descriptor256> out(n);
  for (auto& d : out) d = random_descriptor(rng);
  return out;
}

void expect_matches_equal(const std::vector<Match>& a,
                          const std::vector<Match>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].query, b[i].query) << "match " << i;
    EXPECT_EQ(a[i].train, b[i].train) << "match " << i;
    EXPECT_EQ(a[i].distance, b[i].distance) << "match " << i;
    EXPECT_EQ(a[i].second_best, b[i].second_best) << "match " << i;
  }
}

// ---- Hamming kernels -------------------------------------------------------

TEST(SimdParity, HammingBlockMatchesScalarAndReference) {
  std::mt19937_64 rng(1);
  // Sizes straddling every SIMD block boundary (AVX2 processes 4/iter).
  for (const std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 15u, 64u, 130u}) {
    const auto train = random_descriptors(rng, n);
    DescriptorSoA soa;
    soa.assign(train);
    const Descriptor256 q = random_descriptor(rng);
    std::vector<std::uint16_t> simd_d(n + 1, 0xFFFF);
    std::vector<std::uint16_t> scalar_d(n + 1, 0xFFFF);
    simd::hamming_block(soa, q, 0, n, simd_d.data());
    simd::hamming_block_scalar(soa, q, 0, n, scalar_d.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(simd_d[i], scalar_d[i]) << "n=" << n << " i=" << i;
      EXPECT_EQ(simd_d[i], hamming_distance(q, train[i]))
          << "n=" << n << " i=" << i;
    }
    // The kernel never writes past `count`.
    EXPECT_EQ(simd_d[n], 0xFFFF);
    EXPECT_EQ(scalar_d[n], 0xFFFF);
  }
}

TEST(SimdParity, HammingBlockHonoursFirstOffset) {
  std::mt19937_64 rng(2);
  const auto train = random_descriptors(rng, 37);
  DescriptorSoA soa;
  soa.assign(train);
  const Descriptor256 q = random_descriptor(rng);
  for (const std::size_t first : {0u, 1u, 3u, 36u}) {
    const std::size_t count = train.size() - first;
    std::vector<std::uint16_t> d(count);
    simd::hamming_block(soa, q, first, count, d.data());
    for (std::size_t i = 0; i < count; ++i)
      EXPECT_EQ(d[i], hamming_distance(q, train[first + i]));
  }
}

TEST(SimdParity, HammingGatherMatchesScalar) {
  std::mt19937_64 rng(3);
  const auto train = random_descriptors(rng, 256);
  DescriptorSoA soa;
  soa.assign(train);
  for (const std::size_t len : {0u, 1u, 2u, 3u, 4u, 5u, 9u, 33u, 100u}) {
    std::vector<std::int32_t> candidates(len);
    for (auto& c : candidates)
      c = static_cast<std::int32_t>(rng() % train.size());
    const Descriptor256 q = random_descriptor(rng);
    std::vector<std::uint16_t> simd_d(len + 1, 0xFFFF);
    std::vector<std::uint16_t> scalar_d(len + 1, 0xFFFF);
    simd::hamming_gather(soa, q, candidates, simd_d.data());
    simd::hamming_gather_scalar(soa, q, candidates, scalar_d.data());
    for (std::size_t i = 0; i < len; ++i) {
      EXPECT_EQ(simd_d[i], scalar_d[i]) << "len=" << len << " i=" << i;
      EXPECT_EQ(simd_d[i],
                hamming_distance(q, train[static_cast<std::size_t>(
                                        candidates[i])]));
    }
    EXPECT_EQ(simd_d[len], 0xFFFF);
  }
}

// ---- Matcher tiers ---------------------------------------------------------

TEST(SimdParity, MatchDescriptorsIntoEqualsReference) {
  std::mt19937_64 rng(4);
  for (const bool cross_check : {false, true}) {
    for (const double ratio : {1.0, 0.85}) {
      MatcherOptions options;
      options.max_distance = 140;  // random descriptors center near 128
      options.cross_check = cross_check;
      options.ratio = ratio;
      const auto queries = random_descriptors(rng, 120);
      const auto train = random_descriptors(rng, 300);
      DescriptorSoA soa;
      soa.assign(train);
      FeatureList features(queries.size());
      for (std::size_t i = 0; i < queries.size(); ++i)
        features[i].descriptor = queries[i];

      const std::vector<Match> reference =
          match_descriptors(queries, train, options);
      Arena arena;
      std::vector<Match> out;
      match_descriptors_into(features, TrainView{train, &soa}, options,
                             &arena, out);
      expect_matches_equal(reference, out);

      // AoS-only view (soa == nullptr) must agree too.
      std::vector<Match> out_aos;
      match_descriptors_into(features, TrainView{train, nullptr}, options,
                             nullptr, out_aos);
      expect_matches_equal(reference, out_aos);
    }
  }
}

TEST(SimdParity, MatchDescriptorsIntoTieBreaksLikeReference) {
  // Duplicate train descriptors: ties must resolve to the lowest train
  // index on every path, and the runner-up bookkeeping must agree.
  std::mt19937_64 rng(5);
  auto train = random_descriptors(rng, 64);
  for (std::size_t i = 0; i < train.size(); i += 2)
    train[i + 1] = train[i];  // every even/odd pair is an exact duplicate
  const auto queries = random_descriptors(rng, 40);
  DescriptorSoA soa;
  soa.assign(train);
  FeatureList features(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i)
    features[i].descriptor = queries[i];
  MatcherOptions options;
  options.max_distance = 256;  // accept everything: pure tie behavior

  const std::vector<Match> reference =
      match_descriptors(queries, train, options);
  Arena arena;
  std::vector<Match> out;
  match_descriptors_into(features, TrainView{train, &soa}, options, &arena,
                         out);
  expect_matches_equal(reference, out);
  for (const Match& m : out) {
    EXPECT_EQ(m.train % 2, 0) << "tie must pick the even (lower) duplicate";
    EXPECT_EQ(m.distance, m.second_best) << "duplicate is its own runner-up";
  }
}

TEST(SimdParity, MatchCandidatesIntoEqualsReference) {
  std::mt19937_64 rng(6);
  for (const bool cross_check : {false, true}) {
    MatcherOptions options;
    options.max_distance = 140;
    options.cross_check = cross_check;
    const auto queries = random_descriptors(rng, 80);
    const auto train = random_descriptors(rng, 200);
    DescriptorSoA soa;
    soa.assign(train);
    FeatureList features(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i)
      features[i].descriptor = queries[i];

    // Random ascending candidate lists (some empty).
    CandidateSet candidates;
    candidates.offsets.push_back(0);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const std::size_t len = rng() % 12;
      std::vector<std::int32_t> list(len);
      for (auto& c : list)
        c = static_cast<std::int32_t>(rng() % train.size());
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
      for (const auto c : list) candidates.indices.push_back(c);
      candidates.offsets.push_back(
          static_cast<std::int32_t>(candidates.indices.size()));
    }

    const std::vector<Match> reference =
        match_candidates(queries, train, candidates, options);
    Arena arena;
    std::vector<Match> out;
    match_candidates_into(features, TrainView{train, &soa}, candidates,
                          options, &arena, out);
    expect_matches_equal(reference, out);

    std::vector<Match> out_aos;
    match_candidates_into(features, TrainView{train, nullptr}, candidates,
                          options, nullptr, out_aos);
    expect_matches_equal(reference, out_aos);
  }
}

// ---- Projection ------------------------------------------------------------

TEST(SimdParity, ProjectBatchBitExactWithScalarAndSourceExpression) {
  std::mt19937_64 rng(7);
  const PinholeCamera cam = PinholeCamera::tum_freiburg1();
  auto uniform = [&](double lo, double hi) {
    return lo + (hi - lo) * (static_cast<double>(rng() >> 11) * 0x1p-53);
  };
  // A non-trivial pose: rotation + translation.
  const SE3 pose = SE3::exp({0.1, -0.2, 0.05, 0.3, -0.1, 0.2});
  const double margin = 24.0;
  for (const std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 64u, 129u}) {
    std::vector<double> xs(n), ys(n), zs(n);
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = uniform(-5.0, 5.0);
      ys[i] = uniform(-5.0, 5.0);
      zs[i] = uniform(-2.0, 8.0);  // mix of in-front and behind
    }
    std::vector<double> u_a(n), v_a(n), u_b(n), v_b(n);
    std::vector<std::uint8_t> keep_a(n), keep_b(n);
    simd::project_batch(xs, ys, zs, pose, cam, margin, u_a.data(), v_a.data(),
                        keep_a.data());
    simd::project_batch_scalar(xs, ys, zs, pose, cam, margin, u_b.data(),
                               v_b.data(), keep_b.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(keep_a[i], keep_b[i]) << "n=" << n << " i=" << i;
      if (!keep_a[i]) continue;
      // Bit-exact, not approximately equal.
      EXPECT_EQ(u_a[i], u_b[i]) << "n=" << n << " i=" << i;
      EXPECT_EQ(v_a[i], v_b[i]) << "n=" << n << " i=" << i;
      // And identical to the original gate's arithmetic: SE3 * Vec3
      // followed by PinholeCamera::project.
      const Vec3 p_cam = pose * Vec3{xs[i], ys[i], zs[i]};
      const std::optional<Vec2> px = cam.project(p_cam);
      ASSERT_TRUE(px.has_value());
      EXPECT_EQ(u_a[i], (*px)[0]);
      EXPECT_EQ(v_a[i], (*px)[1]);
    }
  }
}

TEST(SimdParity, ProjectBatchRejectsNaNAndBehindCamera) {
  const PinholeCamera cam = PinholeCamera::tum_freiburg1();
  const SE3 identity;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // In front; behind; at zero depth; NaN coordinate; infinite coordinate.
  const std::vector<double> xs = {0.0, 0.0, 0.0, nan, inf};
  const std::vector<double> ys = {0.0, 0.0, 0.0, 0.0, 0.0};
  const std::vector<double> zs = {2.0, -2.0, 0.0, 2.0, 2.0};
  std::vector<double> u(xs.size()), v(xs.size());
  std::vector<std::uint8_t> keep(xs.size());
  simd::project_batch(xs, ys, zs, identity, cam, 24.0, u.data(), v.data(),
                      keep.data());
  EXPECT_EQ(keep[0], 1);
  EXPECT_EQ(keep[1], 0) << "behind the camera";
  EXPECT_EQ(keep[2], 0) << "at the camera plane";
  EXPECT_EQ(keep[3], 0) << "NaN must be rejected, never kept";
  EXPECT_EQ(keep[4], 0) << "infinite projection off-image";
  std::vector<std::uint8_t> keep_s(xs.size());
  simd::project_batch_scalar(xs, ys, zs, identity, cam, 24.0, u.data(),
                             v.data(), keep_s.data());
  EXPECT_EQ(keep, keep_s);
}

// ---- FAST detection ----------------------------------------------------------

// The reference scan: is_fast_corner at every pixel inside the margin, in
// raster order.
std::vector<Keypoint> fast_reference(const ImageU8& img, int threshold,
                                     int margin) {
  std::vector<Keypoint> out;
  for (int y = margin; y < img.height() - margin; ++y)
    for (int x = margin; x < img.width() - margin; ++x)
      if (is_fast_corner(img, x, y, threshold)) {
        Keypoint kp;
        kp.x = x;
        kp.y = y;
        out.push_back(kp);
      }
  return out;
}

ImageU8 random_image(std::mt19937_64& rng, int w, int h, int lo, int hi) {
  ImageU8 img(w, h);
  for (auto& p : img.data())
    p = static_cast<std::uint8_t>(
        lo + static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1)));
  return img;
}

constexpr int kFastThresholds[] = {-5, 0, 1, 20, 254, 255, 300};

// Dispatched detect_fast_into (recycled output) vs the reference scan, for
// every threshold and both margins; returns the corners compared.
std::size_t expect_fast_parity(const ImageU8& img, const char* what) {
  std::size_t compared = 0;
  std::vector<Keypoint> got{Keypoint{}};  // stale entry: must be cleared
  for (const int margin : {3, 16})
    for (const int t : kFastThresholds) {
      detect_fast_into(img, t, margin, got);
      const std::vector<Keypoint> want = fast_reference(img, t, margin);
      EXPECT_EQ(got.size(), want.size())
          << what << " " << img.width() << "x" << img.height()
          << " t=" << t << " margin=" << margin;
      if (got.size() != want.size()) continue;
      std::size_t i = 0;
      while (i < want.size() && got[i].x == want[i].x && got[i].y == want[i].y)
        ++i;
      EXPECT_EQ(i, want.size())
          << what << " " << img.width() << "x" << img.height() << " t=" << t
          << " margin=" << margin << ": first differing corner";
      compared += want.size();
    }
  return compared;
}

TEST(SimdParity, FastMatchesReferenceAcrossWidths) {
  // Widths 7..70 cover rows narrower than one 32-pixel vector, exact
  // multiples and every tail length; height 40 leaves interior rows at
  // margin 16 too.
  std::mt19937_64 rng(11);
  std::size_t compared = 0;
  for (int w = 7; w <= 70; ++w) {
    compared += expect_fast_parity(random_image(rng, w, 40, 0, 255), "random");
    compared += expect_fast_parity(
        eslam::testing::structured_test_image(w, 40, static_cast<std::uint32_t>(w)),
        "structured");
  }
  EXPECT_GT(compared, 1000u);  // the comparison saw corners, not just empties
}

TEST(SimdParity, FastMatchesReferenceOnVga) {
  std::mt19937_64 rng(12);
  std::size_t compared = 0;
  compared += expect_fast_parity(random_image(rng, 640, 480, 0, 255), "random");
  compared += expect_fast_parity(
      eslam::testing::structured_test_image(640, 480, 5), "structured");
  EXPECT_GT(compared, 10000u);
}

TEST(SimdParity, FastMatchesReferenceOnSaturatedImages) {
  // Near 0 and near 255 the saturating c - t / c + t of the vector tier
  // clamp; binary 0/255 noise hits both clamps in one image.
  std::mt19937_64 rng(13);
  std::size_t compared = 0;
  for (const int w : {37, 64, 101}) {
    compared += expect_fast_parity(random_image(rng, w, 48, 0, 12), "dark");
    compared += expect_fast_parity(random_image(rng, w, 48, 243, 255), "bright");
    ImageU8 binary = random_image(rng, w, 48, 0, 1);
    for (auto& p : binary.data()) p = p ? 255 : 0;
    compared += expect_fast_parity(binary, "binary");
  }
  EXPECT_GT(compared, 1000u);
}

// ---- Harris ----------------------------------------------------------------

// Dispatched harris_score_int vs the at() reference at every valid point
// (x, y in [4, size - 5]); returns the points compared.  An image's pixel
// buffer ends at its last pixel, so a tier that read past column x + 4 or
// row y + 4 on the last valid row or column would leave the buffer (the
// sanitizer builds report it).
std::size_t expect_harris_parity(const ImageU8& img, const char* what) {
  std::size_t compared = 0;
  for (int y = 4; y < img.height() - 4; ++y)
    for (int x = 4; x < img.width() - 4; ++x) {
      const std::int64_t want = eslam::testing::harris_at_reference(img, x, y);
      const std::int64_t got = harris_score_int(img, x, y);
      if (got != want) {
        ADD_FAILURE() << what << " " << img.width() << "x" << img.height()
                      << " (" << x << "," << y << "): " << got << " vs "
                      << want;
        return compared;
      }
      ++compared;
    }
  return compared;
}

TEST(SimdParity, HarrisMatchesReferenceAcrossSizes) {
  // 9 is the smallest side with a valid point; every width from 9 to 40
  // puts windows on the last valid column at every alignment.
  std::mt19937_64 rng(21);
  std::size_t compared = 0;
  for (int w = 9; w <= 40; ++w)
    for (const int h : {9, 10, 23}) {
      compared += expect_harris_parity(random_image(rng, w, h, 0, 255),
                                       "random");
      compared += expect_harris_parity(
          eslam::testing::structured_test_image(
              w, h, static_cast<std::uint32_t>(w * 31 + h)),
          "structured");
    }
  compared += expect_harris_parity(random_image(rng, 640, 480, 0, 255),
                                   "random vga");
  EXPECT_GT(compared, 300000u);
}

TEST(SimdParity, HarrisMatchesReferenceOnFlatAndExtremeImages) {
  // Flat 0 / 255 images score 0.  2-pixel stripes put |gx| or |gy| at its
  // 1020 maximum (>> 3 gives -128 / 127, the int16 and madd extremes);
  // binary checkerboards and binary noise mix both signs.
  std::mt19937_64 rng(22);
  std::size_t compared = 0;
  for (const int w : {9, 17, 33, 64}) {
    const int h = 19;
    for (const std::uint8_t v : {std::uint8_t{0}, std::uint8_t{255}}) {
      const ImageU8 flat(w, h, v);
      compared += expect_harris_parity(flat, "flat");
      EXPECT_EQ(harris_score_int(flat, 4, 4), 0);
    }
    using Pattern = int (*)(int, int);
    const Pattern patterns[] = {
        [](int x, int) { return (x / 2) % 2; },            // vertical stripes
        [](int, int y) { return (y / 2) % 2; },            // horizontal
        [](int x, int y) { return (x / 2 + y / 2) % 2; },  // 2x2 checkers
        [](int x, int y) { return (x + y) % 2; },          // 1x1 checkers
        [](int x, int y) { return (x / 2 + y) % 2; },
    };
    for (const Pattern pattern : patterns)
      for (const bool inverted : {false, true}) {
        ImageU8 img(w, h);
        for (int y = 0; y < h; ++y)
          for (int x = 0; x < w; ++x)
            img.at(x, y) = (pattern(x, y) != 0) != inverted ? 255 : 0;
        compared += expect_harris_parity(img, "binary pattern");
      }
    ImageU8 noise = random_image(rng, w, h, 0, 1);
    for (auto& p : noise.data()) p = p ? 255 : 0;
    compared += expect_harris_parity(noise, "binary noise");
  }
  EXPECT_GT(compared, 2000u);
}

// ---- Gate ------------------------------------------------------------------

TEST(SimdParity, BuildCandidateSetIntoEqualsReference) {
  std::mt19937_64 rng(8);
  const PinholeCamera cam = PinholeCamera::tum_freiburg1();
  auto uniform = [&](double lo, double hi) {
    return lo + (hi - lo) * (static_cast<double>(rng() >> 11) * 0x1p-53);
  };
  const SE3 pose = SE3::exp({0.02, 0.01, -0.03, 0.1, 0.05, -0.08});
  const std::size_t n_points = 600;
  std::vector<Vec3> positions(n_points);
  std::vector<double> xs(n_points), ys(n_points), zs(n_points);
  for (std::size_t i = 0; i < n_points; ++i) {
    const Vec3 p{uniform(-3.0, 3.0), uniform(-2.0, 2.0), uniform(-0.5, 7.0)};
    positions[i] = p;
    xs[i] = p[0];
    ys[i] = p[1];
    zs[i] = p[2];
  }
  FeatureList features(150);
  for (auto& f : features) {
    f.keypoint.x = static_cast<int>(uniform(0.0, 640.0));
    f.keypoint.y = static_cast<int>(uniform(0.0, 480.0));
    f.keypoint.scale = 1.0;
  }
  MatchPolicy policy;

  const GateResult reference =
      build_candidate_set(positions, pose, cam, features, policy);
  Arena arena;
  GateResult out;
  build_candidate_set_into(xs, ys, zs, pose, cam, features, policy, &arena,
                           out);

  EXPECT_EQ(reference.projected, out.projected);
  ASSERT_EQ(reference.candidates.offsets, out.candidates.offsets);
  ASSERT_EQ(reference.candidates.indices, out.candidates.indices);

  // Recycled-output reuse: a second build into the same GateResult must
  // not accumulate stale state.
  build_candidate_set_into(xs, ys, zs, pose, cam, features, policy, &arena,
                           out);
  EXPECT_EQ(reference.candidates.indices, out.candidates.indices);
  EXPECT_EQ(reference.candidates.offsets, out.candidates.offsets);
}

TEST(SimdParity, DispatchReportsConsistentIsa) {
  const simd::IsaLevel isa = simd::active_isa();
#if defined(ESLAM_FORCE_SCALAR)
  EXPECT_EQ(isa, simd::IsaLevel::kScalar);
#endif
  EXPECT_NE(simd::isa_name(isa), nullptr);
}

}  // namespace
}  // namespace eslam
