// Tests for the accelerated FeatureBackend and the resize HW model —
// the glue between the cycle simulators and the tracker.
#include <gtest/gtest.h>

#include <algorithm>

#include "../test_util.h"
#include "accel/eslam_accel.h"
#include "accel/resize_hw.h"
#include "dataset/scene.h"

namespace eslam {
namespace {

ImageU8 rendered_frame() {
  const BoxRoomScene scene;
  const PinholeCamera cam(260.0, 260.0, 160.0, 120.0, 320, 240);
  return scene.render(cam, SE3{}, 0).gray;
}

TEST(AcceleratedBackend, ExtractReportsSimulatedTime) {
  AcceleratedBackend backend;
  const FeatureList f = backend.extract(rendered_frame());
  EXPECT_FALSE(f.empty());
  // QVGA x 4 levels ~ 0.55 Mpixels -> ~2 ms at 1 px/cycle, never the tens
  // of wall-clock ms the functional simulation takes.
  EXPECT_GT(backend.last_extract_time_ms(), 1.0);
  EXPECT_LT(backend.last_extract_time_ms(), 4.0);
}

TEST(AcceleratedBackend, MatchAppliesHostAcceptanceGates) {
  MatcherOptions accept;
  accept.max_distance = 10;  // very strict
  AcceleratedBackend backend({}, {}, accept);
  eslam::testing::rng(42);
  std::vector<Descriptor256> queries(8), train(32);
  for (auto& d : queries) d = eslam::testing::random_descriptor();
  for (auto& d : train) d = eslam::testing::random_descriptor();
  // Random pairs sit near distance 128: all rejected.
  EXPECT_TRUE(backend.match(queries, train).empty());
  // An exact copy passes.
  queries[0] = train[7];
  const auto matches = backend.match(queries, train);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].train, 7);
}

TEST(AcceleratedBackend, MatchTimeScalesWithMap) {
  AcceleratedBackend backend;
  eslam::testing::rng(43);
  std::vector<Descriptor256> queries(64), small(256), large(2048);
  for (auto& d : queries) d = eslam::testing::random_descriptor();
  for (auto& d : small) d = eslam::testing::random_descriptor();
  for (auto& d : large) d = eslam::testing::random_descriptor();
  backend.match(queries, small);
  const double t_small = backend.last_match_time_ms();
  backend.match(queries, large);
  const double t_large = backend.last_match_time_ms();
  EXPECT_GT(t_large, t_small * 4);
}

// --- Functional matching: the fabric's raw minimum-distance results -----
//
// With every gate open (max_distance 256, no ratio, no cross-check) the
// accepted set is the raw per-query result, so each match must equal the
// single-query reference, through both the AoS-only and the SoA TrainView.

using eslam::testing::window_lists;

std::vector<Descriptor256> random_set(std::size_t n, std::uint32_t seed) {
  eslam::testing::rng(seed);
  std::vector<Descriptor256> v(n);
  for (auto& d : v) d = eslam::testing::random_descriptor();
  return v;
}

std::vector<Feature> as_features(const std::vector<Descriptor256>& ds) {
  std::vector<Feature> fs(ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) fs[i].descriptor = ds[i];
  return fs;
}

// The two train views over one descriptor set: AoS only, and with the SoA
// word-plane mirror the map publishes.
struct Views {
  explicit Views(const std::vector<Descriptor256>& train) : aos(train) {
    soa_planes.assign(train);
  }
  std::vector<Descriptor256> aos;
  DescriptorSoA soa_planes;
  TrainView aos_only() const { return TrainView{aos}; }
  TrainView with_soa() const { return TrainView{aos, &soa_planes}; }
};

MatcherOptions accept_all() {
  MatcherOptions open;
  open.max_distance = 256;
  return open;
}

TEST(AcceleratedBackendMatch, ResultsMatchSoftwareReference) {
  const auto queries = random_set(64, 601);
  const auto train = random_set(500, 602);
  const Views views(train);
  AcceleratedBackend backend({}, {}, accept_all());
  for (const TrainView& view : {views.aos_only(), views.with_soa()}) {
    std::vector<Match> matches;
    backend.match_into(as_features(queries), view, nullptr, matches);
    ASSERT_EQ(matches.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const Match ref = match_one(queries[i], train);
      EXPECT_EQ(matches[i].train, ref.train);
      EXPECT_EQ(matches[i].distance, ref.distance);
      EXPECT_EQ(matches[i].second_best, ref.second_best);
      EXPECT_EQ(matches[i].query, static_cast<int>(i));
    }
    EXPECT_FALSE(backend.matcher().report().gated);
    EXPECT_EQ(backend.matcher().report().map_points, 500);
  }
}

TEST(AcceleratedBackendMatch, GatedResultsMatchSoftwareReference) {
  const auto queries = random_set(32, 612);
  const auto train = random_set(400, 613);
  const Views views(train);
  const CandidateSet set = window_lists(queries.size(), train.size(), 9);
  AcceleratedBackend backend({}, {}, accept_all());
  for (const TrainView& view : {views.aos_only(), views.with_soa()}) {
    std::vector<Match> matches;
    backend.match_candidates_into(as_features(queries), view, set, nullptr,
                                  matches);
    ASSERT_EQ(matches.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const Match ref =
          match_one_candidates(queries[i], train, set.candidates(i));
      EXPECT_EQ(matches[i].train, ref.train);
      EXPECT_EQ(matches[i].distance, ref.distance);
      EXPECT_EQ(matches[i].second_best, ref.second_best);
      EXPECT_EQ(matches[i].query, static_cast<int>(i));
    }
    EXPECT_TRUE(backend.matcher().report().gated);
    EXPECT_EQ(backend.matcher().report().candidates, set.total_candidates());
  }
}

TEST(AcceleratedBackendMatch, EmptyMapReturnsNothing) {
  const auto queries = random_set(5, 609);
  const Views views({});
  AcceleratedBackend backend({}, {}, accept_all());
  for (const TrainView& view : {views.aos_only(), views.with_soa()}) {
    std::vector<Match> matches(3);  // stale contents are cleared
    backend.match_into(as_features(queries), view, nullptr, matches);
    EXPECT_TRUE(matches.empty());
    EXPECT_EQ(backend.last_match_time_ms(), 0.0);
  }
}

TEST(AcceleratedBackendMatch, GatedEmptyListsAndEmptyMap) {
  // A query with no candidate has no raw match (train == -1), so even the
  // open gates accept nothing for it; an empty map matches nothing.
  const auto queries = random_set(3, 619);
  const auto train = random_set(10, 620);
  const Views views(train), empty({});
  CandidateSet set;
  set.offsets = {0, 0, 0, 0};  // every list empty
  AcceleratedBackend backend({}, {}, accept_all());
  for (const TrainView& view : {views.aos_only(), views.with_soa()}) {
    std::vector<Match> matches(3);
    backend.match_candidates_into(as_features(queries), view, set, nullptr,
                                  matches);
    EXPECT_TRUE(matches.empty());
    EXPECT_GT(backend.last_match_time_ms(), 0.0);
  }
  for (const TrainView& view : {empty.aos_only(), empty.with_soa()}) {
    std::vector<Match> matches(3);
    backend.match_candidates_into(as_features(queries), view, set, nullptr,
                                  matches);
    EXPECT_TRUE(matches.empty());
    EXPECT_EQ(backend.last_match_time_ms(), 0.0);
  }
}

// --- Host acceptance: identical to the software tier ---------------------

TEST(AcceleratedBackendMatch, CrossCheckAndRatioEqualSoftwareOnBothTiers) {
  // 200 queries near 120 of 300 map descriptors: queries i and i + 120
  // share a base, so cross-check must pick between them and the ratio
  // test (on both sides) rejects near-ties.
  const auto train = random_set(300, 701);
  std::vector<Descriptor256> queries(200);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    queries[i] = train[i % 120];
    const std::size_t flips = (i * 7) % 20;
    for (std::size_t b = 0; b < flips; ++b) {
      const std::size_t bit = (i * 37 + b * 11) % 256;
      queries[i].words()[bit / 64] ^= std::uint64_t{1} << (bit % 64);
    }
  }
  // Gated lists: the true base plus a stride of others, ascending, unique.
  CandidateSet set;
  set.offsets.push_back(0);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    std::vector<std::int32_t> list{static_cast<std::int32_t>(q % 120)};
    for (std::size_t k = 0; k < 8; ++k)
      list.push_back(static_cast<std::int32_t>((q * 7 + k * 13) % 300));
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    set.indices.insert(set.indices.end(), list.begin(), list.end());
    set.offsets.push_back(static_cast<std::int32_t>(set.indices.size()));
  }

  MatcherOptions options;
  options.cross_check = true;
  options.ratio = 0.8;
  const std::vector<Match> full_ref = match_descriptors(queries, train,
                                                        options);
  const std::vector<Match> gated_ref =
      match_candidates(queries, train, set, options);
  // The probe exercises the gates: some but not all queries survive.
  ASSERT_GT(full_ref.size(), 0u);
  ASSERT_LT(full_ref.size(), queries.size());
  ASSERT_GT(gated_ref.size(), 0u);
  ASSERT_LT(gated_ref.size(), queries.size());

  auto same = [](const std::vector<Match>& a, const std::vector<Match>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const Match& x, const Match& y) {
                        return x.query == y.query && x.train == y.train &&
                               x.distance == y.distance &&
                               x.second_best == y.second_best;
                      });
  };
  const std::vector<Feature> features = as_features(queries);
  const Views views(train);
  AcceleratedBackend accel({}, {}, options);
  SoftwareBackend software({}, options);
  for (FeatureBackend* backend :
       std::initializer_list<FeatureBackend*>{&accel, &software}) {
    for (const TrainView& view : {views.aos_only(), views.with_soa()}) {
      std::vector<Match> out;
      backend->match_into(features, view, nullptr, out);
      EXPECT_TRUE(same(out, full_ref)) << backend->name();
      backend->match_candidates_into(features, view, set, nullptr, out);
      EXPECT_TRUE(same(out, gated_ref)) << backend->name();
    }
    EXPECT_TRUE(same(backend->match(queries, train), full_ref))
        << backend->name();
    EXPECT_TRUE(same(backend->match_candidates(queries, train, set),
                     gated_ref))
        << backend->name();
  }
}

TEST(ResizeHw, MatchesSoftwareNearestNeighbour) {
  const ImageU8 img = rendered_frame();
  ImageResizerHw hw;
  const ImageU8 out = hw.resize(img, 266, 200);
  EXPECT_EQ(out, resize_nearest(img, 266, 200));
  EXPECT_EQ(hw.report().cycles, out.pixel_count());
  EXPECT_EQ(hw.report().out_width, 266);
}

TEST(ResizeHw, NextLayerHidesUnderCurrentExtraction) {
  // The Fig. 3 concurrency argument: resizing layer k+1 (output pixels)
  // always fits inside streaming layer k (input pixels) for scale > 1.
  const ImageU8 img(640, 480, 7);
  ImageResizerHw hw;
  hw.resize(img, 533, 400);
  EXPECT_TRUE(ImageResizerHw::hidden_under_extraction(
      hw.report().cycles, img.pixel_count()));
}

}  // namespace
}  // namespace eslam
