#include "features/nms.h"

#include <cstddef>
#include <limits>

#include "geometry/assert.h"

namespace eslam {

std::vector<Keypoint> nms_3x3(const std::vector<Keypoint>& keypoints,
                              int width, int height) {
  NmsScratch scratch;
  std::vector<Keypoint> out;
  nms_3x3_into(keypoints, width, height, scratch, out);
  return out;
}

void nms_3x3_into(const std::vector<Keypoint>& keypoints, int width,
                  int height, NmsScratch& scratch,
                  std::vector<Keypoint>& out) {
  const std::int64_t stride = std::int64_t{width} + 2;
  const std::int64_t cells = stride * (std::int64_t{height} + 2);
  if (static_cast<std::int64_t>(scratch.grid.size()) < cells)
    scratch.grid.assign(static_cast<std::size_t>(cells), -1);
  std::int32_t* grid = scratch.grid.data();
  auto cell = [stride](const Keypoint& kp) {
    return static_cast<std::size_t>((kp.y + std::int64_t{1}) * stride + kp.x +
                                    1);
  };
  const std::size_t n = keypoints.size();
  if (scratch.scores.size() < n + 1) scratch.scores.resize(n + 1);
  std::int64_t* scores = scratch.scores.data();
  scores[0] = std::numeric_limits<std::int64_t>::min();

  // Filling in reverse leaves the first keypoint at each pixel in its cell.
  for (std::size_t i = n; i-- > 0;) {
    const Keypoint& kp = keypoints[i];
    ESLAM_ASSERT(kp.x >= 0 && kp.x < width && kp.y >= 0 && kp.y < height,
                 "keypoint outside grid");
    grid[cell(kp)] = static_cast<std::int32_t>(i);
    scores[i + 1] = kp.score;
  }

  // A neighbour suppresses keypoint i when its score is strictly greater,
  // or equal and it came earlier (the streaming hardware emits the first
  // maximal candidate it sees).  Empty cells gather the INT64_MIN sentinel
  // and index -1, which neither test can pass.
  const std::ptrdiff_t s = static_cast<std::ptrdiff_t>(stride);
  const std::ptrdiff_t neighbours[8] = {-s - 1, -s, -s + 1, -1,
                                        1,      s - 1, s, s + 1};
  out.clear();
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t* c = grid + cell(keypoints[i]);
    const std::int64_t me = scores[i + 1];
    const std::int32_t self = static_cast<std::int32_t>(i);
    bool gt = false, tie = false;
    for (const std::ptrdiff_t off : neighbours) {
      const std::int32_t j = c[off];
      const std::int64_t other = scores[j + 1];
      gt |= other > me;
      tie |= (other == me) & (j >= 0) & (j < self);
    }
    if (!(gt | tie)) out.push_back(keypoints[i]);
  }

  // Restore the touched cells so the next call starts empty.
  for (const Keypoint& kp : keypoints) grid[cell(kp)] = -1;
}

}  // namespace eslam
