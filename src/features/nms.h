// 3x3 non-maximum suppression over keypoint scores (paper's NMS module):
// keeps a keypoint only when its Harris score is the maximum within its
// 3x3 pixel neighbourhood.
#pragma once

#include <vector>

#include "features/keypoint.h"

namespace eslam {

// Suppresses keypoints that are not the local score maximum.  `width` and
// `height` bound the coordinate grid; the input may come in any order.  Only
// the first keypoint at a pixel is seen by its neighbours, and ties go to the
// lower index (for a raster-order input, the earlier pixel), matching the
// streaming hardware which emits the first maximal candidate it sees.
std::vector<Keypoint> nms_3x3(const std::vector<Keypoint>& keypoints,
                              int width, int height);

// Reusable scratch for nms_3x3_into, grown to the largest image and
// keypoint count seen, so repeated calls never allocate.  Own one per
// extractor.
struct NmsScratch {
  // Keypoint index per pixel of a (width + 2) x (height + 2) grid padded by
  // one empty cell on every side, so the 8 neighbours of any in-image pixel
  // are in-grid cells of its own row band.  -1 = empty; restored to -1 after
  // every call.
  std::vector<std::int32_t> grid;
  // scores[0] = INT64_MIN (what an empty cell gathers through index -1),
  // scores[i + 1] = keypoints[i].score.
  std::vector<std::int64_t> scores;
};

// Same suppression into recycled buffers (nms_3x3 wraps this with a fresh
// scratch).
void nms_3x3_into(const std::vector<Keypoint>& keypoints, int width,
                  int height, NmsScratch& scratch, std::vector<Keypoint>& out);

}  // namespace eslam
