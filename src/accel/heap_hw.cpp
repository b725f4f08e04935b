#include "accel/heap_hw.h"

#include "geometry/assert.h"

namespace eslam {

FilterHeap::FilterHeap(std::size_t capacity) : capacity_(capacity) {
  ESLAM_ASSERT(capacity > 0, "heap capacity must be positive");
  items_.reserve(capacity);
}

bool FilterHeap::weaker(const Feature& a, const Feature& b) const {
  // Tie-break on detection order is irrelevant for the heap invariant;
  // plain score comparison matches the hardware comparator.
  return a.keypoint.score < b.keypoint.score;
}

void FilterHeap::sift_up(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    ++cycles_;  // one compare-exchange per level
    if (!weaker(items_[i], items_[parent])) break;
    std::swap(items_[i], items_[parent]);
    i = parent;
  }
}

void FilterHeap::sift_down(std::size_t i) {
  const std::size_t n = items_.size();
  while (true) {
    const std::size_t l = 2 * i + 1, r = 2 * i + 2;
    std::size_t smallest = i;
    ++cycles_;  // level comparison
    if (l < n && weaker(items_[l], items_[smallest])) smallest = l;
    if (r < n && weaker(items_[r], items_[smallest])) smallest = r;
    if (smallest == i) break;
    std::swap(items_[i], items_[smallest]);
    i = smallest;
  }
}

bool FilterHeap::offer(const Feature& feature) {
  ++cycles_;  // root/occupancy check
  if (items_.size() < capacity_) {
    items_.push_back(feature);
    sift_up(items_.size() - 1);
    return true;
  }
  if (!weaker(items_.front(), feature)) return false;  // weaker than the min
  items_.front() = feature;
  sift_down(0);
  return true;
}

std::int64_t FilterHeap::min_score() const {
  ESLAM_ASSERT(!items_.empty(), "heap is empty");
  return items_.front().keypoint.score;
}

void FilterHeap::drain_into(FeatureList& out) {
  out.assign(items_.begin(), items_.end());
  items_.clear();
}

}  // namespace eslam
