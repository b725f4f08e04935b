// The paper's ping-pong Image Cache (Figure 5): 3 cache lines, each holding
// 8 columns of pixels.  A finite-state machine rotates which line receives
// input while the other two feed the processing window; the FSM is
// initialized by pre-storing 16 columns into lines A and B.
//
// This structural model is what the cache unit tests and the Fig. 5 trace
// bench exercise; the extractor simulation uses its fill/advance counters
// for cycle accounting and its geometry for BRAM sizing.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "geometry/assert.h"

namespace eslam {

struct CacheFsmEvent {
  int state = 0;            // FSM state counter (increments per rotation)
  int receiving_line = 0;   // 0 = A, 1 = B, 2 = C
  std::array<int, 2> outputting_lines{};  // the other two lines
};

class LineBufferCache {
 public:
  static constexpr int kLines = 3;
  static constexpr int kColumnsPerLine = 8;

  // `height` is the image height (pixels per column).
  explicit LineBufferCache(int height);

  // Feeds one column of pixels (size must equal height).  Costs `height`
  // cycles of input bandwidth (1 pixel/cycle).  Returns true when this
  // column completed a line and the FSM rotated.
  bool push_column(const std::vector<std::uint8_t>& column);

  // True once 16 columns (two full lines) are pre-stored — the condition
  // for the pipeline downstream to start consuming.
  bool window_ready() const { return completed_lines_ >= 2; }

  // Pixel access inside the current 16-column output window.
  // `col` in [0, 16): 0 is the oldest retained column.
  std::uint8_t window_pixel(int col, int row) const;

  // Absolute index (in pushed columns) of window column 0.
  int window_start_column() const;

  int height() const { return height_; }
  int state() const { return state_; }
  int receiving_line() const { return write_line_; }
  std::uint64_t fill_cycles() const { return fill_cycles_; }

  // FSM rotation history (for the Figure 5 trace).
  const std::vector<CacheFsmEvent>& trace() const { return trace_; }

  // On-chip storage the cache occupies, in bits (BRAM sizing).
  std::size_t storage_bits() const { return storage_bits_for(height_); }
  // The same for a cache of `height` pixels per column, without building
  // one.
  static std::size_t storage_bits_for(int height) {
    return static_cast<std::size_t>(kLines) * kColumnsPerLine *
           static_cast<std::size_t>(height) * 8;
  }

 private:
  int height_;
  // line -> column-within-line -> pixel rows.
  std::array<std::vector<std::uint8_t>, kLines> lines_;
  int write_line_ = 0;
  int columns_in_write_line_ = 0;
  int completed_lines_ = 0;  // total lines completed since reset
  int state_ = 0;
  std::uint64_t fill_cycles_ = 0;
  int total_columns_ = 0;
  std::vector<CacheFsmEvent> trace_;
};

}  // namespace eslam
