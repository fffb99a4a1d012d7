#include "progressive/progressive.h"

#include "util/check.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace kdv {

std::vector<RegionOp> QuadTreeSchedule(int width, int height) {
  KDV_CHECK(width > 0 && height > 0);
  // The schedule is its own breadth-first queue (coarse levels first): op i
  // appends its children, which are visited after every op already queued.
  std::vector<RegionOp> schedule;
  schedule.reserve(static_cast<size_t>(width) * height * 4 / 3 + 4);
  auto push = [&schedule](int x0, int y0, int x1, int y1) {
    schedule.push_back(
        {x0, y0, x1, y1, x0 + (x1 - x0) / 2, y0 + (y1 - y0) / 2});
  };
  push(0, 0, width, height);
  for (size_t i = 0; i < schedule.size(); ++i) {
    const RegionOp r = schedule[i];  // a copy: push may reallocate
    const int mx = r.cx;
    const int my = r.cy;
    // Split into up to four children. Degenerate strips (w==1 or h==1)
    // split along the long axis only; single pixels are leaves.
    const bool split_x = r.x1 - r.x0 > 1;
    const bool split_y = r.y1 - r.y0 > 1;
    if (split_x && split_y) {
      push(r.x0, r.y0, mx, my);
      push(mx, r.y0, r.x1, my);
      push(r.x0, my, mx, r.y1);
      push(mx, my, r.x1, r.y1);
    } else if (split_x) {
      push(r.x0, r.y0, mx, r.y1);
      push(mx, r.y0, r.x1, r.y1);
    } else if (split_y) {
      push(r.x0, r.y0, r.x1, my);
      push(r.x0, my, r.x1, r.y1);
    }
  }
  return schedule;
}

std::vector<RegionOp> RowMajorSchedule(int width, int height) {
  KDV_CHECK(width > 0 && height > 0);
  std::vector<RegionOp> schedule;
  schedule.reserve(static_cast<size_t>(width) * height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      schedule.push_back({x, y, x + 1, y + 1, x, y});
    }
  }
  return schedule;
}

ProgressiveResult RenderProgressive(const KdeEvaluator& evaluator,
                                    const PixelGrid& grid, double eps,
                                    const QueryControl& control,
                                    const std::vector<RegionOp>& schedule,
                                    const RenderOptions& options,
                                    Executor* pool) {
  ProgressiveResult result;
  Status entry = KDV_FAILPOINT_STATUS("progressive.render");
  if (!entry.ok()) {
    // Injected entry fault: the (all-zero, finite) frame is still well
    // formed for the degradation ladder.
    result.frame = DensityFrame(grid.width(), grid.height());
    result.stats.completed = false;
    result.stats.status = entry;
    return result;
  }

  // First-visit order of the representatives: a pixel a coarser level
  // already evaluated keeps its value for the finer ops that share it.
  std::vector<uint8_t> evaluated(grid.num_pixels(), 0);
  std::vector<uint32_t> order;
  order.reserve(schedule.size());
  for (const RegionOp& op : schedule) {
    const size_t idx = grid.PixelIndex(op.cx, op.cy);
    if (evaluated[idx]) continue;
    evaluated[idx] = 1;
    order.push_back(static_cast<uint32_t>(idx));
  }
  result.frame = RenderEpsFrameInOrder(evaluator, grid, eps, order, options,
                                       pool, control, &result.stats,
                                       &evaluated);
  // Hardening backstop: a frame value must never be NaN/Inf.
  result.stats.numeric_faults += ScrubNonFinite(&result.frame);
  for (uint8_t e : evaluated) result.pixels_evaluated += e;
  result.fully_painted =
      result.stats.completed ||
      (!schedule.empty() &&
       evaluated[grid.PixelIndex(schedule[0].cx, schedule[0].cy)]);
  if (result.pixels_evaluated == grid.num_pixels()) return result;

  // Paint each evaluated representative over the unevaluated pixels of its
  // region; finer ops come later and overwrite coarser ones.
  for (const RegionOp& op : schedule) {
    const size_t center = grid.PixelIndex(op.cx, op.cy);
    if (!evaluated[center]) continue;
    const double value = result.frame.values[center];
    for (int y = op.y0; y < op.y1; ++y) {
      for (int x = op.x0; x < op.x1; ++x) {
        const size_t idx = grid.PixelIndex(x, y);
        if (!evaluated[idx]) result.frame.values[idx] = value;
      }
    }
  }
  return result;
}

ProgressiveResult RenderProgressive(const KdeEvaluator& evaluator,
                                    const PixelGrid& grid, double eps,
                                    double budget_seconds,
                                    const std::vector<RegionOp>& schedule) {
  Deadline deadline(budget_seconds);
  QueryControl control;
  control.deadline = &deadline;
  return RenderProgressive(evaluator, grid, eps, control, schedule,
                           RenderOptions(), nullptr);
}

ProgressiveResult RenderProgressive(const KdeEvaluator& evaluator,
                                    const PixelGrid& grid, double eps,
                                    double budget_seconds) {
  return RenderProgressive(evaluator, grid, eps, budget_seconds,
                           QuadTreeSchedule(grid.width(), grid.height()));
}

}  // namespace kdv
