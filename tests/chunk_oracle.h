// The frame engine's pixel contract (viz/parallel_render.h), written out as
// an independent loop: chunk by chunk, one region pass over the hull of the
// chunk's pixel centers, then every pixel either takes the decided fill or
// runs its own stream seeded from the chunk frontier (root-seeded when the
// pass faulted, or when the evaluator has no bounds or a non-2-d index).
// No engine code runs here, so an engine frame that equals this one bit for
// bit keeps the contract at any thread count, order or cache state.
#ifndef QUADKDV_TESTS_CHUNK_ORACLE_H_
#define QUADKDV_TESTS_CHUNK_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/evaluator.h"
#include "core/kdv_runner.h"
#include "core/tile_refiner.h"
#include "util/cancel.h"
#include "viz/pixel_grid.h"

namespace kdv {

// Calls visit(q, tf, idx) for every pixel of the grid, chunk by chunk;
// `tf` is the chunk's frontier, or null when the pixel is root-seeded.
// Region-pass counters go into *stats.
template <typename Visit>
void ForEachChunkPixel(const KdeEvaluator& evaluator, const PixelGrid& grid,
                       bool eps_mode, double param, int tile_rows,
                       BatchStats* stats, const Visit& visit) {
  const int rows = std::clamp(tile_rows, 1, grid.height());
  const int cols = std::min(rows, grid.width());
  const bool regions =
      evaluator.bounds() != nullptr && evaluator.tree().dim() == 2;
  for (int y0 = 0; y0 < grid.height(); y0 += rows) {
    const int y1 = std::min(y0 + rows, grid.height());
    for (int x0 = 0; x0 < grid.width(); x0 += cols) {
      const int x1 = std::min(x0 + cols, grid.width());
      TileFrontier tf;
      if (regions) {
        const TileRefiner refiner(&evaluator.tree(), evaluator.params(),
                                  evaluator.bounds());
        Rect rect(2);
        rect.Expand(grid.PixelCenter(x0, y1 - 1));
        rect.Expand(grid.PixelCenter(x1 - 1, y0));
        tf = eps_mode ? refiner.BuildEps(rect, param)
                      : refiner.BuildTau(rect, param);
        stats->tile_nodes_visited += tf.nodes_visited;
        if (tf.valid && tf.decided) ++stats->tiles_decided;
      }
      for (int y = y0; y < y1; ++y) {
        for (int x = x0; x < x1; ++x) {
          visit(grid.PixelCenter(x, y), tf.valid ? &tf : nullptr,
                grid.PixelIndex(x, y));
        }
      }
    }
  }
}

inline std::vector<double> ChunkOracleEps(const KdeEvaluator& evaluator,
                                          const PixelGrid& grid, double eps,
                                          int tile_rows,
                                          BatchStats* stats = nullptr) {
  BatchStats local;
  if (stats == nullptr) stats = &local;
  std::vector<double> out(grid.num_pixels());
  RefinementStream scratch = evaluator.MakeScratch();
  ForEachChunkPixel(
      evaluator, grid, /*eps_mode=*/true, eps, tile_rows, stats,
      [&](const Point& q, const TileFrontier* tf, size_t idx) {
        if (tf != nullptr && tf->decided) {
          out[idx] = tf->decided_value;
          ++stats->queries;
          return;
        }
        EvalResult r =
            tf != nullptr ? evaluator.EvaluateEpsSeeded(q, eps, *tf,
                                                        QueryControl(),
                                                        &scratch)
                          : evaluator.EvaluateEps(q, eps);
        AccumulateQueryStats(stats, r);
        out[idx] = r.estimate;
      });
  return out;
}

inline std::vector<uint8_t> ChunkOracleTau(const KdeEvaluator& evaluator,
                                           const PixelGrid& grid, double tau,
                                           int tile_rows,
                                           BatchStats* stats = nullptr) {
  BatchStats local;
  if (stats == nullptr) stats = &local;
  std::vector<uint8_t> out(grid.num_pixels());
  RefinementStream scratch = evaluator.MakeScratch();
  ForEachChunkPixel(
      evaluator, grid, /*eps_mode=*/false, tau, tile_rows, stats,
      [&](const Point& q, const TileFrontier* tf, size_t idx) {
        if (tf != nullptr && tf->decided) {
          out[idx] = tf->decided_above ? 1 : 0;
          ++stats->queries;
          return;
        }
        TauResult r =
            tf != nullptr ? evaluator.EvaluateTauSeeded(q, tau, *tf,
                                                        QueryControl(),
                                                        &scratch)
                          : evaluator.EvaluateTau(q, tau);
        AccumulateQueryStats(stats, r);
        out[idx] = r.above_threshold ? 1 : 0;
      });
  return out;
}

}  // namespace kdv

#endif  // QUADKDV_TESTS_CHUNK_ORACLE_H_
