// Shared pieces of the layered benchmark: seeded inputs, the crime dataset
// set-up, sample statistics and the run report.
#ifndef KDV_PERFBENCH_COMMON_H_
#define KDV_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluator.h"
#include "core/kdv_runner.h"
#include "geom/point.h"
#include "util/thread_pool.h"
#include "viz/pixel_grid.h"
#include "workbench/workbench.h"

namespace pb {

// Seconds on the steady clock.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// SplitMix64: the benchmark's own generator, so its inputs do not change
// when the library's RNG does.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

// Independent stream `stream` of the workload seed.
inline uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  Rng r(seed * 0x100000001B3ull + stream);
  return r.Next();
}

// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string report_dir;  // empty: no report file
  bool counters_only = false;
};

// Parameters shared by the workloads. Everything not set by a workload
// keeps the library default.
constexpr int kFrameThreads = 4;       // caller + 3 helpers per frame
constexpr double kEps = 0.01;          // viewport-eps ε (paper Fig. 14)
constexpr int kSetupRepeats = 5;       // set-ups per run, median reported
constexpr uint64_t kHeldOutSeed = 7919;  // reserved for later gain claims

// The crime analogue at full paper scale, indexed for QUAD/Gaussian.
struct Dataset {
  std::unique_ptr<kdv::Workbench> bench;
  std::unique_ptr<kdv::KdeEvaluator> eval;
};

struct SetupTimes {
  double generate_s = 0.0;
  double build_s = 0.0;
  double total_s = 0.0;
};

kdv::PointSet GenerateCrime();
// Indexes `points` (Workbench defaults, Gaussian kernel, QUAD bounds).
Dataset BuildDataset(kdv::PointSet points);

// One run's output: the result line plus the detail written to the report
// file (configuration, counters, registry snapshots, spans).
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Counter(const std::string& name, uint64_t value);
  void Config(const std::string& key, const std::string& value);
  void Config(const std::string& key, double value);
  void Snapshot(const std::string& step);  // current obs registry state
  void Attempt(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  // False (and a message on stderr) if a metric is not finite. run.py
  // orders the metrics as BENCHMARK.json lists them and checks their names.
  bool AllFinite() const;
  // Human-readable lines on stdout, then the one-line result last.
  void Print() const;
  // Full JSON report; returns false if the file could not be written.
  bool Write(const std::string& path, const std::string& spans_json) const;
  const std::vector<std::pair<std::string, uint64_t>>& counters() const {
    return counters_;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, uint64_t>> counters_;
  std::vector<std::pair<std::string, std::string>> config_;  // pre-rendered
  std::vector<std::pair<std::string, std::string>> snapshots_;
};

// Adds the work counters of `s` to *into.
void AddWork(kdv::BatchStats* into, const kdv::BatchStats& s);

// Records the exact work counters of the counted frames (tiles) in
// *report, both as counters and as the core.*_per_px / count.* metrics.
void ReportWork(const kdv::BatchStats& counted, Report* report);

// A rendered pixel kept for the exact check after the timed window.
struct PixelSample {
  const kdv::KdeEvaluator* eval = nullptr;  // what the pixel was rendered on
  kdv::Point q;
  double value = 0.0;  // εKDV estimate, or 1/0 for a τKDV mask bit
  double eps = 0.0;    // certified ε of the estimate
  size_t op = 0;       // frame or request index
};

// EvaluateExact of every sample on its evaluator, over kFrameThreads
// threads; 0 where the evaluator is unknown.
std::vector<double> ExactValues(const std::vector<PixelSample>& samples);

// Layer probes shared by every workload (layers.cc). Each times calls into
// one module's public functions on inputs drawn from the workload.
struct ProbeInput {
  const kdv::KdeEvaluator* eval = nullptr;
  std::vector<kdv::PixelGrid> grids;  // the workload's own viewports
  bool tau_mode = false;
  double eps = kEps;
  double tau = 0.0;
  uint64_t seed = 1;
  kdv::Executor* pool = nullptr;  // frame helpers (kFrameThreads - 1)
};
void RunLayerProbes(const ProbeInput& in, Report* report);

// Peak resident set size of this process, MB.
double PeakRssMb();

// Workload entry points. Each fills `report` with its metrics.
int RunFrameWorkload(const Args& args, bool tau_mode, Report* report);
int RunServeWorkload(const Args& args, Report* report);

}  // namespace pb

#endif  // KDV_PERFBENCH_COMMON_H_
