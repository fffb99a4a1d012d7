// kdv_perfbench: paper-scale layered benchmark over the crime analogue.
//
//   kdv_perfbench --workload viewport-eps|hotspot-tau|tile-serve --seed N
//                 --seconds S --trace 0|1 [--report-dir DIR] [--counters]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs the same workload with spans on and prints the per-layer metrics
// it measured (run.py orders them as BENCHMARK.json lists them).
// --counters prints only the exact work counters of the seed (self-test).
// The last stdout line is the one-line JSON result. A violated certificate
// or a failed render makes "failed" non-zero; a build that is not a plain
// Release build (sanitizer, failpoints) is refused with exit code 3.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "common.h"
#include "core/leaf_kernel.h"
#include "data/datasets.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "trace.h"
#include "util/atomic_file.h"
#include "util/build_info.h"
#include "util/json_writer.h"

namespace pb {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

kdv::PointSet GenerateCrime() {
  return kdv::GenerateMixture(kdv::CrimeSpec(1.0));
}

void AddWork(kdv::BatchStats* into, const kdv::BatchStats& s) {
  into->queries += s.queries;
  into->iterations += s.iterations;
  into->points_scanned += s.points_scanned;
  into->nodes_visited += s.nodes_visited;
  into->tile_nodes_visited += s.tile_nodes_visited;
  into->tiles_decided += s.tiles_decided;
  into->frontier_cache_hits += s.frontier_cache_hits;
}

void ReportWork(const kdv::BatchStats& counted, Report* report) {
  const std::pair<const char*, uint64_t> counters[] = {
      {"nodes_visited", counted.nodes_visited},
      {"iterations", counted.iterations},
      {"points_scanned", counted.points_scanned},
      {"tile_nodes_visited", counted.tile_nodes_visited},
      {"tiles_decided", counted.tiles_decided},
  };
  for (const auto& [name, value] : counters) {
    report->Counter(name, value);
    report->Metric(std::string("count.") + name, static_cast<double>(value),
                   "count");
  }
  const double px = static_cast<double>(std::max<uint64_t>(1, counted.queries));
  report->Metric("core.iters_per_px", counted.iterations / px, "count");
  report->Metric("core.node_evals_per_px", counted.nodes_visited / px,
                 "count");
  report->Metric("core.points_per_px", counted.points_scanned / px, "count");
}

std::vector<double> ExactValues(const std::vector<PixelSample>& samples) {
  Span span("check.EvaluateExact");
  std::vector<double> exact(samples.size(), 0.0);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kFrameThreads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = t; i < samples.size(); i += kFrameThreads) {
        if (samples[i].eval != nullptr) {
          exact[i] = samples[i].eval->EvaluateExact(samples[i].q);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return exact;
}

Dataset BuildDataset(kdv::PointSet points) {
  Dataset d;
  d.bench = std::make_unique<kdv::Workbench>(std::move(points),
                                             kdv::KernelType::kGaussian);
  d.eval = std::make_unique<kdv::KdeEvaluator>(
      d.bench->MakeEvaluator(kdv::Method::kQuad));
  return d;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Counter(const std::string& name, uint64_t value) {
  counters_.push_back({name, value});
}

void Report::Config(const std::string& key, const std::string& value) {
  config_.push_back({key, "\"" + kdv::JsonEscaped(value) + "\""});
}

void Report::Config(const std::string& key, double value) {
  config_.push_back({key, kdv::JsonNumber(value)});
}

void Report::Snapshot(const std::string& step) {
  snapshots_.push_back(
      {step, kdv::obs::ExportJson(kdv::obs::MetricsRegistry::Global().Snapshot())});
}

void Report::Print() const {
  for (const auto& [key, value] : config_) {
    std::printf("config %s = %s\n", key.c_str(), value.c_str());
  }
  for (const auto& [name, value] : counters_) {
    std::printf("counter %s = %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  for (const Entry& m : metrics_) {
    std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("attempted %llu failed %llu correct %s\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              correct ? "true" : "false");
  kdv::JsonWriter w;
  w.BeginObject();
  w.Key("correct").Value(correct);
  w.Key("attempted").Value(attempted);
  w.Key("failed").Value(failed);
  w.Key("metrics").BeginObject();
  for (const Entry& m : metrics_) {
    w.Key(m.name).BeginObject();
    w.Key("value").Value(m.value).Key("unit").Value(m.unit);
    w.EndObject();
  }
  w.EndObject().EndObject();
  std::printf("%s\n", w.Take().c_str());
  std::fflush(stdout);
}

bool Report::Write(const std::string& path,
                   const std::string& spans_json) const {
  kdv::JsonWriter w;
  w.BeginObject();
  w.Key("config").BeginObject();
  for (const auto& [key, value] : config_) w.Key(key).Raw(value);
  w.EndObject();
  w.Key("correct").Value(correct);
  w.Key("attempted").Value(attempted).Key("failed").Value(failed);
  w.Key("counters").BeginObject();
  for (const auto& [name, value] : counters_) w.Key(name).Value(value);
  w.EndObject();
  w.Key("metrics").BeginObject();
  for (const Entry& m : metrics_) {
    w.Key(m.name).BeginObject();
    w.Key("value").Value(m.value).Key("unit").Value(m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.Key("registry_snapshots").BeginArray();
  for (const auto& [step, json] : snapshots_) {
    w.BeginObject().Key("step").Value(step).Key("snapshot").Raw(json);
    w.EndObject();
  }
  w.EndArray();
  w.Key("trace").Raw(spans_json.empty() ? "null" : spans_json);
  w.EndObject();
  return kdv::AtomicWriteFile(path, w.Take()).ok();
}

bool Report::AllFinite() const {
  for (const Entry& m : metrics_) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "kdv_perfbench: bad metric %s = %g\n",
                   m.name.c_str(), m.value);
      return false;
    }
  }
  return true;
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "kdv_perfbench: %s\nusage: kdv_perfbench --workload "
               "viewport-eps|hotspot-tau|tile-serve --seed N --seconds S "
               "--trace 0|1 [--report-dir DIR] [--counters]\n",
               msg);
  return 2;
}

bool ParseUint(const char* s, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  pb::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--counters") {
      args.counters_only = true;
      continue;
    }
    if (i + 1 >= argc) return pb::Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    uint64_t u = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!pb::ParseUint(value, &u)) return pb::Usage("bad --seed");
      args.seed = u;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args.seconds > 0.0) ||
          args.seconds > 600.0) {
        return pb::Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (!pb::ParseUint(value, &u) || u > 1) return pb::Usage("bad --trace");
      args.trace = u == 1;
    } else if (flag == "--report-dir") {
      args.report_dir = value;
    } else {
      return pb::Usage(("unknown flag " + flag).c_str());
    }
  }
  const bool tau_mode = args.workload == "hotspot-tau";
  if (args.workload != "viewport-eps" && !tau_mode &&
      args.workload != "tile-serve") {
    return pb::Usage("unknown --workload");
  }

  // Numbers from a debug, sanitizer or failpoints build are not comparable
  // with anything; refuse them outright.
  const kdv::BuildInfo& build = kdv::GetBuildInfo();
  if (std::strcmp(build.build_type, "Release") != 0 ||
      std::strcmp(build.sanitizer, "OFF") != 0 || build.failpoints) {
    std::fprintf(stderr,
                 "kdv_perfbench: refusing to measure a non-Release build: "
                 "%s\n",
                 kdv::BuildStamp().c_str());
    return 3;
  }

  pb::Report report;
  report.Config("workload", args.workload);
  report.Config("seed", static_cast<double>(args.seed));
  report.Config("held_out_seed", static_cast<double>(pb::kHeldOutSeed));
  report.Config("seconds", args.seconds);
  report.Config("trace", args.trace ? 1.0 : 0.0);
  report.Config("build", kdv::BuildStamp());
  report.Config("simd", kdv::SimdLevelName(kdv::ActiveSimdLevel()));
  report.Config("nproc",
                static_cast<double>(std::thread::hardware_concurrency()));
  report.Config("cpu", pb::CpuModel());

  pb::Tracer::SetEnabled(false);
  kdv::obs::MetricsRegistry::Global().Reset();
  const int rc = args.workload == "tile-serve"
                     ? pb::RunServeWorkload(args, &report)
                     : pb::RunFrameWorkload(args, tau_mode, &report);
  if (rc != 0) return rc;
  report.correct = report.failed == 0;
  if (!args.counters_only && !report.AllFinite()) return 1;
  pb::Tracer::SetEnabled(false);

  if (args.counters_only) {
    kdv::JsonWriter w;
    w.BeginObject();
    for (const auto& [name, value] : report.counters()) w.Key(name).Value(value);
    w.EndObject();
    std::printf("%s\n", w.Take().c_str());
    return 0;
  }
  if (!args.report_dir.empty()) {
    const std::string path = args.report_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             (args.trace ? "1" : "0") + ".json";
    if (!report.Write(path, args.trace ? pb::Tracer::ToJson() : "")) {
      std::fprintf(stderr, "kdv_perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("report %s\n", path.c_str());
  }
  report.Print();
  return 0;
}
