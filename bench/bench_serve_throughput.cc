// Serving throughput: closed-loop load against RenderService, swept over
// worker-thread counts. Seeds the perf trajectory for the concurrent
// serving layer: requests/sec plus p50/p99 end-to-end latency per thread
// count, printed as a table and written to BENCH_serve.json (in the
// working directory) for machine consumption.
//
// Each sweep runs 2x(threads) closed-loop clients: every client submits a
// request, waits for its outcome, and immediately submits the next, so the
// service is always saturated but never oversubscribed past the admission
// window (a shed request is simply retried). Scaling knobs: KDV_BENCH_SCALE,
// KDV_BENCH_PIXELS (bench_common.h) and KDV_BENCH_SERVE_REQUESTS.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_common.h"

namespace {

using kdv::RenderService;
using kdv::ServeOutcome;
using kdv::ServeRequestOptions;
using kdv::StatusCode;
using kdv::StatusOr;

int RequestsPerSweep() {
  const char* env = std::getenv("KDV_BENCH_SERVE_REQUESTS");
  if (env != nullptr) {
    int v = std::atoi(env);
    if (v >= 1) return v;
  }
  return 200;
}

std::string BenchDir() {
  const char* env = std::getenv("KDV_BENCH_DIR");
  if (env != nullptr && env[0] != '\0') return env;
  return ".";
}

// Nearest-rank percentile of an ascending-sorted sample.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(p * (sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

struct SweepResult {
  int threads = 0;
  int requests = 0;
  uint64_t shed_retries = 0;
  double wall_seconds = 0.0;
  double rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t browned = 0;  // requests served below their asked tier
  uint64_t shed = 0;     // submits rejected (admission or governor ceiling)
  uint64_t cache_hits = 0;  // chunk-frontier cache hits
};

// `oversubscribe` multiplies the closed-loop client count per worker (2 is
// the saturated-but-admittable baseline; 4 is sustained overload).
// `governor` arms the brownout governor; `certified_seconds` (one measured
// full-quality render) calibrates its queue-wait saturation to the
// workload: 4x oversubscription queues ~3 renders' worth of wait, so a
// saturation of 4x one render puts the sustained overload in the brownout
// band rather than past the shed ceiling.
SweepResult RunSweep(const kdv::KdeEvaluator& evaluator,
                     const kdv::PixelGrid& grid, int threads, int requests,
                     int oversubscribe, bool governor,
                     double certified_seconds) {
  RenderService::Options options;
  options.num_threads = threads;
  options.max_queue = static_cast<size_t>(2 * threads);
  if (governor) {
    options.governor.enabled = true;
    options.governor.queue_wait_saturation_seconds =
        std::max(4.0 * certified_seconds, 0.01);
  }
  RenderService service(&evaluator, options);

  const int clients = oversubscribe * threads;
  std::atomic<int> next{0};
  std::atomic<uint64_t> shed_retries{0};
  std::mutex mu;
  std::vector<double> latencies_ms;

  kdv::Timer wall;
  std::vector<std::thread> swarm;
  for (int c = 0; c < clients; ++c) {
    swarm.emplace_back([&, c] {
      // Client-side retry pacing for shed requests; deterministic per client.
      kdv::Backoff shed_backoff({0.2, 2.0, 5.0, 0.5}, 0xBE9C4u + c);
      std::vector<double> local_ms;
      while (true) {
        if (next.fetch_add(1) >= requests) break;
        kdv::Timer request_timer;
        ServeRequestOptions request;
        request.eps = 0.05;
        while (true) {
          StatusOr<std::future<ServeOutcome>> ticket =
              service.Submit(grid, request);
          if (ticket.ok()) {
            (void)ticket->get();
            local_ms.push_back(request_timer.ElapsedSeconds() * 1000.0);
            shed_backoff.Reset();
            break;
          }
          // Closed-loop client: a shed request is retried until admitted.
          shed_retries.fetch_add(1);
          double delay = shed_backoff.NextDelayMs();
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(delay));
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      latencies_ms.insert(latencies_ms.end(), local_ms.begin(),
                          local_ms.end());
    });
  }
  for (std::thread& t : swarm) t.join();
  double wall_seconds = wall.ElapsedSeconds();
  service.Stop();
  const kdv::ServiceStats stats = service.stats();

  std::sort(latencies_ms.begin(), latencies_ms.end());
  SweepResult result;
  result.threads = threads;
  result.requests = static_cast<int>(latencies_ms.size());
  result.shed_retries = shed_retries.load();
  result.wall_seconds = wall_seconds;
  result.rps = wall_seconds > 0.0 ? latencies_ms.size() / wall_seconds : 0.0;
  result.p50_ms = Percentile(latencies_ms, 0.50);
  result.p99_ms = Percentile(latencies_ms, 0.99);
  result.browned = stats.brownout_applied;
  result.shed = stats.shed;
  result.cache_hits = stats.frontier_cache_hits;
  return result;
}

}  // namespace

int main() {
  using namespace kdv;
  kdv_bench::PrintHeader("Serve", "RenderService closed-loop throughput vs "
                                  "worker threads (crime analogue, eps=0.05)");

  Workbench bench(GenerateMixture(CrimeSpec(kdv_bench::BenchScale())),
                  KernelType::kGaussian);
  KdeEvaluator evaluator = bench.MakeEvaluator(Method::kQuad);
  PixelGrid grid = kdv_bench::MakeGrid(bench.data_bounds());
  const int requests = RequestsPerSweep();

  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<int> thread_counts = {1, 2, 4, 8};
  thread_counts.erase(
      std::remove_if(thread_counts.begin(), thread_counts.end(),
                     [&](int t) { return hw != 0 && t > static_cast<int>(2 * hw); }),
      thread_counts.end());

  // Saturated closed loop. Every request renders the same viewport, so the
  // epoch's frontier cache serves all but the cold frames' region passes.
  std::printf("\n%8s %10s %12s %10s %10s %12s %10s\n", "threads",
              "requests", "req/sec", "p50(ms)", "p99(ms)", "shed-retry",
              "cache-hit");
  // Calibration render for the governor sweeps below.
  Timer certified_timer;
  (void)RenderEpsFrameParallel(evaluator, grid, 0.05, {}, nullptr, {}, nullptr);
  const double certified_seconds = certified_timer.ElapsedSeconds();

  std::vector<SweepResult> results;
  for (int threads : thread_counts) {
    SweepResult r = RunSweep(evaluator, grid, threads, requests,
                             /*oversubscribe=*/2, /*governor=*/false,
                             certified_seconds);
    results.push_back(r);
    std::printf("%8d %10d %12.1f %10.2f %10.2f %12llu %10llu\n",
                r.threads, r.requests, r.rps, r.p50_ms, r.p99_ms,
                static_cast<unsigned long long>(r.shed_retries),
                static_cast<unsigned long long>(r.cache_hits));
  }

  // Overload sweeps: 4x oversubscribed, admission control alone vs the
  // brownout governor. The interesting deltas: with the governor armed,
  // browned-out (degraded-tier) serving replaces shed-retry churn, so
  // throughput holds and tail latency shrinks under identical load.
  std::printf("\n%8s %10s %12s %10s %10s %10s %10s  (4x overload)\n",
              "threads", "governor", "req/sec", "p50(ms)", "p99(ms)",
              "browned", "shed");
  std::vector<SweepResult> overload_results;
  std::vector<bool> overload_governor;
  for (int threads : thread_counts) {
    for (bool governor : {false, true}) {
      SweepResult r = RunSweep(evaluator, grid, threads, requests,
                               /*oversubscribe=*/4, governor,
                               certified_seconds);
      overload_results.push_back(r);
      overload_governor.push_back(governor);
      std::printf("%8d %10s %12.1f %10.2f %10.2f %10llu %10llu\n", r.threads,
                  governor ? "on" : "off", r.rps, r.p50_ms, r.p99_ms,
                  static_cast<unsigned long long>(r.browned),
                  static_cast<unsigned long long>(r.shed));
    }
  }

  // Stream to a temp and publish atomically: a crashed or interrupted bench
  // never leaves a truncated BENCH_serve.json for CI to parse.
  const std::string json_path = BenchDir() + "/BENCH_serve.json";
  const std::string json_temp = kdv::TempPathFor(json_path);
  std::FILE* json = std::fopen(json_temp.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_temp.c_str());
    return 1;
  }
  std::fprintf(json, "{\"bench\":\"serve_throughput\",");
  std::fprintf(json, "\"build\":\"%s\",\"simd\":\"%s\",",
               kdv::BuildStamp().c_str(),
               SimdLevelName(ActiveSimdLevel()));
  std::fprintf(json, "\"dataset\":\"crime\",\"scale\":%.6g,",
               kdv_bench::BenchScale());
  std::fprintf(json, "\"width\":%d,\"height\":%d,\"eps\":0.05,",
               grid.width(), grid.height());
  std::fprintf(json, "\"requests_per_sweep\":%d,\"sweeps\":[", requests);
  for (size_t i = 0; i < results.size(); ++i) {
    const SweepResult& r = results[i];
    std::fprintf(json,
                 "%s{\"threads\":%d,\"requests\":%d,"
                 "\"wall_seconds\":%.6f,\"requests_per_sec\":%.3f,"
                 "\"latency_p50_ms\":%.4f,\"latency_p99_ms\":%.4f,"
                 "\"shed_retries\":%llu,\"frontier_cache_hits\":%llu}",
                 i == 0 ? "" : ",", r.threads, r.requests, r.wall_seconds,
                 r.rps, r.p50_ms, r.p99_ms,
                 static_cast<unsigned long long>(r.shed_retries),
                 static_cast<unsigned long long>(r.cache_hits));
  }
  std::fprintf(json, "],\"overload_sweeps\":[");
  for (size_t i = 0; i < overload_results.size(); ++i) {
    const SweepResult& r = overload_results[i];
    std::fprintf(json,
                 "%s{\"threads\":%d,\"governor\":%s,\"requests\":%d,"
                 "\"wall_seconds\":%.6f,\"requests_per_sec\":%.3f,"
                 "\"latency_p50_ms\":%.4f,\"latency_p99_ms\":%.4f,"
                 "\"shed_retries\":%llu,\"browned\":%llu,\"shed\":%llu}",
                 i == 0 ? "" : ",", r.threads,
                 overload_governor[i] ? "true" : "false", r.requests,
                 r.wall_seconds, r.rps, r.p50_ms, r.p99_ms,
                 static_cast<unsigned long long>(r.shed_retries),
                 static_cast<unsigned long long>(r.browned),
                 static_cast<unsigned long long>(r.shed));
  }
  std::fprintf(json, "],");
  // Observability block: the process metric registry after every sweep —
  // queue-wait/request/backoff quantiles from the serve instrumentation
  // (pre-escaped JSON from JsonWriter).
  std::fprintf(json, "\"metrics\":%s}\n",
               kdv_bench::MetricsBlockJson().c_str());
  std::fclose(json);
  kdv::Status published = kdv::AtomicPublish(json_temp, json_path);
  if (!published.ok()) {
    std::fprintf(stderr, "cannot publish %s: %s\n", json_path.c_str(),
                 published.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
