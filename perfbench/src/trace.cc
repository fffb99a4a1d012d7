#include "trace.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <vector>

#include "common.h"
#include "util/json_writer.h"

namespace pb {
namespace {

struct SpanRecord {
  const char* name;
  double start;
  double end;
  uint64_t id;
  uint64_t parent;
  uint64_t request_id;
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::mutex g_mu;
std::vector<SpanRecord> g_spans;  // guarded by g_mu
thread_local uint64_t t_current = 0;

}  // namespace

void Tracer::SetEnabled(bool on) { g_enabled.store(on); }
bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Tracer::Record(const char* name, double start, double end,
                    uint64_t parent, uint64_t request_id) {
  if (!enabled()) return;
  const uint64_t id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans.push_back({name, start, end, id, parent, request_id});
}

Span::Span(const char* name, uint64_t request_id)
    : name_(name), request_id_(request_id) {
  if (!Tracer::enabled()) return;
  parent_ = t_current;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  t_current = id_;
  start_ = Now();
}

Span::~Span() {
  if (id_ == 0) return;
  const double end = Now();
  t_current = parent_;
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans.push_back({name_, start_, end, id_, parent_, request_id_});
}

std::string Tracer::ToJson() {
  std::vector<SpanRecord> spans;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    spans = g_spans;
  }
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  // Self time: a span minus the union of its children's intervals.
  std::map<uint64_t, std::vector<std::pair<double, double>>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start, s.end});
  }
  struct Agg {
    uint64_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Agg> agg;
  const double t0 = spans.empty() ? 0.0 : spans.front().start;
  for (const SpanRecord& s : spans) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_lo = 0.0, cur_hi = -1.0;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start);
        hi = std::min(hi, s.end);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    Agg& a = agg[s.name];
    ++a.count;
    a.total += s.end - s.start;
    a.self += (s.end - s.start) - covered;
  }
  kdv::JsonWriter w;
  w.BeginObject().Key("by_name").BeginObject();
  for (const auto& [name, a] : agg) {
    w.Key(name).BeginObject();
    w.Key("count").Value(a.count);
    w.Key("total_s").Value(a.total);
    w.Key("self_s").Value(a.self);
    w.EndObject();
  }
  w.EndObject().Key("spans").BeginArray();
  for (const SpanRecord& s : spans) {
    w.BeginObject();
    w.Key("name").Value(s.name).Key("id").Value(s.id);
    w.Key("parent").Value(s.parent).Key("request_id").Value(s.request_id);
    w.Key("start_s").Value(s.start - t0).Key("end_s").Value(s.end - t0);
    w.EndObject();
  }
  w.EndArray().EndObject();
  return w.Take();
}

}  // namespace pb
