// In-memory spans recorded by the benchmark around its calls into the
// library (name, start, end, parent, request id). Nothing is traced inside
// the library itself. Off by default; a span costs one branch when off.
#ifndef KDV_PERFBENCH_TRACE_H_
#define KDV_PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>

namespace pb {

class Tracer {
 public:
  static void SetEnabled(bool on);
  static bool enabled();
  // Records a finished span with explicit times (steady-clock seconds),
  // e.g. a request timed from its scheduled send. No-op when off.
  static void Record(const char* name, double start, double end,
                     uint64_t parent, uint64_t request_id);
  // Per-name count, total and self time (span minus the part of it its
  // children cover), plus every span, as one JSON object.
  static std::string ToJson();
};

// Scoped span: its parent is the innermost open span on this thread.
class Span {
 public:
  explicit Span(const char* name, uint64_t request_id = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  uint64_t request_id_;
  uint64_t parent_ = 0;
  uint64_t id_ = 0;
  double start_ = 0.0;
};

}  // namespace pb

#endif  // KDV_PERFBENCH_TRACE_H_
