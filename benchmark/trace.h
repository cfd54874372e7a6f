// Spans of the traced run. The benchmark records a span around every call
// it makes into a layer (layers.cc); spans of one query share a query id
// and form a tree through their parent ids:
//
//   query -> sgf.parse | plan.plan | mr.round -> mr.job -> mr.<phase>
//                                   | mr.commit
//
// Spans stay in memory until the run ends, then feed the per-layer
// metrics, the self-time table and the Chrome trace-event file.
#ifndef GUMBO_BENCHMARK_TRACE_H_
#define GUMBO_BENCHMARK_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace gumbo::bm {

/// Index + 1 of a span in its tracer; 0 = no span.
using SpanId = uint32_t;

struct Span {
  const char* name = "";  ///< static string from the taxonomy above
  SpanId id = 0;
  SpanId parent = 0;
  uint32_t query = 0;  ///< shared by every span of one query
  uint32_t tid = 0;    ///< small per-thread number, for the trace viewer
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t ns() const { return end_ns - start_ns; }
};

/// Thread-safe span recorder. Begin/End take one mutex each; a query
/// records a few dozen spans, so the lock is never contended enough to
/// show next to the work the spans cover (trace.overhead_frac checks).
class Tracer {
 public:
  Tracer();

  SpanId Begin(const char* name, SpanId parent, uint32_t query);
  void End(SpanId id);

  /// Copy of every span recorded so far.
  std::vector<Span> Spans() const;

  /// Writes the spans as Chrome trace-event JSON ("ph":"X" complete
  /// events, span/parent/query ids in "args"), which chrome://tracing and
  /// the Perfetto UI open. False when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const int64_t origin_ns_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// A span for the lifetime of the scope; a null tracer records nothing,
/// which is how the untraced run shares code with the traced one.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, SpanId parent, uint32_t query)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, parent, query) : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  SpanId id() const { return id_; }

 private:
  Tracer* tracer_;
  SpanId id_;
};

/// Self time of every span, parallel to `spans` (which must be indexed by
/// id - 1, as Tracer::Spans returns them): its duration minus the part of
/// its interval that the union of its direct children covers. Concurrent
/// children that overlap each other are counted once.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Per span name: count, total and self milliseconds, as a printable
/// table sorted by self time.
std::string SelfTimeTable(const std::vector<Span>& spans);

int64_t NowNs();

}  // namespace gumbo::bm

#endif  // GUMBO_BENCHMARK_TRACE_H_
