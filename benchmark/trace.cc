#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>

namespace gumbo::bm {

namespace {

uint32_t ThreadNumber() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t tid = next.fetch_add(1);
  return tid;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer() : origin_ns_(NowNs()) {}

SpanId Tracer::Begin(const char* name, SpanId parent, uint32_t query) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.query = query;
  s.tid = ThreadNumber();
  s.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  s.id = static_cast<SpanId>(spans_.size() + 1);
  spans_.push_back(s);
  return s.id;
}

void Tracer::End(SpanId id) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = now;
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  const std::vector<Span> spans = Spans();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string name = s.name;
    const std::string cat = name.substr(0, name.find('.'));
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%u,"
                 "\"parent\":%u,\"query\":%u}}%s\n",
                 s.name, cat.c_str(), s.tid,
                 static_cast<double>(s.start_ns - origin_ns_) / 1e3,
                 static_cast<double>(s.ns()) / 1e3, s.id, s.parent, s.query,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent - 1].push_back(i);
  }
  std::vector<int64_t> self(spans.size());
  std::vector<std::pair<int64_t, int64_t>> iv;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    iv.clear();
    for (size_t c : children[i]) {
      const int64_t b = std::max(spans[c].start_ns, p.start_ns);
      const int64_t e = std::min(spans[c].end_ns, p.end_ns);
      if (b < e) iv.emplace_back(b, e);
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t run_b = 0;
    int64_t run_e = 0;
    bool open = false;
    for (const auto& [b, e] : iv) {
      if (open && b <= run_e) {
        run_e = std::max(run_e, e);
        continue;
      }
      if (open) covered += run_e - run_b;
      run_b = b;
      run_e = e;
      open = true;
    }
    if (open) covered += run_e - run_b;
    self[i] = p.ns() - covered;
  }
  return self;
}

std::string SelfTimeTable(const std::vector<Span>& spans) {
  struct Row {
    size_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Row> rows;
  const std::vector<int64_t> self = SelfTimesNs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    Row& r = rows[spans[i].name];
    ++r.count;
    r.total_ns += spans[i].ns();
    r.self_ns += self[i];
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_ns > b.second.self_ns;
  });
  std::string out = "  span                  count    total_ms     self_ms\n";
  char line[128];
  for (const auto& [name, r] : sorted) {
    std::snprintf(line, sizeof(line), "  %-20s %6zu %11.1f %11.1f\n",
                  name.c_str(), r.count, static_cast<double>(r.total_ns) / 1e6,
                  static_cast<double>(r.self_ns) / 1e6);
    out += line;
  }
  return out;
}

}  // namespace gumbo::bm
