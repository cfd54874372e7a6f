// query_server: a REPL-style driver for the concurrent query service
// (DESIGN.md §8). Builds a generated demo database (guard R over unary
// conditionals S, T, U, V — the Table 2 shape), starts a QueryService,
// and serves SGF queries typed on stdin.
//
//   $ ./build/query_server [tuples]
//   gumbo> Z := SELECT (x, y) FROM R(x, y, z, w) WHERE S(x) AND T(y);
//   ... result sample + per-query metrics (plan cache hit, queue/plan/
//       exec times) ...
//   gumbo> \stats        aggregate service + query-cache counters
//   gumbo> \rel          relations in the database
//   gumbo> \addfact R 1 2 3 4     insert a fact through the write API —
//                        cached results are delta-maintained (DESIGN.md
//                        §12), watch \stats delta counters move
//   gumbo> \quit
//
// Statements may span lines; a ';' submits. Works piped too:
//   echo 'Z := SELECT x FROM R(x,y,z,w) WHERE S(x);' | ./build/query_server
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/config.h"
#include "common/dictionary.h"
#include "data/generator.h"
#include "serve/service.h"
#include "sgf/parser.h"

using namespace gumbo;

namespace {

void PrintStats(const serve::QueryService& service) {
  const serve::ServiceStats s = service.Stats();
  std::printf(
      "service: %llu submitted, %llu ok, %llu failed | peak inflight %d\n"
      "plans:   %llu built, %llu coalesced | cache %llu hits / %llu misses "
      "/ %llu invalidations / %llu entries\n"
      "latency: p50 %.1f ms  p95 %.1f ms  p99 %.1f ms | mean queue %.1f ms, "
      "plan %.1f ms, exec %.1f ms\n"
      "faults:  %llu deadline / %llu cancelled / %llu shed | %llu task "
      "retries, %llu injected\n",
      static_cast<unsigned long long>(s.submitted),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.failed), s.peak_inflight,
      static_cast<unsigned long long>(s.plans_built),
      static_cast<unsigned long long>(s.plan_coalesced),
      static_cast<unsigned long long>(s.cache.hits),
      static_cast<unsigned long long>(s.cache.misses),
      static_cast<unsigned long long>(s.cache.invalidations),
      static_cast<unsigned long long>(s.cache.entries), s.total_p50_ms,
      s.total_p95_ms, s.total_p99_ms, s.mean_queue_ms, s.mean_plan_ms,
      s.mean_exec_ms, static_cast<unsigned long long>(s.deadline_exceeded),
      static_cast<unsigned long long>(s.cancelled),
      static_cast<unsigned long long>(s.shed),
      static_cast<unsigned long long>(s.task_retries),
      static_cast<unsigned long long>(s.faults_injected));
  std::printf(
      "delta:   %llu result hits, %llu delta-maintained (%llu delta rows, "
      "mean %.1f ms)\n",
      static_cast<unsigned long long>(s.result_hits),
      static_cast<unsigned long long>(s.delta_hits),
      static_cast<unsigned long long>(s.delta_rows), s.mean_delta_ms);
  std::printf("config (GUMBO_* knobs live in this process):\n%s",
              common::RuntimeConfig::Get().Describe().c_str());
}

// \addfact REL v1 v2 ...: integer fact through the service's write API.
void HandleAddFact(serve::QueryService* service, const Database& db,
                   const std::string& line) {
  std::string rest = line.substr(std::string("\\addfact").size());
  std::string name;
  Tuple t;
  size_t pos = 0;
  while (pos < rest.size()) {
    while (pos < rest.size() && std::isspace(
               static_cast<unsigned char>(rest[pos]))) {
      ++pos;
    }
    size_t end = pos;
    while (end < rest.size() && !std::isspace(
               static_cast<unsigned char>(rest[end]))) {
      ++end;
    }
    if (end == pos) break;
    const std::string tok = rest.substr(pos, end - pos);
    pos = end;
    if (name.empty()) {
      name = tok;
    } else {
      char* parse_end = nullptr;
      const long long v = std::strtoll(tok.c_str(), &parse_end, 10);
      if (parse_end == nullptr || *parse_end != '\0') {
        std::printf("not an integer: %s\n", tok.c_str());
        return;
      }
      t.PushBack(Value::Int(v));
    }
  }
  if (name.empty()) {
    std::printf("usage: \\addfact REL v1 v2 ... (one integer per column)\n");
    return;
  }
  const Status st = service->AddFact(name, t);
  if (!st.ok()) {
    std::printf("addfact error: %s\n", st.ToString().c_str());
    return;
  }
  std::printf("%s += %zu-ary fact (%zu tuples, stats epoch %llu)\n",
              name.c_str(), static_cast<size_t>(t.size()),
              db.Get(name).value()->size(),
              static_cast<unsigned long long>(db.StatsEpochOf(name)));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--help") {
    std::printf(
        "usage: query_server [tuples]\n"
        "REPL over a generated demo database; \\stats, \\rel, \\addfact, "
        "\\quit.\n\nGUMBO_* environment knobs (current values):\n%s",
        common::RuntimeConfig::Get().Describe().c_str());
    return 0;
  }
  const size_t tuples =
      argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 5000;

  data::GeneratorConfig cfg;
  cfg.tuples = tuples;
  cfg.representation_scale = 1.0;
  data::Generator gen(cfg);
  Database db;
  db.Put(gen.Guard("R", 4));
  for (const char* c : {"S", "T", "U", "V"}) db.Put(gen.Conditional(c, 1));

  serve::ServiceOptions options;
  options.max_inflight = 4;
  serve::QueryService service(&db, options);

  Dictionary* dict = &Dictionary::Global();
  std::printf(
      "gumbo query server — %zu-tuple demo database: R(4-ary guard), "
      "S/T/U/V (unary conditionals)\n"
      "Type an SGF query ending in ';', \\stats, \\rel, or \\quit.\n",
      tuples);

  std::string buffer;
  std::string line;
  while (true) {
    std::printf(buffer.empty() ? "gumbo> " : "   ... ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;

    if (buffer.empty() && !line.empty() && line[0] == '\\') {
      if (line == "\\quit" || line == "\\q") break;
      if (line == "\\stats") {
        PrintStats(service);
      } else if (line.rfind("\\addfact", 0) == 0) {
        HandleAddFact(&service, db, line);
      } else if (line == "\\rel") {
        for (const auto& [name, rel] : db.relations()) {
          std::printf("  %s/%u: %zu tuples (stats epoch %llu)\n",
                      name.c_str(), rel.arity(), rel.size(),
                      static_cast<unsigned long long>(db.StatsEpochOf(name)));
        }
      } else {
        std::printf("commands: \\stats \\rel \\addfact REL v1 v2 ... \\quit\n");
      }
      continue;
    }

    buffer += line;
    buffer += '\n';
    if (line.find(';') == std::string::npos) continue;  // keep accumulating

    auto query = sgf::ParseSgf(buffer, dict);
    buffer.clear();
    if (!query.ok()) {
      std::printf("parse error: %s\n", query.status().ToString().c_str());
      continue;
    }

    serve::Response resp = service.Run(std::move(*query));
    if (!resp.ok()) {
      std::printf("error: %s\n", resp.status.ToString().c_str());
      continue;
    }
    for (const auto& [name, rel] : resp.outputs.relations()) {
      std::printf("%s: %zu tuples", name.c_str(), rel.size());
      const size_t show = rel.size() < 5 ? rel.size() : 5;
      for (size_t i = 0; i < show; ++i) {
        std::printf("%s %s", i == 0 ? " —" : ",",
                    rel.view(i).ToString(dict).c_str());
      }
      std::printf(rel.size() > show ? ", ...\n" : "\n");
    }
    const char* served_from =
        resp.metrics.result_cache_hit
            ? "result cache HIT"
            : (resp.metrics.delta_applied
                   ? "delta-maintained"
                   : (resp.metrics.plan_cache_hit ? "plan cache HIT"
                                                  : "planned fresh"));
    std::printf(
        "%.1f ms (queue %.1f + plan %.1f + exec) | %s | "
        "%d job(s), %d round(s), %.2f MB shuffled\n",
        resp.wall_ms, resp.metrics.queue_ms, resp.metrics.plan_ms,
        served_from, resp.metrics.jobs, resp.metrics.rounds,
        resp.metrics.shuffle_mb);
  }
  std::printf("\n");
  PrintStats(service);
  return 0;
}
