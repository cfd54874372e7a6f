// Reproduces Figure 7 (paper §5.4): system characteristics of query A3
// under SEQ / PAR / GREEDY / 1-ROUND while varying
//   (a) data size  (200M .. 1600M represented tuples, 10 nodes),
//   (b) cluster size (5 / 10 / 20 nodes, 800M tuples),
//   (c) data and cluster size together (200M/5 .. 800M/20).
//
// --dist mode (DESIGN.md §13): instead of the cost-model sweep, spawns
// N real worker processes (examples/worker) per workload over an
// MmapTransport mailbox directory, verifies the coordinator's outputs
// byte-identical (words + fingerprints) to an in-process single-runtime
// run, and reports the real wire bytes the shard protocol moved:
//
//   bench_fig7_scaling --dist [--smoke] [--out FILE] [--baseline FILE]
//
// The committed BENCH_dist.json baseline pins dist_wire_mb, which is
// fully deterministic (frame layouts + seeded workloads), so CI gates
// exact-ish equality rather than a timing band.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "common/str_util.h"
#include "dist/wire.h"
#include "mr/engine.h"

using namespace gumbo;
using namespace gumbo::bench;

#ifndef GUMBO_WORKER_BIN
#define GUMBO_WORKER_BIN ""
#endif

namespace {

void RunSweep(const char* title,
              const std::vector<std::pair<double, int>>& points,
              const BenchOptions& base) {
  const std::vector<std::string> columns = {"SEQ", "PAR", "GREEDY",
                                            "1-ROUND"};
  std::vector<std::string> row_names;
  std::vector<std::vector<CellResult>> rows;
  for (const auto& [mtuples, nodes] : points) {
    BenchOptions options = base;
    options.represented_tuples = mtuples * 1e6;
    options.cluster.nodes = nodes;
    auto w = data::MakeA(3, options.MakeGeneratorConfig());
    if (!w.ok()) {
      std::fprintf(stderr, "A3: %s\n", w.status().ToString().c_str());
      continue;
    }
    std::vector<CellResult> row;
    row.push_back(RunStrategy(*w, plan::Strategy::kSeq, options));
    row.push_back(RunStrategy(*w, plan::Strategy::kPar, options));
    row.push_back(RunStrategy(*w, plan::Strategy::kGreedy, options));
    row.push_back(RunStrategy(*w, plan::Strategy::kOneRound, options));
    row_names.push_back(StrFormat("%.0fM/%d nodes", mtuples, nodes));
    rows.push_back(std::move(row));
    std::printf("  ... %.0fM tuples / %d nodes done\n", mtuples, nodes);
  }
  std::printf("\n");
  PrintMetricBlock(title, columns, rows, row_names);
}

// ---------------------------------------------------------------------------
// --dist: multi-process byte-identity + wire accounting
// ---------------------------------------------------------------------------

std::string WorkerBin() {
  const char* env = std::getenv("GUMBO_WORKER_BIN");
  if (env != nullptr && *env != '\0') return env;
  return GUMBO_WORKER_BIN;
}

// Mirrors examples/worker.cc MakeWorkload exactly: the processes and the
// in-process reference must regenerate the same database.
Result<data::Workload> MakeNamed(const std::string& name, size_t tuples,
                                 uint64_t seed) {
  data::GeneratorConfig g;
  g.tuples = tuples;
  g.seed = seed;
  g.representation_scale = 100e6 / static_cast<double>(tuples);
  if (name == "A1") return data::MakeA(1, g);
  if (name == "A3") return data::MakeA(3, g);
  if (name == "B1") return data::MakeB(1, g);
  return Status::InvalidArgument("unknown workload " + name);
}

struct DistResult {
  std::string key;  // "A3/s4"
  bool ok = false;
  std::string error;
  double dist_wire_mb = 0.0;
  double shuffle_mb = 0.0;
  double net_time = 0.0;
};

bool JsonField(const std::string& json, const std::string& field, size_t from,
               double* out) {
  const std::string needle = "\"" + field + "\": ";
  const size_t at = json.find(needle, from);
  if (at == std::string::npos) return false;
  *out = std::strtod(json.c_str() + at + needle.size(), nullptr);
  return true;
}

DistResult RunDistributed(const std::string& name, int shards, size_t tuples,
                          uint64_t seed) {
  DistResult r;
  r.key = name + "/s" + std::to_string(shards);
  const std::string bin = WorkerBin();
  if (bin.empty()) {
    r.error = "no worker binary (build examples or set GUMBO_WORKER_BIN)";
    return r;
  }

  // In-process reference: same workload, same planner defaults as the
  // worker binary, plain single-process runtime.
  auto w = MakeNamed(name, tuples, seed);
  if (!w.ok()) {
    r.error = w.status().ToString();
    return r;
  }
  cost::ClusterConfig config;
  plan::Planner planner(config, plan::PlannerOptions{});
  auto plan = planner.Plan(w->query, w->db);
  if (!plan.ok()) {
    r.error = "plan: " + plan.status().ToString();
    return r;
  }
  mr::Engine engine(config);
  auto ref = plan::ExecutePlanOnSnapshot(*plan, &engine, w->db, &w->db);
  if (!ref.ok()) {
    r.error = "reference: " + ref.status().ToString();
    return r;
  }

  char dir_template[] = "/tmp/gumbo_dist_XXXXXX";
  if (mkdtemp(dir_template) == nullptr) {
    r.error = "mkdtemp failed";
    return r;
  }
  const std::string dir = dir_template;

  std::vector<pid_t> pids;
  for (int s = 0; s < shards; ++s) {
    const std::string a_shard = "--shard=" + std::to_string(s);
    const std::string a_shards = "--shards=" + std::to_string(shards);
    const std::string a_dir = "--dir=" + dir;
    const std::string a_workload = "--workload=" + name;
    const std::string a_tuples = "--tuples=" + std::to_string(tuples);
    const std::string a_seed = "--seed=" + std::to_string(seed);
    const pid_t pid = fork();
    if (pid == 0) {
      const char* argv[] = {bin.c_str(),        a_shard.c_str(),
                            a_shards.c_str(),   a_dir.c_str(),
                            a_workload.c_str(), a_tuples.c_str(),
                            a_seed.c_str(),     nullptr};
      execv(bin.c_str(), const_cast<char* const*>(argv));
      _exit(127);  // exec failed
    }
    if (pid < 0) {
      r.error = "fork failed";
      break;
    }
    pids.push_back(pid);
  }
  bool spawn_ok = r.error.empty();
  for (const pid_t pid : pids) {
    int status = 0;
    waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      if (r.error.empty()) {
        r.error = StrFormat("worker exited with status %d",
                            WIFEXITED(status) ? WEXITSTATUS(status) : -1);
      }
      spawn_ok = false;
    }
  }
  if (!spawn_ok) {
    std::filesystem::remove_all(dir);
    return r;
  }

  // Byte-identity: decode each published output frame and compare the
  // word and fingerprint arenas verbatim against the reference run.
  for (const auto& q : w->query.subqueries()) {
    auto want = w->db.Get(q.output());
    if (!want.ok()) {
      r.error = "reference lost output " + q.output();
      break;
    }
    std::ifstream in(dir + "/out_" + q.output() + ".rel", std::ios::binary);
    if (!in) {
      r.error = "worker 0 published no frame for " + q.output();
      break;
    }
    std::vector<uint8_t> frame((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    auto rd = dist::FrameReader::Parse(frame);
    if (!rd.ok()) {
      r.error = q.output() + ": " + rd.status().ToString();
      break;
    }
    auto got = dist::DecodeRelationBody(&*rd);
    if (!got.ok()) {
      r.error = q.output() + ": " + got.status().ToString();
      break;
    }
    if (got->words() != (*want)->words() ||
        got->fingerprints() != (*want)->fingerprints()) {
      r.error = StrFormat(
          "%s NOT byte-identical at %d shards (%zu vs %zu rows)",
          q.output().c_str(), shards, got->size(), (*want)->size());
      break;
    }
  }

  if (r.error.empty()) {
    std::ifstream in(dir + "/metrics.json");
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    if (!JsonField(json, "dist_wire_mb", 0, &r.dist_wire_mb) ||
        !JsonField(json, "shuffle_mb", 0, &r.shuffle_mb) ||
        !JsonField(json, "net_time", 0, &r.net_time)) {
      r.error = "metrics.json incomplete";
    } else {
      r.ok = true;
    }
  }
  std::filesystem::remove_all(dir);
  return r;
}

bool BaselineWireMb(const std::string& json, const std::string& key,
                    double* out) {
  const size_t at = json.find("\"key\": \"" + key + "\"");
  if (at == std::string::npos) return false;
  return JsonField(json, "dist_wire_mb", at, out);
}

int RunDistMode(bool smoke, const std::string& out_path,
                const std::string& baseline_path) {
  // Pinned sizes (not GUMBO_BENCH_TUPLES): the committed baseline gates
  // dist_wire_mb exactly, so the inputs must be reproducible everywhere.
  const size_t tuples = smoke ? 2000 : 20000;
  const uint64_t seed = 42;
  const std::vector<int> shard_counts = smoke ? std::vector<int>{3}
                                              : std::vector<int>{2, 4};
  const std::vector<std::string> workloads = {"A1", "A3", "B1"};

  std::printf(
      "Multi-process sharded execution (%zu tuples/relation, worker: %s)\n"
      "workload x shards | byte-identity vs single-process | real wire MB\n\n",
      tuples, WorkerBin().c_str());

  int failures = 0;
  std::vector<DistResult> results;
  for (const std::string& name : workloads) {
    for (const int shards : shard_counts) {
      DistResult r = RunDistributed(name, shards, tuples, seed);
      if (!r.ok) {
        std::fprintf(stderr, "FAIL %s: %s\n", r.key.c_str(),
                     r.error.c_str());
        ++failures;
        continue;
      }
      std::printf(
          "%-6s byte-identical | wire %8.3f MB  shuffle %8.3f MB  "
          "net %6.1f s\n",
          r.key.c_str(), r.dist_wire_mb, r.shuffle_mb, r.net_time);
      results.push_back(std::move(r));
    }
  }

  {
    std::ostringstream json;
    json << "{\n  \"bench\": \"dist\",\n  \"tuples\": " << tuples
         << ",\n  \"runs\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
      const DistResult& r = results[i];
      json << "    {\"key\": \"" << r.key
           << "\", \"dist_wire_mb\": " << StrFormat("%.6f", r.dist_wire_mb)
           << ", \"shuffle_mb\": " << StrFormat("%.6f", r.shuffle_mb)
           << ", \"net_time\": " << StrFormat("%.3f", r.net_time) << "}"
           << (i + 1 < results.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::ofstream out(out_path);
    out << json.str();
    std::printf("\nwrote %s\n", out_path.c_str());
  }

  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "FAIL: cannot read baseline %s\n",
                   baseline_path.c_str());
      ++failures;
    } else {
      std::stringstream ss;
      ss << in.rdbuf();
      const std::string json = ss.str();
      // dist_wire_mb is deterministic — the band only absorbs the %.6f
      // serialization of the committed file.
      for (const DistResult& r : results) {
        double base = 0.0;
        if (!BaselineWireMb(json, r.key, &base)) {
          std::fprintf(stderr, "FAIL: baseline has no entry for %s\n",
                       r.key.c_str());
          ++failures;
          continue;
        }
        const double diff = r.dist_wire_mb - base;
        if (diff > 1e-3 * base + 1e-6 || diff < -(1e-3 * base + 1e-6)) {
          std::fprintf(stderr,
                       "FAIL %s: wire %.6f MB != baseline %.6f MB "
                       "(deterministic metric drifted)\n",
                       r.key.c_str(), r.dist_wire_mb, base);
          ++failures;
        } else {
          std::printf("baseline %s: %.6f MB vs %.6f MB committed — ok\n",
                      r.key.c_str(), r.dist_wire_mb, base);
        }
      }
    }
  }

  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool dist = false;
  bool smoke = false;
  std::string out_path = "BENCH_dist.json";
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dist") == 0) {
      dist = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else {
      std::fprintf(
          stderr,
          "usage: %s [--dist [--smoke] [--out FILE] [--baseline FILE]]\n",
          argv[0]);
      return 2;
    }
  }
  if (dist) return RunDistMode(smoke, out_path, baseline_path);

  BenchOptions base = BenchOptions::FromEnv();
  std::printf("Figure 7: scaling characteristics of query A3\n\n");

  RunSweep("Figure 7a: varying data size (10 nodes)",
           {{200, 10}, {400, 10}, {800, 10}, {1600, 10}}, base);
  RunSweep("Figure 7b: varying cluster size (800M tuples)",
           {{800, 5}, {800, 10}, {800, 20}}, base);
  RunSweep("Figure 7c: varying data and cluster size together",
           {{200, 5}, {400, 10}, {800, 20}}, base);
  return 0;
}
