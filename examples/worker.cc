// worker: one shard of a multi-process GUMBO cluster (DESIGN.md §13).
//
// Every cooperating process is launched with the same workload, seed,
// and mailbox directory, plus its own --shard index:
//
//   dir=$(mktemp -d)
//   for s in 0 1 2; do
//     ./build/worker --shard=$s --shards=3 --dir=$dir --workload=A3 &
//   done; wait
//
// Each process regenerates the workload from the seed (full replication
// — no data distribution step), plans it with the same deterministic
// planner, and executes it as shard K of N over an MmapTransport rooted
// at --dir. The coordinator (shard 0) then writes each query output as a
// kRelation wire frame to <dir>/out_<name>.rel and a metrics.json with
// the merged stats — which is how bench_fig7_scaling --dist and
// tests/dist_test.cc verify multi-process runs byte-identical to the
// single-process runtime.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "data/workloads.h"
#include "dist/cluster.h"
#include "dist/sharded.h"
#include "dist/transport.h"
#include "dist/wire.h"
#include "mr/engine.h"
#include "plan/executor.h"
#include "plan/planner.h"

using namespace gumbo;

namespace {

struct Args {
  int shard = 0;
  int shards = 1;
  std::string dir;
  std::string workload = "A3";
  size_t tuples = 2000;
  uint64_t seed = 42;
  double represented = 100e6;
  std::string strategy = "greedy";
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *out = arg + prefix.size();
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --shard=K --shards=N --dir=PATH [--workload=A1|A3|B1]\n"
      "          [--tuples=N] [--seed=S] [--represented=T] "
      "[--strategy=seq|par|greedy|oneround]\n",
      argv0);
  return 2;
}

Result<data::Workload> MakeWorkload(const Args& a) {
  data::GeneratorConfig g;
  g.tuples = a.tuples;
  g.seed = a.seed;
  g.representation_scale =
      a.represented / static_cast<double>(a.tuples);
  if (a.workload == "A1") return data::MakeA(1, g);
  if (a.workload == "A3") return data::MakeA(3, g);
  if (a.workload == "B1") return data::MakeB(1, g);
  return Status::InvalidArgument("unknown workload " + a.workload +
                                 " (A1, A3, B1)");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "shard", &v)) {
      args.shard = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "shards", &v)) {
      args.shards = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "dir", &v)) {
      args.dir = v;
    } else if (ParseFlag(argv[i], "workload", &v)) {
      args.workload = v;
    } else if (ParseFlag(argv[i], "tuples", &v)) {
      args.tuples = static_cast<size_t>(std::atoll(v.c_str()));
    } else if (ParseFlag(argv[i], "seed", &v)) {
      args.seed = static_cast<uint64_t>(std::atoll(v.c_str()));
    } else if (ParseFlag(argv[i], "represented", &v)) {
      args.represented = std::atof(v.c_str());
    } else if (ParseFlag(argv[i], "strategy", &v)) {
      args.strategy = v;
    } else {
      return Usage(argv[0]);
    }
  }
  if (args.dir.empty() || args.shards < 1 || args.shard < 0 ||
      args.shard >= args.shards) {
    return Usage(argv[0]);
  }

  auto workload = MakeWorkload(args);
  if (!workload.ok()) {
    std::fprintf(stderr, "worker %d: %s\n", args.shard,
                 workload.status().ToString().c_str());
    return 1;
  }
  Database db = std::move(workload->db);

  // Identical planner configuration on every shard -> identical plan
  // (the planner is deterministic given the same database and options).
  cost::ClusterConfig config;
  plan::PlannerOptions popts;
  auto strategy = plan::StrategyFromName(args.strategy);
  if (!strategy.ok()) {
    std::fprintf(stderr, "worker %d: %s\n", args.shard,
                 strategy.status().ToString().c_str());
    return 1;
  }
  popts.strategy = *strategy;
  plan::Planner planner(config, popts);
  auto plan = planner.Plan(workload->query, db);
  if (!plan.ok()) {
    std::fprintf(stderr, "worker %d: plan: %s\n", args.shard,
                 plan.status().ToString().c_str());
    return 1;
  }

  mr::Engine engine(config);
  dist::MmapTransport transport(args.dir, args.shards);
  dist::Cluster cluster{&transport, args.shard, args.shards};
  plan::ExecutionContext ectx;
  ectx.cluster = &cluster;
  auto result = plan::ExecutePlanOnSnapshot(*plan, &engine, db, &db, ectx);
  if (!result.ok()) {
    std::fprintf(stderr, "worker %d: execute: %s\n", args.shard,
                 result.status().ToString().c_str());
    return 1;
  }

  if (args.shard == 0) {
    // The coordinator's replica holds the authoritative outputs; publish
    // them as wire frames so any process (the bench, the tests) can
    // compare words + fingerprints without linking this binary.
    for (const auto& q : workload->query.subqueries()) {
      auto rel = db.Get(q.output());
      if (!rel.ok()) {
        std::fprintf(stderr, "worker 0: missing output %s\n",
                     q.output().c_str());
        return 1;
      }
      const std::string path = args.dir + "/out_" + q.output() + ".rel";
      const std::vector<uint8_t> frame =
          dist::EncodeRelationFrame(**rel, /*src_shard=*/0);
      std::ofstream out(path, std::ios::binary);
      out.write(reinterpret_cast<const char*>(frame.data()),
                static_cast<std::streamsize>(frame.size()));
      if (!out) {
        std::fprintf(stderr, "worker 0: cannot write %s\n", path.c_str());
        return 1;
      }
    }
    const plan::Metrics& m = result->metrics;
    std::ofstream mj(args.dir + "/metrics.json");
    mj << "{\n"
       << "  \"workload\": \"" << args.workload << "\",\n"
       << "  \"shards\": " << args.shards << ",\n"
       << "  \"dist_wire_mb\": " << m.dist_wire_mb << ",\n"
       << "  \"shuffle_mb\": " << m.shuffle_mb << ",\n"
       << "  \"net_time\": " << m.net_time << ",\n"
       << "  \"total_time\": " << m.total_time << ",\n"
       << "  \"wall_ms\": " << m.wall_ms << "\n"
       << "}\n";
    std::printf(
        "worker 0/%d %s: ok — %.3f MB wire, %.3f MB shuffle, net %.1f s\n",
        args.shards, args.workload.c_str(), m.dist_wire_mb, m.shuffle_mb,
        m.net_time);
  } else {
    std::printf("worker %d/%d %s: ok\n", args.shard, args.shards,
                args.workload.c_str());
  }
  return 0;
}
