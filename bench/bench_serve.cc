// Wall-clock benchmark of the concurrent query service (DESIGN.md §8):
// closed- and open-loop drivers over the mixed A1 + A3 + B1 workload
// (Table 2 queries sharing one generated database), comparing admission
// modes:
//
//   serialized       max_inflight=1, plan cache off — the pre-serve
//                    behavior: one synchronous plan + execute per query,
//                    re-planning and re-sampling every time;
//   serialized+cache max_inflight=1, plan cache on (cache effect alone);
//   concurrent       max_inflight=8, plan cache off (admission overlap
//                    alone);
//   concurrent+cache max_inflight=8, plan cache on — the full service.
//
// The headline speedup is concurrent+cache vs serialized (throughput of
// the service vs the pre-serve path). Every response in every mode is
// checked byte-identical (words + fingerprints) against a solo reference
// run — the determinism bar of DESIGN.md §8 — so a scheduling or cache
// bug fails the bench before any number is reported.
//
// A write-heavy scenario (DESIGN.md §12) then mixes ~10% AddFact traffic
// into the same read mix and compares closed-loop throughput with the
// incremental delta-evaluation layer on vs off; the delta-on run must
// clear 2x and answer every read as a pure hit or a delta pass, every
// timed response byte-identity-checked against a per-phase reference.
//
// Usage:
//   bench_serve [--smoke] [--out FILE] [--baseline FILE]
//
//   --smoke      relaxed speedup bar + regression tolerance (CI). The
//                run shape (clients, queries per client) is identical to
//                a full run — a smaller smoke run would carry a higher
//                cold-miss fraction and eat the tolerance with
//                systematic bias rather than noise.
//   --out        machine-readable results (default BENCH_serve.json)
//   --baseline   compare against a committed BENCH_serve.json: exit
//                non-zero if the full-service speedup regresses more
//                than 20% (30% under --smoke) vs the baseline (ratios,
//                not absolute qps, so the gate is stable across
//                machines). Generate the baseline at the same
//                GUMBO_BENCH_TUPLES.
//
// Environment: GUMBO_BENCH_TUPLES (default 5000 here — a serving-shaped
// size where per-query latency is tens of ms; the fig/table benches'
// 100000 default is an analytics size) and GUMBO_BENCH_SEED as usual.
//
// Two gates guard the morsel scheduler (DESIGN.md §9): the cache-off
// concurrency speedup (concurrent / serialized, both without the plan
// cache) must clear 1.5x (1.2x under --smoke), and concurrent-no-cache
// p95 must stay within 1.5x of serialized p95. Even on a single
// hardware thread concurrency pays — concurrent identical in-flight
// queries coalesce onto one single-flight planning — while multi-core
// machines add genuine morsel overlap on top. The committed baseline
// records the speedup on the reference machine; CI gates on the ratio
// against it.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_harness.h"
#include "common/config.h"
#include "common/str_util.h"
#include "serve/service.h"

using namespace gumbo;
using namespace gumbo::bench;

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PercentileMs(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t rank = static_cast<size_t>(std::max(
      0.0, std::ceil(p * static_cast<double>(samples.size())) - 1.0));
  return samples[std::min(rank, samples.size() - 1)];
}

struct ModeResult {
  std::string name;
  size_t inflight = 0;
  bool cache = false;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t cache_hits = 0;
  bool identical = true;  // every response matched the solo reference
};

// Byte-identity check of one response against the solo reference outputs
// — same relation set, same words, same fingerprints.
bool Identical(const serve::Response& resp, const Database& ref) {
  if (resp.outputs.size() != ref.size()) return false;
  for (const auto& [name, rel] : ref.relations()) {
    const auto got = resp.outputs.Get(name);
    if (!got.ok()) return false;
    if (!(got.value()->words() == rel.words())) return false;
    if (!(got.value()->fingerprints() == rel.fingerprints())) return false;
  }
  return true;
}

// Closed loop: `clients` threads each issue `per_client` queries
// back-to-back (blocking on each response), cycling through the query
// mix with a per-client offset so distinct classes overlap in flight.
ModeResult RunClosedLoop(const std::string& name, const Database& db,
                         const std::vector<sgf::SgfQuery>& queries,
                         const std::vector<Database>& refs,
                         const serve::ServiceOptions& opts, size_t clients,
                         size_t per_client) {
  ModeResult r;
  r.name = name;
  r.inflight = opts.max_inflight;
  r.cache = opts.plan_cache;

  serve::QueryService service(&db, opts);
  std::vector<std::vector<double>> latencies(clients);
  std::atomic<bool> ok{true};
  const double t0 = Now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t k = 0; k < per_client; ++k) {
        const size_t pick = (c + k) % queries.size();
        serve::Response resp = service.Run(queries[pick]);
        if (!resp.ok() || !Identical(resp, refs[pick])) {
          ok.store(false);
          return;
        }
        latencies[c].push_back(resp.wall_ms);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s = Now() - t0;

  r.identical = ok.load();
  std::vector<double> all;
  for (const auto& l : latencies) all.insert(all.end(), l.begin(), l.end());
  r.qps = static_cast<double>(all.size()) / wall_s;
  r.p50_ms = PercentileMs(all, 0.50);
  r.p95_ms = PercentileMs(all, 0.95);
  r.p99_ms = PercentileMs(all, 0.99);
  r.cache_hits = service.Stats().cache.hits;
  return r;
}

// Open loop: one dispatcher submits at a fixed arrival rate (no waiting
// for responses), then all completions are collected. Shows queueing
// latency under an offered load the closed loop never generates.
ModeResult RunOpenLoop(const Database& db,
                       const std::vector<sgf::SgfQuery>& queries,
                       const std::vector<Database>& refs,
                       const serve::ServiceOptions& opts, size_t total,
                       double offered_qps) {
  ModeResult r;
  r.name = "open-loop";
  r.inflight = opts.max_inflight;
  r.cache = opts.plan_cache;

  serve::QueryService service(&db, opts);
  std::vector<std::future<serve::Response>> futures;
  futures.reserve(total);
  const double interval_s = offered_qps > 0.0 ? 1.0 / offered_qps : 0.0;
  const double t0 = Now();
  for (size_t k = 0; k < total; ++k) {
    const double target = t0 + static_cast<double>(k) * interval_s;
    while (Now() < target) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    futures.push_back(service.Submit(queries[k % queries.size()]));
  }
  std::vector<double> all;
  bool ok = true;
  for (size_t k = 0; k < futures.size(); ++k) {
    serve::Response resp = futures[k].get();
    ok = ok && resp.ok() && Identical(resp, refs[k % refs.size()]);
    all.push_back(resp.wall_ms);
  }
  const double wall_s = Now() - t0;
  r.identical = ok;
  r.qps = static_cast<double>(total) / wall_s;
  r.p50_ms = PercentileMs(all, 0.50);
  r.p95_ms = PercentileMs(all, 0.95);
  r.p99_ms = PercentileMs(all, 0.99);
  r.cache_hits = service.Stats().cache.hits;
  return r;
}

// Minimal extraction for the flat JSON this binary writes. The quoted
// key + colon form is exact: "speedup" never matches "speedup_write".
bool BaselineDouble(const std::string& json, const std::string& name,
                    double* out) {
  const std::string key = "\"" + name + "\":";
  const size_t at = json.find(key);
  if (at == std::string::npos) return false;
  *out = std::strtod(json.c_str() + at + key.size(), nullptr);
  return true;
}

// ---- Write-heavy scenario (DESIGN.md §12) ----------------------------------
//
// ~10% AddFact traffic interleaved with the A1+A3+B1 read mix, phase
// structured: each phase applies a deterministic write batch through the
// service's write API, then the clients issue a closed-loop read burst.
// Between phases the driver recomputes solo reference outputs for the
// mutated database (off the clock), so EVERY timed response is still
// byte-identity-checked. Run twice — delta layer on vs off: with it off,
// every post-write read re-plans and re-executes from scratch; with it
// on, the first read per query delta-maintains the cached result and the
// rest are pure result-cache hits — a count, checked exactly.

// The deterministic write stream both scenario runs (and the reference
// precomputation) replay: guard-position facts with values inside the
// generated domain, so inserts actually join and change outputs.
Tuple WriteFact(uint32_t arity, size_t phase, size_t w, size_t domain) {
  Tuple t;
  for (uint32_t a = 0; a < arity; ++a) {
    t.PushBack(Value::Int(static_cast<int64_t>(
        (phase * 131 + w * 17 + a * 7 + 3) % (domain > 0 ? domain : 1))));
  }
  return t;
}

struct WriteHeavyResult {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t delta_hits = 0;
  uint64_t result_hits = 0;
  double delta_ms_per_row = 0.0;  ///< delta-pass wall ms per inserted row
  size_t reads = 0;
  size_t writes = 0;
  bool identical = true;
};

WriteHeavyResult RunWriteHeavy(
    const Database& base, const std::vector<sgf::SgfQuery>& queries,
    const std::vector<std::vector<Database>>& phase_refs,
    const serve::ServiceOptions& opts, size_t clients,
    size_t reads_per_client_per_phase, size_t writes_per_phase,
    size_t domain, bool delta_on) {
  WriteHeavyResult r;
  Database wdb = base;  // private mutable copy; `base` stays pristine
  const uint32_t guard_arity = wdb.Get("R").value()->arity();
  serve::ServiceOptions o = opts;
  o.result_cache = delta_on;
  serve::QueryService service(&wdb, o);

  // Warm the caches off the clock: the scenario measures steady-state
  // serving under writes, not the cold first plan.
  for (const sgf::SgfQuery& q : queries) {
    if (!service.Run(q).ok()) {
      r.identical = false;
      return r;
    }
  }

  std::vector<double> lat;
  std::mutex lat_mu;
  std::atomic<bool> ok{true};
  double busy_s = 0.0;
  for (size_t phase = 0; phase < phase_refs.size(); ++phase) {
    // Write section (timed — writes are part of the offered traffic).
    double t0 = Now();
    for (size_t w = 0; w < writes_per_phase; ++w) {
      if (!service.AddFact("R", WriteFact(guard_arity, phase, w, domain))
               .ok()) {
        r.identical = false;
        return r;
      }
      ++r.writes;
    }
    busy_s += Now() - t0;
    // Read burst (timed): every response checked against the reference
    // for THIS phase's database state.
    const std::vector<Database>& refs = phase_refs[phase];
    t0 = Now();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (size_t k = 0; k < reads_per_client_per_phase; ++k) {
          const size_t pick = (c + k) % queries.size();
          serve::Response resp = service.Run(queries[pick]);
          if (!resp.ok() || !Identical(resp, refs[pick])) {
            ok.store(false);
            return;
          }
          std::lock_guard<std::mutex> lock(lat_mu);
          lat.push_back(resp.wall_ms);
        }
      });
    }
    for (auto& t : threads) t.join();
    busy_s += Now() - t0;
    r.reads += clients * reads_per_client_per_phase;
    if (!ok.load()) break;
  }
  r.identical = ok.load();
  r.qps = busy_s > 0.0
              ? static_cast<double>(r.reads + r.writes) / busy_s
              : 0.0;
  r.p50_ms = PercentileMs(lat, 0.50);
  r.p95_ms = PercentileMs(lat, 0.95);
  r.p99_ms = PercentileMs(lat, 0.99);
  const serve::ServiceStats stats = service.Stats();
  r.delta_hits = stats.delta_hits;
  r.result_hits = stats.result_hits;
  if (stats.delta_rows > 0) {
    r.delta_ms_per_row = stats.mean_delta_ms *
                         static_cast<double>(stats.delta_hits) /
                         static_cast<double>(stats.delta_rows);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_serve.json";
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--out FILE] [--baseline FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  BenchOptions options = BenchOptions::FromEnv();
  if (!common::RuntimeConfig::Get().bench_tuples.has_value()) {
    options.tuples = 5000;  // serving-shaped default (see header comment)
  }
  const size_t kClients = 8;
  const size_t per_client = 12;  // same shape with/without --smoke

  // ---- Shared database + query mix (A1, A3, B1 read the same relations)
  data::GeneratorConfig gcfg = options.MakeGeneratorConfig();
  std::vector<sgf::SgfQuery> queries;
  std::vector<std::string> names;
  Database db;
  {
    auto a1 = data::MakeA(1, gcfg);
    auto a3 = data::MakeA(3, gcfg);
    auto b1 = data::MakeB(1, gcfg);
    if (!a1.ok() || !a3.ok() || !b1.ok()) {
      std::fprintf(stderr, "FAIL: workload setup\n");
      return 1;
    }
    db = std::move(a1->db);  // identical relation set across the three
    for (auto* w : {&*a1, &*a3, &*b1}) {
      queries.push_back(w->query);
      names.push_back(w->name);
    }
  }

  std::printf(
      "Concurrent query service: mixed %s workload, %zu tuples/relation,\n"
      "%zu clients x %zu queries, closed loop (best numbers below are the\n"
      "full service; 'serialized' is the pre-serve synchronous path)\n\n",
      "A1+A3+B1", options.tuples, kClients, per_client);

  // ---- Solo references for the byte-identity bar ----
  cost::ClusterConfig cluster = options.cluster;
  plan::Planner planner(cluster, plan::PlannerOptions{});
  mr::Engine engine(cluster);
  std::vector<Database> refs;
  for (const sgf::SgfQuery& q : queries) {
    auto plan = planner.Plan(q, db);
    if (!plan.ok()) {
      std::fprintf(stderr, "FAIL: solo plan: %s\n",
                   plan.status().ToString().c_str());
      return 1;
    }
    Database outputs;
    auto run = plan::ExecutePlanOnSnapshot(*plan, &engine, db, &outputs);
    if (!run.ok()) {
      std::fprintf(stderr, "FAIL: solo run: %s\n",
                   run.status().ToString().c_str());
      return 1;
    }
    refs.push_back(std::move(outputs));
  }

  // ---- Closed-loop admission-mode matrix ----
  auto mode_opts = [&](size_t inflight, bool cache) {
    serve::ServiceOptions o;
    o.max_inflight = inflight;
    o.plan_cache = cache;
    // The admission matrix isolates plan-cache and concurrency effects;
    // with the result cache on, repeat submissions short-circuit to pure
    // hits and every mode collapses to cache lookup speed. The
    // write-heavy scenario below measures the delta/result-cache layer
    // on its own terms (RunWriteHeavy overrides this per run).
    o.result_cache = false;
    o.cluster = cluster;
    return o;
  };
  int failures = 0;
  std::vector<ModeResult> modes;
  modes.push_back(RunClosedLoop("serialized", db, queries, refs,
                                mode_opts(1, false), kClients, per_client));
  modes.push_back(RunClosedLoop("serialized+cache", db, queries, refs,
                                mode_opts(1, true), kClients, per_client));
  modes.push_back(RunClosedLoop("concurrent", db, queries, refs,
                                mode_opts(kClients, false), kClients,
                                per_client));
  modes.push_back(RunClosedLoop("concurrent+cache", db, queries, refs,
                                mode_opts(kClients, true), kClients,
                                per_client));
  for (const ModeResult& m : modes) {
    std::printf(
        "%-17s inflight=%zu cache=%d | %7.1f q/s | p50 %7.1f ms  p95 %7.1f "
        "ms  p99 %7.1f ms | %4llu cache hits%s\n",
        m.name.c_str(), m.inflight, m.cache ? 1 : 0, m.qps, m.p50_ms,
        m.p95_ms, m.p99_ms, static_cast<unsigned long long>(m.cache_hits),
        m.identical ? "" : "  RESULTS DIVERGED");
    if (!m.identical) {
      std::fprintf(stderr,
                   "FAIL %s: a response diverged from the solo reference\n",
                   m.name.c_str());
      ++failures;
    }
  }

  const double speedup = modes[3].qps / modes[0].qps;
  const double speedup_cache = modes[1].qps / modes[0].qps;
  // Concurrency measured with the cache OFF on both sides: admission
  // overlap plus single-flight planning of identical in-flight keys,
  // with no cache effect mixed in. This is the number the morsel
  // scheduler is accountable for (DESIGN.md §9).
  const double speedup_conc = modes[2].qps / modes[0].qps;
  std::printf(
      "\nspeedup (full service vs serialized): %.2fx\n"
      "  plan cache alone %.2fx | concurrency alone (cache off) %.2fx\n",
      speedup, speedup_cache, speedup_conc);

  // ---- Open loop at 70%% of the service's closed-loop throughput ----
  ModeResult open = RunOpenLoop(db, queries, refs, mode_opts(kClients, true),
                                kClients * per_client, 0.7 * modes[3].qps);
  std::printf(
      "open loop @ %.1f q/s offered: %7.1f q/s | p50 %7.1f ms  p95 %7.1f ms"
      "  p99 %7.1f ms\n",
      0.7 * modes[3].qps, open.qps, open.p50_ms, open.p95_ms, open.p99_ms);
  if (!open.identical) {
    std::fprintf(stderr, "FAIL open-loop: a response diverged\n");
    ++failures;
  }

  // ---- Overload: deadline-aware shedding (DESIGN.md §11) ----
  // A saturating kLow flood against a constrained service, with a kHigh
  // foreground whose queries carry deadlines derived from the unloaded
  // p95. The service must shed the flood (synchronous ResourceExhausted
  // at the watermark) instead of queueing it, and the foreground
  // queries it admits must stay inside their deadline budget — overload
  // degrades by rejecting work, never by stretching admitted latencies.
  ModeResult unloaded = RunClosedLoop("unloaded", db, queries, refs,
                                      mode_opts(kClients, true), 1,
                                      per_client);
  const double base_p95 = std::max(unloaded.p95_ms, 5.0);
  const double deadline_ms = 1.8 * base_p95;
  serve::ServiceOptions oopts = mode_opts(4, true);
  oopts.max_queued = 16;
  oopts.shed_watermark = 8;

  size_t fg_ok = 0, fg_deadline = 0, fg_other = 0;
  size_t flood_ok = 0, flood_shed = 0, flood_other = 0;
  std::vector<double> fg_lat;
  std::vector<double> shed_submit;
  bool overload_identical = true;
  {
    serve::QueryService service(&db, oopts);
    std::mutex mu;
    std::vector<std::thread> threads;
    // Foreground: 2 closed-loop clients, kHigh + per-query deadline.
    for (size_t c = 0; c < 2; ++c) {
      threads.emplace_back([&, c] {
        for (size_t k = 0; k < per_client; ++k) {
          const size_t pick = (c + k) % queries.size();
          serve::QueryOptions qo;
          qo.deadline_ms = deadline_ms;
          qo.priority = SchedPriority::kHigh;
          serve::Response resp = service.Run(queries[pick], qo);
          std::lock_guard<std::mutex> lock(mu);
          if (resp.ok()) {
            ++fg_ok;
            fg_lat.push_back(resp.wall_ms);
            if (!Identical(resp, refs[pick])) overload_identical = false;
          } else if (resp.status.code() == StatusCode::kDeadlineExceeded) {
            ++fg_deadline;
          } else {
            ++fg_other;
          }
        }
      });
    }
    // Flood: 4 open-loop clients submitting kLow background queries as
    // fast as Submit returns (shed responses resolve synchronously, so
    // a shed submission never throttles the flood).
    for (size_t c = 0; c < 4; ++c) {
      threads.emplace_back([&, c] {
        std::vector<std::future<serve::Response>> futures;
        std::vector<double> submit_ms;
        for (size_t k = 0; k < per_client; ++k) {
          serve::QueryOptions qo;
          qo.priority = SchedPriority::kLow;
          const double t = Now();
          futures.push_back(
              service.Submit(queries[(c + k) % queries.size()], qo));
          submit_ms.push_back((Now() - t) * 1e3);
        }
        for (size_t k = 0; k < futures.size(); ++k) {
          serve::Response resp = futures[k].get();
          std::lock_guard<std::mutex> lock(mu);
          if (resp.ok()) {
            ++flood_ok;
            if (!Identical(resp, refs[(c + k) % refs.size()])) {
              overload_identical = false;
            }
          } else if (resp.status.code() == StatusCode::kResourceExhausted) {
            ++flood_shed;
            shed_submit.push_back(submit_ms[k]);
          } else {
            ++flood_other;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const double admitted_p95 = PercentileMs(fg_lat, 0.95);
  const double shed_submit_p95 = PercentileMs(shed_submit, 0.95);
  std::printf(
      "overload (kLow flood, fg deadline %.1f ms): fg %zu ok / %zu deadline"
      " | flood %zu ok / %zu shed | admitted p95 %.1f ms (unloaded %.1f ms)"
      " | shed submit p95 %.2f ms\n",
      deadline_ms, fg_ok, fg_deadline, flood_ok, flood_shed, admitted_p95,
      unloaded.p95_ms, shed_submit_p95);
  if (!overload_identical) {
    std::fprintf(stderr, "FAIL overload: a response diverged\n");
    ++failures;
  }
  if (fg_other != 0 || flood_other != 0) {
    std::fprintf(stderr,
                 "FAIL overload: %zu foreground / %zu flood responses with "
                 "unexpected statuses\n",
                 fg_other, flood_other);
    ++failures;
  }
  if (flood_shed == 0) {
    std::fprintf(stderr,
                 "FAIL overload: the saturating kLow flood was never shed\n");
    ++failures;
  }
  if (fg_ok == 0) {
    std::fprintf(stderr,
                 "FAIL overload: no foreground query survived the flood\n");
    ++failures;
  }
  // The deadline bound is structural: a query past its budget fails with
  // DeadlineExceeded at the next morsel boundary instead of completing
  // late, so admitted latencies can exceed the 1.8x-p95 deadline only by
  // one morsel's drain — 2x unloaded p95 leaves room for exactly that.
  if (admitted_p95 > 2.0 * base_p95) {
    std::fprintf(stderr,
                 "FAIL overload: admitted p95 %.1f ms exceeds 2x unloaded "
                 "p95 %.1f ms\n",
                 admitted_p95, base_p95);
    ++failures;
  }
  // Shed responses resolve synchronously inside Submit — a shed caller
  // must never be held as long as a real query would have taken.
  if (shed_submit_p95 > base_p95) {
    std::fprintf(stderr,
                 "FAIL overload: shed submissions took p95 %.2f ms — not "
                 "prompt vs unloaded p95 %.1f ms\n",
                 shed_submit_p95, base_p95);
    ++failures;
  }

  // ---- Write-heavy scenario: delta layer on vs off (DESIGN.md §12) ----
  const size_t kPhases = 6;
  const size_t kWritesPerPhase = 2;
  const size_t kReadsPerClientPerPhase = 2;  // 16 reads + 2 writes -> ~11%
  // Precompute per-phase solo references once: both scenario runs replay
  // the identical deterministic write stream, so the truth per phase is
  // shared. References run the classic plan + execute path off the clock.
  std::vector<std::vector<Database>> phase_refs(kPhases);
  {
    Database evolving = db;
    const uint32_t guard_arity = evolving.Get("R").value()->arity();
    for (size_t phase = 0; phase < kPhases; ++phase) {
      for (size_t w = 0; w < kWritesPerPhase; ++w) {
        if (!evolving
                 .AddFact("R", WriteFact(guard_arity, phase, w,
                                         options.tuples))
                 .ok()) {
          std::fprintf(stderr, "FAIL: write-heavy reference setup\n");
          return 1;
        }
      }
      for (const sgf::SgfQuery& q : queries) {
        auto plan = planner.Plan(q, evolving);
        Database outputs;
        auto run = plan.ok() ? plan::ExecutePlanOnSnapshot(*plan, &engine,
                                                           evolving, &outputs)
                             : Result<plan::ExecutionResult>(plan.status());
        if (!run.ok()) {
          std::fprintf(stderr, "FAIL: write-heavy reference run: %s\n",
                       run.status().ToString().c_str());
          return 1;
        }
        phase_refs[phase].push_back(std::move(outputs));
      }
    }
  }
  const WriteHeavyResult delta_on = RunWriteHeavy(
      db, queries, phase_refs, mode_opts(kClients, true), kClients,
      kReadsPerClientPerPhase, kWritesPerPhase, options.tuples, true);
  const WriteHeavyResult delta_off = RunWriteHeavy(
      db, queries, phase_refs, mode_opts(kClients, true), kClients,
      kReadsPerClientPerPhase, kWritesPerPhase, options.tuples, false);
  const double speedup_write =
      delta_off.qps > 0.0 ? delta_on.qps / delta_off.qps : 0.0;
  std::printf(
      "write-heavy (%zu reads + %zu writes, %zu phases):\n"
      "  delta-on  %7.1f q/s | p50 %6.1f ms p95 %6.1f ms | %llu delta "
      "passes, %llu result hits%s\n"
      "  delta-off %7.1f q/s | p50 %6.1f ms p95 %6.1f ms%s\n"
      "  delta speedup: %.2fx | %.3f ms per delta row\n",
      delta_on.reads, delta_on.writes, kPhases, delta_on.qps, delta_on.p50_ms,
      delta_on.p95_ms, static_cast<unsigned long long>(delta_on.delta_hits),
      static_cast<unsigned long long>(delta_on.result_hits),
      delta_on.identical ? "" : "  RESULTS DIVERGED", delta_off.qps,
      delta_off.p50_ms, delta_off.p95_ms,
      delta_off.identical ? "" : "  RESULTS DIVERGED", speedup_write,
      delta_on.delta_ms_per_row);
  if (!delta_on.identical || !delta_off.identical) {
    std::fprintf(stderr,
                 "FAIL write-heavy: a response diverged from the phase "
                 "reference\n");
    ++failures;
  }
  if (delta_on.delta_hits == 0) {
    std::fprintf(stderr,
                 "FAIL write-heavy: the delta-on run never delta-maintained "
                 "a result\n");
    ++failures;
  }
  // Every write lands in R, the guard of A1, A3 and B1, so no read after
  // warm-up needs a full run: each is a pure hit or a delta pass. Exact,
  // so host speed cannot trip it; a fallback for any query does.
  if (delta_on.delta_hits + delta_on.result_hits != delta_on.reads) {
    std::fprintf(stderr,
                 "FAIL write-heavy: %llu delta passes + %llu result hits != "
                 "%zu reads — some read fell back to a full run\n",
                 static_cast<unsigned long long>(delta_on.delta_hits),
                 static_cast<unsigned long long>(delta_on.result_hits),
                 delta_on.reads);
    ++failures;
  }
  // The §12 acceptance bar — and it holds under --smoke too: the delta
  // layer's advantage (delta-sized maintenance + pure hits vs full
  // re-execution after every write batch) is structural, not a
  // machine-speed artifact.
  if (speedup_write < 2.0) {
    std::fprintf(stderr,
                 "FAIL: write-heavy delta speedup %.2fx below the 2.0x bar\n",
                 speedup_write);
    ++failures;
  }

  // The acceptance bar: the full service must at least double the
  // serialized pre-serve throughput at the default size. The smoke bar
  // is lower only to absorb noisy shared CI runners — the run shape is
  // identical, and the committed-baseline ratio gate below carries the
  // fine-grained regression check.
  const double bar = smoke ? 1.5 : 2.0;
  if (speedup < bar) {
    std::fprintf(stderr, "FAIL: speedup %.2fx below the %.1fx bar\n", speedup,
                 bar);
    ++failures;
  }

  // Morsel-scheduler acceptance (DESIGN.md §9): concurrency must pay on
  // its own, with the plan cache off on both sides. Before the
  // scheduler this ratio was 0.92x (concurrent admission *lost*
  // throughput); morsel-granular interleaving plus cache-off
  // single-flight planning must put it decisively above 1.
  const double conc_bar = smoke ? 1.2 : 1.5;
  if (speedup_conc < conc_bar) {
    std::fprintf(stderr,
                 "FAIL: cache-off concurrency speedup %.2fx below the %.1fx "
                 "bar\n",
                 speedup_conc, conc_bar);
    ++failures;
  }
  // And concurrency must not buy throughput by wrecking tail latency:
  // a query admitted among 8 in flight may wait at most 1.5x the p95 of
  // the serialized queue (where it waits behind up to 7 whole queries).
  if (modes[2].p95_ms > 1.5 * modes[0].p95_ms) {
    std::fprintf(stderr,
                 "FAIL: concurrent p95 %.1f ms exceeds 1.5x serialized p95 "
                 "%.1f ms\n",
                 modes[2].p95_ms, modes[0].p95_ms);
    ++failures;
  }

  // Snapshot the committed baseline BEFORE writing out_path: the CI
  // invocation passes the same file for both (--baseline BENCH_serve.json
  // from the repo root), and reading it after the write would compare the
  // run against its own freshly written numbers — a vacuous gate.
  std::string base_json;
  bool have_baseline = false;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (in) {
      std::stringstream ss;
      ss << in.rdbuf();
      base_json = ss.str();
      have_baseline = true;
    }
  }

  // ---- Machine-readable results ----
  {
    std::ostringstream json;
    json << "{\n  \"bench\": \"serve\",\n  \"tuples\": " << options.tuples
         << ",\n  \"clients\": " << kClients
         << ",\n  \"queries_per_client\": " << per_client
         << ",\n  \"workload\": \"" << names[0] << "+" << names[1] << "+"
         << names[2] << "\",\n  \"modes\": [\n";
    for (size_t i = 0; i < modes.size(); ++i) {
      const ModeResult& m = modes[i];
      json << "    {\"name\": \"" << m.name << "\", \"inflight\": "
           << m.inflight << ", \"cache\": " << (m.cache ? 1 : 0)
           << ", \"qps\": " << StrFormat("%.2f", m.qps)
           << ", \"p50_ms\": " << StrFormat("%.2f", m.p50_ms)
           << ", \"p95_ms\": " << StrFormat("%.2f", m.p95_ms)
           << ", \"p99_ms\": " << StrFormat("%.2f", m.p99_ms) << "}"
           << (i + 1 < modes.size() ? "," : "") << "\n";
    }
    json << "  ],\n  \"speedup\": " << StrFormat("%.3f", speedup)
         << ",\n  \"speedup_cache\": " << StrFormat("%.3f", speedup_cache)
         << ",\n  \"speedup_concurrency\": "
         << StrFormat("%.3f", speedup_conc)
         << ",\n  \"open_loop\": {\"offered_qps\": "
         << StrFormat("%.2f", 0.7 * modes[3].qps)
         << ", \"qps\": " << StrFormat("%.2f", open.qps)
         << ", \"p50_ms\": " << StrFormat("%.2f", open.p50_ms)
         << ", \"p95_ms\": " << StrFormat("%.2f", open.p95_ms)
         << ", \"p99_ms\": " << StrFormat("%.2f", open.p99_ms)
         << "},\n  \"overload\": {\"unloaded_p95_ms\": "
         << StrFormat("%.2f", unloaded.p95_ms)
         << ", \"deadline_ms\": " << StrFormat("%.2f", deadline_ms)
         << ", \"admitted_p95_ms\": " << StrFormat("%.2f", admitted_p95)
         << ", \"fg_ok\": " << fg_ok << ", \"fg_deadline\": " << fg_deadline
         << ", \"flood_ok\": " << flood_ok << ", \"shed\": " << flood_shed
         << ", \"shed_submit_p95_ms\": "
         << StrFormat("%.2f", shed_submit_p95)
         << "},\n  \"write_heavy\": {\"reads\": " << delta_on.reads
         << ", \"writes\": " << delta_on.writes
         << ", \"qps_delta_on\": " << StrFormat("%.2f", delta_on.qps)
         << ", \"qps_delta_off\": " << StrFormat("%.2f", delta_off.qps)
         << ", \"p95_delta_on_ms\": " << StrFormat("%.2f", delta_on.p95_ms)
         << ", \"p95_delta_off_ms\": " << StrFormat("%.2f", delta_off.p95_ms)
         << ", \"delta_hits\": " << delta_on.delta_hits
         << ", \"result_hits\": " << delta_on.result_hits
         << ", \"speedup_write\": " << StrFormat("%.3f", speedup_write)
         << ", \"delta_ms_per_row\": "
         << StrFormat("%.4f", delta_on.delta_ms_per_row)
         << "}\n}\n";
    std::ofstream out(out_path);
    out << json.str();
    std::printf("\nwrote %s\n", out_path.c_str());
  }

  // ---- Regression gate vs a committed baseline (ratio, not qps) ----
  if (!baseline_path.empty()) {
    if (!have_baseline) {
      std::fprintf(stderr, "FAIL: cannot read baseline %s\n",
                   baseline_path.c_str());
      ++failures;
    } else {
      double base = 0.0;
      if (!BaselineDouble(base_json, "speedup", &base)) {
        std::fprintf(stderr, "FAIL: baseline has no speedup entry\n");
        ++failures;
      } else {
        const double tolerance = smoke ? 0.7 : 0.8;
        if (speedup < tolerance * base) {
          std::fprintf(stderr,
                       "FAIL: speedup %.2fx regressed >%.0f%% vs baseline "
                       "%.2fx\n",
                       speedup, 100.0 * (1.0 - tolerance), base);
          ++failures;
        } else {
          std::printf("baseline: %.2fx vs %.2fx committed — ok\n", speedup,
                      base);
        }
      }
    }
  }

  return failures == 0 ? 0 : 1;
}
