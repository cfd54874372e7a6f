// Wall-clock microbenchmark of the shuffle hot path (DESIGN.md §3):
// flat-buffer representation (MapOutputBuffer + fingerprint grouping +
// sort-once partitions) vs. the pre-flat representation (per-emission
// Tuple/Message pairs, unordered_map grouping, per-call partition
// copy + sort), replaying identical MSJ emission streams recorded from
// the A1 / A3 / B1 ablation workloads.
//
// Unlike the fig/table benches this measures REAL time, not the modeled
// clock: the cost model's byte accounting is identical for both
// representations by construction (the tests pin it), so the only thing
// at stake here is records per wall-second.
//
// Usage:
//   bench_shuffle_hotpath [--smoke] [--out FILE] [--baseline FILE]
//
//   --smoke      fewer repetitions and a relaxed sanity bar (CI); input
//                size still comes from GUMBO_BENCH_TUPLES so the run
//                stays comparable to a committed baseline
//   --out        write machine-readable results (default BENCH_shuffle.json
//                in the current directory)
//   --baseline   compare against a committed BENCH_shuffle.json: exit
//                non-zero if the flat/legacy speedup regresses more than
//                20% against the baseline's speedup (ratios, not absolute
//                rates, so the check is stable across machines). Generate
//                the baseline at the same GUMBO_BENCH_TUPLES as the gate
//                run — the speedup legitimately shrinks at sizes where
//                the legacy hash map stays cache-resident, so mixed-size
//                comparisons encode contradictory expectations.
//
// The binary always self-checks: both paths must produce identical
// reduce-side checksums, and the flat path must be >= 2x the legacy
// records/sec on every workload (the PR's acceptance bar).
//
// Environment: GUMBO_BENCH_TUPLES / GUMBO_BENCH_SEED as usual.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_harness.h"
#include "common/str_util.h"
#include "data/workloads.h"
#include "mr/map_output.h"
#include "mr/shuffle.h"
#include "ops/msj.h"

using namespace gumbo;
using namespace gumbo::bench;

namespace {

constexpr int kReducePartitions = 8;

// ---- Recorded emission stream ----------------------------------------------

struct Emission {
  Tuple key;
  /// key.Hash(), recorded once — the operators all compute it anyway
  /// (Bloom probes) and hand it to EmitPrehashed, so the flat replay
  /// does the same; the legacy representation had no slot to carry it
  /// and re-hashed in grouping and partitioning.
  uint64_t fingerprint = 0;
  uint32_t tag = 0;
  uint32_t aux = 0;
  Tuple payload;
  double wire_bytes = 0.0;
};

// One map task's recorded emissions.
using TaskStream = std::vector<Emission>;

// Builds the MSJ job of a workload's first subquery (every equation in
// one job, as GREEDY would group A1/A3/B1) with packing on and the
// volume optimizations off, so both representations shuffle the exact
// same logical stream.
Result<mr::JobSpec> BuildJob(const data::Workload& w) {
  const sgf::BsgfQuery& q = w.query.subqueries()[0];
  std::vector<ops::SemiJoinEquation> eqs;
  for (size_t i = 0; i < q.num_conditional_atoms(); ++i) {
    ops::SemiJoinEquation eq;
    eq.output = "__X" + std::to_string(i);
    eq.guard = q.guard();
    eq.guard_dataset = q.guard().relation();
    eq.conditional = q.conditional_atoms()[i];
    eq.conditional_dataset = q.conditional_atoms()[i].relation();
    eqs.push_back(std::move(eq));
  }
  ops::OpOptions op;
  op.combiners = false;
  op.bloom_filters = false;
  return ops::BuildMsjJob(eqs, op, "shuffle-hotpath-" + w.name);
}

// Runs the job's mappers over the workload relations, split into
// `tasks_per_input` map tasks per input, and records the raw emission
// streams via MapOutputBuffer::ForEachEmission.
Result<std::vector<TaskStream>> RecordStreams(const data::Workload& w,
                                              const mr::JobSpec& job,
                                              size_t tasks_per_input) {
  std::vector<TaskStream> streams;
  for (size_t ii = 0; ii < job.inputs.size(); ++ii) {
    GUMBO_ASSIGN_OR_RETURN(const Relation* rel,
                           w.db.Get(job.inputs[ii].dataset));
    const size_t n = rel->size();
    for (size_t t = 0; t < tasks_per_input; ++t) {
      const size_t begin = n * t / tasks_per_input;
      const size_t end = n * (t + 1) / tasks_per_input;
      auto mapper = job.mapper_factory();
      mr::MapOutputBuffer buffer;
      for (size_t j = begin; j < end; ++j) {
        mapper->Map(ii, rel->view(j), static_cast<uint64_t>(j), &buffer);
      }
      TaskStream stream;
      stream.reserve(buffer.num_messages());
      buffer.ForEachEmission([&](const uint64_t* key_words, uint32_t arity,
                                 uint64_t fingerprint, const mr::Message& m,
                                 const uint64_t* arena) {
        Emission e;
        e.key = Tuple::DecodeFrom(key_words, arity);
        e.fingerprint = fingerprint;
        e.tag = m.tag;
        e.aux = m.aux;
        e.payload = Tuple::DecodeFrom(m.payload_words(arena), m.payload_size);
        e.wire_bytes = m.wire_bytes;
        stream.push_back(std::move(e));
      });
      streams.push_back(std::move(stream));
    }
  }
  return streams;
}

// ---- Reduce-side consumer shared by both paths ------------------------------

struct Checksum {
  uint64_t hash = 0;
  size_t groups = 0;
  size_t messages = 0;

  void Key(TupleView key) {
    hash = FingerprintMix(hash, key.Fingerprint());
    ++groups;
  }
  // `payload_hash` is Tuple::Hash() of the payload; the flat path
  // computes it straight off the payload words (TupleFingerprint is the
  // same function), the legacy path off the materialized Tuple.
  void Value(uint32_t tag, uint32_t aux, uint64_t payload_hash) {
    hash = FingerprintMix(hash, (static_cast<uint64_t>(tag) << 32) ^ aux);
    hash = FingerprintMix(hash, payload_hash);
    ++messages;
  }
  bool operator==(const Checksum& o) const {
    return hash == o.hash && groups == o.groups && messages == o.messages;
  }
};

// ---- Legacy representation (pre-flat shuffle, for comparison) ---------------
// A faithful transcription of the previous data path: every emission
// materializes a (Tuple key, Message{..., Tuple payload}) pair; ingest
// groups through unordered_map<Tuple, ...>; Partition hashes every key
// again; ForEachGroup copies + re-sorts the partition and re-merges
// multi-record keys into a scratch vector.

namespace legacy {

struct Message {
  uint32_t tag = 0;
  uint32_t aux = 0;
  Tuple payload;
  double wire_bytes = 0.0;
};

struct KeyValue {
  Tuple key;
  Message value;
};

struct ShuffleRecord {
  Tuple key;
  std::vector<Message> values;
  double wire_bytes = 0.0;
};

class Shuffle {
 public:
  explicit Shuffle(size_t num_map_tasks) : task_records_(num_map_tasks) {}

  size_t AddTaskOutput(size_t task, std::vector<KeyValue> kvs) {
    std::vector<ShuffleRecord>& records = task_records_[task];
    std::unordered_map<Tuple, size_t> index;
    index.reserve(kvs.size());
    for (KeyValue& kv : kvs) {
      auto [it, inserted] = index.emplace(kv.key, records.size());
      if (inserted) {
        ShuffleRecord rec;
        rec.key = std::move(kv.key);
        records.push_back(std::move(rec));
      }
      records[it->second].values.push_back(std::move(kv.value));
    }
    for (ShuffleRecord& rec : records) {
      rec.wire_bytes = mr::TupleWireBytes(rec.key);
      for (const Message& m : rec.values) rec.wire_bytes += m.wire_bytes;
    }
    return records.size();
  }

  void Partition(int num_partitions) {
    partitions_.resize(static_cast<size_t>(num_partitions));
    for (const auto& records : task_records_) {
      for (const ShuffleRecord& rec : records) {
        partitions_[rec.key.Hash() % static_cast<uint64_t>(num_partitions)]
            .push_back(&rec);
      }
    }
  }

  template <class Fn>
  void ForEachGroup(size_t p, Fn fn) const {
    std::vector<const ShuffleRecord*> sorted = partitions_[p];
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const ShuffleRecord* a, const ShuffleRecord* b) {
                       return a->key < b->key;
                     });
    std::vector<Message> merged;
    for (size_t i = 0; i < sorted.size();) {
      size_t j = i + 1;
      while (j < sorted.size() && sorted[j]->key == sorted[i]->key) ++j;
      if (j == i + 1) {
        fn(sorted[i]->key, sorted[i]->values);
      } else {
        merged.clear();
        for (size_t k = i; k < j; ++k) {
          merged.insert(merged.end(), sorted[k]->values.begin(),
                        sorted[k]->values.end());
        }
        fn(sorted[i]->key, merged);
      }
      i = j;
    }
  }

  size_t num_partitions() const { return partitions_.size(); }

 private:
  std::vector<std::vector<ShuffleRecord>> task_records_;
  std::vector<std::vector<const ShuffleRecord*>> partitions_;
};

}  // namespace legacy

// One full legacy pass: materialize KeyValues, ingest, partition, reduce.
size_t RunLegacy(const std::vector<TaskStream>& streams, Checksum* sum) {
  legacy::Shuffle shuffle(streams.size());
  size_t records = 0;
  for (size_t t = 0; t < streams.size(); ++t) {
    std::vector<legacy::KeyValue> kvs;
    kvs.reserve(streams[t].size());
    for (const Emission& e : streams[t]) {
      legacy::KeyValue kv;
      kv.key = e.key;
      kv.value.tag = e.tag;
      kv.value.aux = e.aux;
      kv.value.payload = e.payload;
      kv.value.wire_bytes = e.wire_bytes;
      kvs.push_back(std::move(kv));
    }
    records += shuffle.AddTaskOutput(t, std::move(kvs));
  }
  shuffle.Partition(kReducePartitions);
  for (size_t p = 0; p < shuffle.num_partitions(); ++p) {
    shuffle.ForEachGroup(
        p, [&](const Tuple& key, const std::vector<legacy::Message>& values) {
          sum->Key(key);
          for (const legacy::Message& m : values) {
            sum->Value(m.tag, m.aux, m.payload.Hash());
          }
        });
  }
  return records;
}

// One full flat pass: emit into MapOutputBuffers, ingest, partition,
// reduce through the MessageGroup view.
size_t RunFlat(const std::vector<TaskStream>& streams, Checksum* sum) {
  mr::Shuffle shuffle(streams.size(), /*pack_messages=*/true);
  size_t records = 0;
  for (size_t t = 0; t < streams.size(); ++t) {
    mr::MapOutputBuffer buffer;
    for (const Emission& e : streams[t]) {
      if (e.payload.empty()) {
        buffer.EmitPrehashed(e.key, e.fingerprint, e.tag, e.aux,
                             e.wire_bytes);
      } else {
        buffer.EmitPrehashed(e.key, e.fingerprint, e.tag, e.aux, e.payload,
                             e.wire_bytes);
      }
    }
    records += shuffle.AddTaskOutput(t, std::move(buffer))->records;
  }
  if (!shuffle.Partition(kReducePartitions).ok()) std::abort();
  for (int p = 0; p < shuffle.num_partitions(); ++p) {
    shuffle.ForEachGroup(
        static_cast<size_t>(p),
        [&](TupleView key, const mr::MessageGroup& values) {
          sum->Key(key);
          for (const mr::MessageRef m : values) {
            sum->Value(m.tag(), m.aux(),
                       TupleFingerprint(m.payload_words(), m.payload_size()));
          }
        });
  }
  return records;
}

// ---- Timing -----------------------------------------------------------------

double SecondsOfBestRep(int reps, const std::function<void()>& fn) {
  double best = 1e100;
  for (int i = 0; i < reps; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

struct WorkloadResult {
  std::string name;
  size_t records = 0;
  size_t messages = 0;
  double legacy_rps = 0.0;
  double flat_rps = 0.0;
  double speedup = 0.0;
};

// ---- Baseline JSON ----------------------------------------------------------

// Minimal extraction for the flat JSON this binary writes: finds
// `"name": "<w>"` and returns the next `"speedup": <num>` after it.
bool BaselineSpeedup(const std::string& json, const std::string& name,
                     double* out) {
  const std::string needle = "\"name\": \"" + name + "\"";
  size_t at = json.find(needle);
  if (at == std::string::npos) return false;
  const std::string key = "\"speedup\":";
  at = json.find(key, at);
  if (at == std::string::npos) return false;
  *out = std::strtod(json.c_str() + at + key.size(), nullptr);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_shuffle.json";
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
  const int reps = smoke ? 3 : 5;
  const size_t tasks_per_input = 4;

  std::vector<data::Workload> workloads;
  for (int qi : {1, 3}) {
    auto w = data::MakeA(qi, options.MakeGeneratorConfig());
    if (w.ok()) workloads.push_back(std::move(*w));
  }
  {
    auto w = data::MakeB(1, options.MakeGeneratorConfig());
    if (w.ok()) workloads.push_back(std::move(*w));
  }
  if (workloads.empty()) {
    std::fprintf(stderr, "no workloads built\n");
    return 1;
  }

  std::printf(
      "Shuffle hot path: flat fingerprint buffers vs. legacy Tuple/Message\n"
      "(%zu tuples/relation, %d reps, best-of; %d reduce partitions)\n\n",
      options.tuples, reps, kReducePartitions);

  int failures = 0;
  std::vector<WorkloadResult> results;
  for (const data::Workload& w : workloads) {
    auto job = BuildJob(w);
    if (!job.ok()) {
      std::fprintf(stderr, "FAIL %s: %s\n", w.name.c_str(),
                   job.status().ToString().c_str());
      ++failures;
      continue;
    }
    auto streams = RecordStreams(w, *job, tasks_per_input);
    if (!streams.ok()) {
      std::fprintf(stderr, "FAIL %s: %s\n", w.name.c_str(),
                   streams.status().ToString().c_str());
      ++failures;
      continue;
    }
    size_t emissions = 0;
    for (const TaskStream& s : *streams) emissions += s.size();

    WorkloadResult r;
    r.name = w.name;
    r.messages = emissions;

    Checksum legacy_sum;
    Checksum flat_sum;
    size_t legacy_records = 0;
    size_t flat_records = 0;
    const double legacy_s = SecondsOfBestRep(reps, [&] {
      legacy_sum = Checksum{};
      legacy_records = RunLegacy(*streams, &legacy_sum);
    });
    const double flat_s = SecondsOfBestRep(reps, [&] {
      flat_sum = Checksum{};
      flat_records = RunFlat(*streams, &flat_sum);
    });

    if (!(legacy_sum == flat_sum) || legacy_records != flat_records) {
      std::fprintf(stderr,
                   "FAIL %s: representations disagree (records %zu vs %zu, "
                   "groups %zu vs %zu, messages %zu vs %zu)\n",
                   w.name.c_str(), legacy_records, flat_records,
                   legacy_sum.groups, flat_sum.groups, legacy_sum.messages,
                   flat_sum.messages);
      ++failures;
      continue;
    }

    r.records = flat_records;
    r.legacy_rps = static_cast<double>(legacy_records) / legacy_s;
    r.flat_rps = static_cast<double>(flat_records) / flat_s;
    r.speedup = r.flat_rps / r.legacy_rps;
    results.push_back(r);

    std::printf(
        "%-4s %9zu records %9zu messages | legacy %10.0f rec/s | "
        "flat %10.0f rec/s | speedup %.2fx\n",
        r.name.c_str(), r.records, r.messages, r.legacy_rps, r.flat_rps,
        r.speedup);

    // Self-check: the 2x acceptance bar applies at realistic input sizes
    // (the 100k-tuple default). Smoke inputs are small enough that the
    // legacy hash map stays cache-resident, so smoke only sanity-checks
    // that flat still wins clearly; the committed-baseline gate below is
    // the smoke regression check.
    const double bar = smoke ? 1.4 : 2.0;
    if (r.speedup < bar) {
      std::fprintf(stderr, "FAIL %s: speedup %.2fx below the %.1fx bar\n",
                   r.name.c_str(), r.speedup, bar);
      ++failures;
    }
  }

  // Machine-readable results.
  {
    std::ostringstream json;
    json << "{\n  \"bench\": \"shuffle_hotpath\",\n  \"tuples\": "
         << options.tuples << ",\n  \"reduce_partitions\": "
         << kReducePartitions << ",\n  \"workloads\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
      const WorkloadResult& r = results[i];
      json << "    {\"name\": \"" << r.name << "\", \"records\": " << r.records
           << ", \"messages\": " << r.messages
           << ", \"legacy_records_per_sec\": "
           << StrFormat("%.0f", r.legacy_rps)
           << ", \"flat_records_per_sec\": " << StrFormat("%.0f", r.flat_rps)
           << ", \"speedup\": " << StrFormat("%.3f", r.speedup) << "}"
           << (i + 1 < results.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::ofstream out(out_path);
    out << json.str();
    std::printf("\nwrote %s\n", out_path.c_str());
  }

  // Regression gate against a committed baseline: compare the speedup
  // ratio (machine-independent), not absolute rates.
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
      // Smoke runs on arbitrary (CI) hardware compare against a baseline
      // committed from a different machine: the ratio is mostly hardware
      // independent but not perfectly (allocator, cache size, runner
      // contention), so smoke gets a wider band; the absolute smoke
      // sanity bar above still backstops real regressions.
      const double tolerance = smoke ? 0.7 : 0.8;
      for (const WorkloadResult& r : results) {
        double base = 0.0;
        if (!BaselineSpeedup(json, r.name, &base)) {
          std::fprintf(stderr, "FAIL: baseline has no entry for %s\n",
                       r.name.c_str());
          ++failures;
          continue;
        }
        if (r.speedup < tolerance * base) {
          std::fprintf(stderr,
                       "FAIL %s: speedup %.2fx regressed >%.0f%% vs baseline "
                       "%.2fx\n",
                       r.name.c_str(), r.speedup, 100.0 * (1.0 - tolerance),
                       base);
          ++failures;
        } else {
          std::printf("baseline %s: %.2fx vs %.2fx committed — ok\n",
                      r.name.c_str(), r.speedup, base);
        }
      }
    }
  }

  return failures == 0 ? 0 : 1;
}
