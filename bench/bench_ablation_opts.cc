// Ablation of Gumbo's shuffle-level optimizations on GREEDY plans:
//
//   Block 1 — the paper's §5.1 toggles:
//     (1) message packing on/off,
//     (2) tuple-id references on/off;
//   Block 2 — the shuffle-volume optimization of DESIGN.md §5:
//     Bloom-filtered requests on/off, with a per-workload shuffle-volume
//     table (records, messages, filtered, communication GB).
//
// Workloads: A1 (guard sharing), A3 (key sharing), B1 (large
// conjunction). The binary doubles as the CI ablation smoke check
// (.github/workflows/ci.yml): it exits non-zero if the filtered column
// shuffles more records/messages/bytes than the unfiltered one, so a
// regression in the filters fails the build. The GUMBO_DISABLE_FILTERS
// environment knob (DESIGN.md §5.4) overrides every column; the
// invariant degrades to equality and still holds.
#include <cstdio>
#include <vector>

#include "bench_harness.h"
#include "common/str_util.h"

using namespace gumbo;
using namespace gumbo::bench;

namespace {

// One ablation block: runs `w` under GREEDY for each OpOptions column.
std::vector<CellResult> RunColumns(const data::Workload& w,
                                   const BenchOptions& options,
                                   const std::vector<ops::OpOptions>& cols) {
  std::vector<CellResult> row;
  for (const ops::OpOptions& op : cols) {
    row.push_back(RunStrategy(w, plan::Strategy::kGreedy, options,
                              cost::CostModelVariant::kGumbo, op));
  }
  return row;
}

void PrintVolumeTable(const std::vector<std::string>& col_names,
                      const std::vector<std::vector<CellResult>>& rows,
                      const std::vector<std::string>& row_names) {
  struct Def {
    const char* name;
    std::string (*fmt)(const plan::Metrics&);
  };
  const Def defs[] = {
      {"Shuffle records",
       [](const plan::Metrics& m) { return std::to_string(m.shuffle_records); }},
      {"Shuffle messages",
       [](const plan::Metrics& m) { return std::to_string(m.shuffle_messages); }},
      {"Filtered out",
       [](const plan::Metrics& m) { return std::to_string(m.filtered_messages); }},
      {"Shuffle (GB)",
       [](const plan::Metrics& m) {
         return StrFormat("%.2f", m.shuffle_mb / 1024.0);
       }},
      {"Communication (GB)",
       [](const plan::Metrics& m) {
         return StrFormat("%.2f", m.communication_mb / 1024.0);
       }},
      {"Filter bcast (MB)",
       [](const plan::Metrics& m) {
         return StrFormat("%.2f", m.filter_broadcast_mb);
       }},
  };
  for (const auto& d : defs) {
    std::vector<std::string> header = {std::string(d.name)};
    for (const auto& c : col_names) header.push_back(c);
    TablePrinter table(header);
    for (size_t r = 0; r < rows.size(); ++r) {
      std::vector<std::string> row = {row_names[r]};
      for (const CellResult& c : rows[r]) {
        row.push_back(c.ok ? d.fmt(c.metrics) : std::string("--"));
      }
      table.AddRow(std::move(row));
    }
    std::printf("%s", table.Render().c_str());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  BenchOptions options = BenchOptions::FromEnv();

  std::vector<data::Workload> workloads;
  for (int qi : {1, 3}) {
    auto w = data::MakeA(qi, options.MakeGeneratorConfig());
    if (w.ok()) workloads.push_back(std::move(*w));
  }
  {
    auto w = data::MakeB(1, options.MakeGeneratorConfig());
    if (w.ok()) workloads.push_back(std::move(*w));
  }
  std::vector<std::string> row_names;
  for (const auto& w : workloads) row_names.push_back(w.name);

  // ---- Block 1: message packing x tuple-id references -----------------------
  std::printf("Ablation: message packing x tuple-id references (GREEDY)\n\n");
  const std::vector<std::string> cols1 = {"pack+ids", "pack only", "ids only",
                                          "neither"};
  std::vector<std::vector<CellResult>> rows1;
  for (const auto& w : workloads) {
    std::vector<ops::OpOptions> cols;
    for (auto [pack, ids] : {std::pair{true, true},
                             std::pair{true, false},
                             std::pair{false, true},
                             std::pair{false, false}}) {
      ops::OpOptions op;
      op.pack_messages = pack;
      op.tuple_id_refs = ids;
      cols.push_back(op);
    }
    rows1.push_back(RunColumns(w, options, cols));
    std::printf("  ... %s done\n", w.name.c_str());
  }
  std::printf("\n");
  PrintMetricBlock("Ablation: columns relative to full optimizations", cols1,
                   rows1, row_names);

  // ---- Block 2: Bloom filters (DESIGN.md §5) -------------------------------
  std::printf("Ablation: Bloom filters (GREEDY, pack+ids on)\n\n");
  const std::vector<std::string> cols2 = {"filters", "none"};
  std::vector<std::vector<CellResult>> rows2;
  for (const auto& w : workloads) {
    std::vector<ops::OpOptions> cols;
    for (bool filt : {true, false}) {
      ops::OpOptions op;
      op.bloom_filters = filt;
      cols.push_back(op);
    }
    rows2.push_back(RunColumns(w, options, cols));
    std::printf("  ... %s done\n", w.name.c_str());
  }
  std::printf("\n");
  PrintMetricBlock("Ablation: columns relative to filters", cols2, rows2,
                   row_names);
  PrintVolumeTable(cols2, rows2, row_names);

  // ---- Smoke invariant (consumed by CI): the filtered plan never shuffles
  // more than the unfiltered one, and every run must have succeeded.
  int failures = 0;
  for (size_t r = 0; r < rows2.size(); ++r) {
    const CellResult& opt = rows2[r][0];      // filters
    const CellResult& base = rows2[r].back(); // none
    if (!opt.ok || !base.ok) {
      std::printf("FAIL %s: run error (%s)\n", row_names[r].c_str(),
                  (!opt.ok ? opt.error : base.error).c_str());
      ++failures;
      continue;
    }
    const auto& mo = opt.metrics;
    const auto& mb = base.metrics;
    if (mo.shuffle_records > mb.shuffle_records ||
        mo.shuffle_messages > mb.shuffle_messages ||
        mo.shuffle_mb > mb.shuffle_mb + 1e-9) {
      std::printf(
          "FAIL %s: filtered shuffle exceeds baseline "
          "(records %llu vs %llu, messages %llu vs %llu, shuffle %.2f vs "
          "%.2f MB)\n",
          row_names[r].c_str(),
          static_cast<unsigned long long>(mo.shuffle_records),
          static_cast<unsigned long long>(mb.shuffle_records),
          static_cast<unsigned long long>(mo.shuffle_messages),
          static_cast<unsigned long long>(mb.shuffle_messages),
          mo.shuffle_mb, mb.shuffle_mb);
      ++failures;
      continue;
    }
    double rec_cut = mb.shuffle_messages > 0
                         ? 100.0 * (1.0 - static_cast<double>(
                                              mo.shuffle_messages) /
                                              static_cast<double>(
                                                  mb.shuffle_messages))
                         : 0.0;
    double shf_cut = mb.shuffle_mb > 0.0
                         ? 100.0 * (1.0 - mo.shuffle_mb / mb.shuffle_mb)
                         : 0.0;
    std::printf("OK   %s: shuffle messages -%.1f%%, shuffle bytes -%.1f%%\n",
                row_names[r].c_str(), rec_cut, shf_cut);
  }
  return failures == 0 ? 0 : 1;
}
