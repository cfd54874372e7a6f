#include "bench_harness.h"

#include <cstdio>

#include "common/config.h"
#include "common/str_util.h"
#include "mr/engine.h"

namespace gumbo::bench {

BenchOptions BenchOptions::FromEnv() {
  const common::RuntimeConfig& cfg = common::RuntimeConfig::Get();
  BenchOptions o;
  o.tuples = cfg.bench_tuples.value_or(o.tuples);
  o.seed = cfg.bench_seed.value_or(o.seed);
  return o;
}

CellResult RunStrategy(const data::Workload& w, plan::Strategy strategy,
                       const BenchOptions& options,
                       cost::CostModelVariant variant, ops::OpOptions op) {
  CellResult cell;
  plan::PlannerOptions popts;
  popts.strategy = strategy;
  popts.cost_variant = variant;
  popts.op = op;
  plan::Planner planner(options.cluster, popts);
  mr::Engine engine(options.cluster);
  auto plan = planner.Plan(w.query, w.db);
  if (!plan.ok()) {
    cell.error = plan.status().ToString();
    return cell;
  }
  Database outputs;
  auto result = plan::ExecutePlanOnSnapshot(*plan, &engine, w.db, &outputs);
  if (!result.ok()) {
    cell.error = result.status().ToString();
    return cell;
  }
  cell.ok = true;
  cell.metrics = result->metrics;
  return cell;
}

CellResult RunBaseline(const data::Workload& w, baselines::BaselineKind kind,
                       const BenchOptions& options) {
  CellResult cell;
  auto plan = baselines::PlanBaseline(kind, w.query, w.db);
  if (!plan.ok()) {
    cell.error = plan.status().ToString();
    return cell;
  }
  mr::Engine engine(options.cluster);
  Database outputs;
  auto result = plan::ExecutePlanOnSnapshot(*plan, &engine, w.db, &outputs);
  if (!result.ok()) {
    cell.error = result.status().ToString();
    return cell;
  }
  cell.ok = true;
  cell.metrics = result->metrics;
  return cell;
}

std::string FmtTime(const CellResult& r, double plan::Metrics::*field) {
  if (!r.ok) return "--";
  return StrFormat("%.0f", r.metrics.*field);
}

std::string FmtGb(const CellResult& r, double plan::Metrics::*field) {
  if (!r.ok) return "--";
  return StrFormat("%.1f", r.metrics.*field / 1024.0);
}

std::string FmtRel(const CellResult& r, const CellResult& base,
                   double plan::Metrics::*field) {
  if (!r.ok || !base.ok || base.metrics.*field <= 0.0) return "--";
  return StrFormat("%.0f%%", 100.0 * (r.metrics.*field) /
                                 (base.metrics.*field));
}

void PrintMetricBlock(const std::string& title,
                      const std::vector<std::string>& col_names,
                      const std::vector<std::vector<CellResult>>& rows,
                      const std::vector<std::string>& row_names) {
  struct MetricDef {
    const char* name;
    double plan::Metrics::*field;
    bool gb;
  };
  const MetricDef metrics[] = {
      {"Net time (s)", &plan::Metrics::net_time, false},
      {"Total time (s)", &plan::Metrics::total_time, false},
      {"Input (GB)", &plan::Metrics::hdfs_read_mb, true},
      {"Communication (GB)", &plan::Metrics::communication_mb, true},
  };
  std::printf("==== %s ====\n", title.c_str());
  for (const auto& m : metrics) {
    std::vector<std::string> header = {std::string(m.name)};
    for (const auto& c : col_names) header.push_back(c);
    TablePrinter abs(header);
    TablePrinter rel(header);
    for (size_t r = 0; r < rows.size(); ++r) {
      std::vector<std::string> abs_row = {row_names[r]};
      std::vector<std::string> rel_row = {row_names[r]};
      for (size_t c = 0; c < rows[r].size(); ++c) {
        abs_row.push_back(m.gb ? FmtGb(rows[r][c], m.field)
                               : FmtTime(rows[r][c], m.field));
        rel_row.push_back(FmtRel(rows[r][c], rows[r][0], m.field));
      }
      abs.AddRow(std::move(abs_row));
      rel.AddRow(std::move(rel_row));
    }
    std::printf("%s", abs.Render().c_str());
    std::printf("-- relative to %s --\n%s\n", col_names[0].c_str(),
                rel.Render().c_str());
  }

  // Scheduler view: how many rounds / jobs each strategy needs and how
  // long the round runtime took in real wall-clock.
  struct SchedDef {
    const char* name;
    std::string (*fmt)(const plan::Metrics&);
  };
  const SchedDef sched[] = {
      {"Rounds", [](const plan::Metrics& m) { return std::to_string(m.rounds); }},
      {"Jobs", [](const plan::Metrics& m) { return std::to_string(m.jobs); }},
      {"Max jobs/round",
       [](const plan::Metrics& m) { return std::to_string(m.max_jobs_per_round); }},
      {"Wall (ms)",
       [](const plan::Metrics& m) { return StrFormat("%.1f", m.wall_ms); }},
  };
  for (const auto& m : sched) {
    std::vector<std::string> header = {std::string(m.name)};
    for (const auto& c : col_names) header.push_back(c);
    TablePrinter table(header);
    for (size_t r = 0; r < rows.size(); ++r) {
      std::vector<std::string> row = {row_names[r]};
      for (size_t c = 0; c < rows[r].size(); ++c) {
        row.push_back(rows[r][c].ok ? m.fmt(rows[r][c].metrics)
                                    : std::string("--"));
      }
      table.AddRow(std::move(row));
    }
    std::printf("%s", table.Render().c_str());
  }
  std::printf("\n");
}

}  // namespace gumbo::bench
