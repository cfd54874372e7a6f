// Reproduces Table 3 (paper §5.4): the increase in net and total time
// when the conditional selectivity rate changes from 0.1 (high
// selectivity) to 0.9 (low selectivity), for queries A1-A3 under
// SEQ / PAR / GREEDY. Also prints the full sweep.
//
// Extended with a calibration study (DESIGN.md §10): on Zipf-skewed
// guards with cold conditionals, the uniform-calibrated cost model works
// from catalog upper bounds that wildly overestimate how much a semi-
// join chain shrinks, so it mis-ranks the multi-round strategies; after
// the self-calibration loop observes a few executions of the same
// regime, the re-estimated ranking flips to the observed-fastest
// strategy.
#include <cstdio>
#include <map>

#include "bench_harness.h"
#include "common/str_util.h"
#include "common/table_printer.h"
#include "cost/calibration.h"
#include "sgf/parser.h"

using namespace gumbo;
using namespace gumbo::bench;

namespace {

// The study query: a 3-conditional chain whose SEQ intermediates shrink
// hard under cold conditionals (every candidate strategy applies).
constexpr const char* kStudyQuery =
    "Z := SELECT (x, y, z) FROM G(x, y, z) WHERE S(x) AND T(y) AND U(z);";

struct RegimeSpec {
  const char* name;
  double theta;       // guard skew (ZipfGuard)
  bool cold;          // cold vs hot conditionals
  double selectivity;
};

Database MakeSkewDb(const data::GeneratorConfig& g, const RegimeSpec& spec) {
  data::Generator gen(g);
  Database db;
  db.Put(gen.ZipfGuard("G", 3, spec.theta));
  for (const char* c : {"S", "T", "U"}) {
    db.Put(spec.cold ? gen.ColdConditional(c, 1) : gen.HotConditional(c, 1));
  }
  return db;
}

struct StudyRun {
  bool ok = false;
  double total = 0.0;
};

// Plans + executes one strategy; optionally estimates through `cal` and
// feeds the observed stats back into `feed` (the calibration loop).
StudyRun RunOne(const sgf::SgfQuery& query, const Database& db,
                const cost::ClusterConfig& cluster, plan::Strategy strategy,
                const cost::CalibrationStore* cal,
                cost::CalibrationStore* feed) {
  plan::PlannerOptions opts;
  opts.strategy = strategy;
  opts.calibration = cal;
  plan::Planner planner(cluster, opts);
  auto plan = planner.Plan(query, db);
  if (!plan.ok()) return {};
  mr::Engine engine(cluster);
  Database out;
  auto run = plan::ExecutePlanOnSnapshot(*plan, &engine, db, &out);
  if (!run.ok()) return {};
  if (feed != nullptr) plan::CalibrateFromExecution(*plan, run->stats, feed);
  // ChoosePlan ranks by summed estimated job cost — the §5.3 total-time
  // analogue — so the observed ground truth is total (cluster work) time.
  return {true, run->metrics.total_time};
}

void RunCalibrationStudy(const BenchOptions& base) {
  std::printf(
      "\n==== Calibration study: strategy choice on Zipf data "
      "(DESIGN.md §10) ====\n"
      "uncal = uniform-calibrated model (no observations for the skewed\n"
      "regime), cal = after self-calibration on observed executions.\n\n");
  const std::vector<RegimeSpec> regimes = {
      {"zipf1.2-cold", 1.2, true, 0.3},
      {"zipf1.5-cold", 1.5, true, 0.3},
      {"zipf1.5-hot", 1.5, false, 0.3},
  };
  const std::vector<plan::Strategy> candidates = {
      plan::Strategy::kOneRound, plan::Strategy::kSeq, plan::Strategy::kPar,
      plan::Strategy::kGreedy};

  auto query = sgf::ParseSgf(kStudyQuery, &Dictionary::Global());
  if (!query.ok()) {
    std::fprintf(stderr, "study query: %s\n",
                 query.status().ToString().c_str());
    return;
  }

  TablePrinter tp({"Regime", "Observed best", "uncal pick", "cal pick",
                   "total uncal (s)", "total cal (s)", "flip"});
  bool any_corrected_misplan = false;
  for (const RegimeSpec& spec : regimes) {
    data::GeneratorConfig g = base.MakeGeneratorConfig();
    g.selectivity = spec.selectivity;
    const Database db = MakeSkewDb(g, spec);

    // Ground truth + training: execute every candidate, observing each
    // strategy's actual net time and feeding the calibration store. Two
    // rounds settle the geometric-mean factors.
    cost::CalibrationStore store;
    std::map<plan::Strategy, double> observed;
    for (int round = 0; round < 2; ++round) {
      for (plan::Strategy s : candidates) {
        StudyRun r = RunOne(*query, db, base.cluster, s,
                            round > 0 ? &store : nullptr, &store);
        if (r.ok && round == 0) observed[s] = r.total;
      }
    }
    if (observed.empty()) continue;
    plan::Strategy best = observed.begin()->first;
    for (const auto& [s, net] : observed) {
      if (net < observed[best]) best = s;
    }

    plan::PlannerOptions opts;  // uncal: no calibration store
    auto uncal = plan::ChoosePlan(*query, db, base.cluster, opts, candidates);
    opts.calibration = &store;
    auto cal = plan::ChoosePlan(*query, db, base.cluster, opts, candidates);
    if (!uncal.ok() || !cal.ok()) continue;

    const bool misplanned = uncal->strategy != best;
    const bool corrected = cal->strategy == best;
    any_corrected_misplan |= misplanned && corrected;
    tp.AddRow({spec.name, plan::StrategyName(best),
               plan::StrategyName(uncal->strategy),
               plan::StrategyName(cal->strategy),
               StrFormat("%.0f", observed[uncal->strategy]),
               StrFormat("%.0f", observed[cal->strategy]),
               misplanned ? (corrected ? "corrected" : "still off")
                          : "no misplan"});
  }
  std::printf("%s", tp.Render().c_str());
  std::printf(any_corrected_misplan
                  ? "\ncalibration corrected a uniform-model misplan\n"
                  : "\nWARNING: no misplan corrected in this configuration\n");
}

}  // namespace

int main() {
  BenchOptions base = BenchOptions::FromEnv();
  std::printf("Table 3: selectivity sweep on A1-A3\n\n");

  const std::vector<double> rates = {0.1, 0.3, 0.5, 0.7, 0.9};
  const std::vector<std::pair<std::string, plan::Strategy>> strategies = {
      {"SEQ", plan::Strategy::kSeq},
      {"PAR", plan::Strategy::kPar},
      {"GREEDY", plan::Strategy::kGreedy},
  };

  // results[query][strategy][rate]
  std::map<std::string, std::map<std::string, std::map<double, CellResult>>>
      results;
  for (int qi = 1; qi <= 3; ++qi) {
    for (double rate : rates) {
      BenchOptions options = base;
      options.selectivity = rate;
      auto w = data::MakeA(qi, options.MakeGeneratorConfig());
      if (!w.ok()) {
        std::fprintf(stderr, "A%d: %s\n", qi, w.status().ToString().c_str());
        return 1;
      }
      for (const auto& [name, strategy] : strategies) {
        results[w->name][name][rate] = RunStrategy(*w, strategy, options);
      }
      std::printf("  ... A%d selectivity %.1f done\n", qi, rate);
    }
  }

  // Full sweep detail.
  for (const char* metric : {"net", "total"}) {
    bool net = std::string(metric) == "net";
    std::printf("\n-- %s time (s) by selectivity rate --\n", metric);
    std::vector<std::string> header = {"Strategy/Query"};
    for (double r : rates) header.push_back(StrFormat("%.1f", r));
    TablePrinter tp(header);
    for (const auto& [qname, per_strategy] : results) {
      for (const auto& [sname, per_rate] : per_strategy) {
        std::vector<std::string> row = {sname + " " + qname};
        for (double r : rates) {
          const CellResult& c = per_rate.at(r);
          row.push_back(c.ok ? StrFormat("%.0f", net
                                                     ? c.metrics.net_time
                                                     : c.metrics.total_time)
                             : "--");
        }
        tp.AddRow(std::move(row));
      }
    }
    std::printf("%s", tp.Render().c_str());
  }

  // The paper's Table 3: percentage increase from 0.1 to 0.9.
  std::printf("\n==== Table 3: increase from selectivity 0.1 to 0.9 ====\n");
  TablePrinter tp({"", "Net A1", "Net A2", "Net A3", "Total A1", "Total A2",
                   "Total A3"});
  for (const auto& [sname, unused] : std::map<std::string, int>{
           {"SEQ", 0}, {"PAR", 0}, {"GREEDY", 0}}) {
    std::vector<std::string> row = {sname};
    for (bool net : {true, false}) {
      for (int qi = 1; qi <= 3; ++qi) {
        std::string qname = "A" + std::to_string(qi);
        const CellResult& lo = results[qname][sname][0.1];
        const CellResult& hi = results[qname][sname][0.9];
        if (lo.ok && hi.ok) {
          double a = net ? lo.metrics.net_time : lo.metrics.total_time;
          double b = net ? hi.metrics.net_time : hi.metrics.total_time;
          row.push_back(StrFormat("%.0f%%", 100.0 * (b - a) / a));
        } else {
          row.push_back("--");
        }
      }
    }
    tp.AddRow(std::move(row));
  }
  std::printf("%s", tp.Render().c_str());

  RunCalibrationStudy(base);
  return 0;
}
