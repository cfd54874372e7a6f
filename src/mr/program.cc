#include "mr/program.h"

#include <algorithm>
#include <queue>

#include "mr/runtime.h"

namespace gumbo::mr {

size_t Program::AddJob(JobSpec spec, std::vector<size_t> deps) {
  for (size_t d : deps) {
    (void)d;
    assert(d < jobs_.size() && "dependency on a job not yet added");
  }
  jobs_.push_back(std::move(spec));
  deps_.push_back(std::move(deps));
  return jobs_.size() - 1;
}

int Program::Rounds() const {
  return static_cast<int>(Runtime::JobRounds(*this).size());
}

std::string Program::ToString() const {
  std::string out;
  for (size_t i = 0; i < jobs_.size(); ++i) {
    out += "[" + std::to_string(i) + "] " + jobs_[i].name;
    if (!deps_[i].empty()) {
      out += " <- {";
      for (size_t k = 0; k < deps_[i].size(); ++k) {
        if (k > 0) out += ", ";
        out += std::to_string(deps_[i][k]);
      }
      out += "}";
    }
    out += "\n";
  }
  return out;
}

namespace {

// State of one job inside the scheduling simulation.
struct SimJob {
  double ready_time = 0.0;  // max over dependency finish times + overhead
  size_t maps_pending = 0;  // not yet started
  size_t maps_running = 0;
  size_t reduces_pending = 0;
  size_t reduces_running = 0;
  bool maps_done = false;
  bool done = false;
  bool propagated = false;  // completion already forwarded to successors
  double finish_time = 0.0;
  size_t next_map = 0;     // index into sorted map task costs
  size_t next_reduce = 0;  // index into sorted reduce task costs
  std::vector<double> map_costs;     // sorted descending (LPT)
  std::vector<double> reduce_costs;  // sorted descending
};

}  // namespace

double SimulateNetTime(const std::vector<JobStats>& jobs,
                       const std::vector<std::vector<size_t>>& deps,
                       const cost::ClusterConfig& config) {
  const size_t n = jobs.size();
  if (n == 0) return 0.0;

  std::vector<SimJob> sim(n);
  std::vector<std::vector<size_t>> succ(n);
  std::vector<size_t> missing_deps(n, 0);
  for (size_t i = 0; i < n; ++i) {
    sim[i].map_costs = jobs[i].map_task_costs;
    sim[i].reduce_costs = jobs[i].reduce_task_costs;
    std::sort(sim[i].map_costs.rbegin(), sim[i].map_costs.rend());
    std::sort(sim[i].reduce_costs.rbegin(), sim[i].reduce_costs.rend());
    sim[i].maps_pending = sim[i].map_costs.size();
    sim[i].reduces_pending = sim[i].reduce_costs.size();
    missing_deps[i] = deps[i].size();
    for (size_t d : deps[i]) succ[d].push_back(i);
  }

  int free_map_slots = config.TotalMapSlots();
  int free_reduce_slots = config.TotalReduceSlots();

  // Event queue: (time, kind, job, cost-of-finished-task-kind).
  enum class EventKind { kJobReady, kMapDone, kReduceDone };
  struct Event {
    double time;
    EventKind kind;
    size_t job;
  };
  auto cmp = [](const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    // Deterministic tie-break.
    if (a.kind != b.kind) return static_cast<int>(a.kind) > static_cast<int>(b.kind);
    return a.job > b.job;
  };
  std::priority_queue<Event, std::vector<Event>, decltype(cmp)> events(cmp);

  std::vector<bool> released(n, false);
  auto release_if_ready = [&](size_t j, double now) {
    if (released[j] || missing_deps[j] != 0) return;
    released[j] = true;
    // Job startup overhead delays the first task.
    sim[j].ready_time = now + config.costs.job_overhead;
    events.push({sim[j].ready_time, EventKind::kJobReady, j});
  };
  for (size_t i = 0; i < n; ++i) release_if_ready(i, 0.0);

  double now = 0.0;
  double makespan = 0.0;

  // Starts as many pending tasks as slots allow. Jobs scanned in index
  // order (deterministic); within a job, longest task first (LPT).
  auto schedule = [&]() {
    for (size_t j = 0; j < n && free_map_slots > 0; ++j) {
      SimJob& s = sim[j];
      if (!released[j] || s.ready_time > now) continue;
      while (free_map_slots > 0 && s.maps_pending > 0) {
        double c = s.map_costs[s.next_map++];
        --s.maps_pending;
        ++s.maps_running;
        --free_map_slots;
        events.push({now + c, EventKind::kMapDone, j});
      }
    }
    for (size_t j = 0; j < n && free_reduce_slots > 0; ++j) {
      SimJob& s = sim[j];
      if (!released[j] || !s.maps_done || s.done) continue;
      while (free_reduce_slots > 0 && s.reduces_pending > 0) {
        double c = s.reduce_costs[s.next_reduce++];
        --s.reduces_pending;
        ++s.reduces_running;
        --free_reduce_slots;
        events.push({now + c, EventKind::kReduceDone, j});
      }
    }
  };

  auto maybe_finish_maps = [&](size_t j) {
    SimJob& s = sim[j];
    if (!s.maps_done && s.maps_pending == 0 && s.maps_running == 0) {
      s.maps_done = true;
      if (s.reduce_costs.empty()) {
        // Map-only job (not used by gumbo's operators, but supported).
        s.done = true;
        s.finish_time = now;
      }
    }
  };

  auto maybe_finish_job = [&](size_t j) {
    SimJob& s = sim[j];
    if (!s.done && s.maps_done && s.reduces_pending == 0 &&
        s.reduces_running == 0) {
      s.done = true;
      s.finish_time = now;
    }
  };

  while (!events.empty()) {
    Event e = events.top();
    events.pop();
    now = e.time;
    switch (e.kind) {
      case EventKind::kJobReady: {
        // Handle empty jobs (no tasks at all).
        maybe_finish_maps(e.job);
        maybe_finish_job(e.job);
        break;
      }
      case EventKind::kMapDone: {
        SimJob& s = sim[e.job];
        --s.maps_running;
        ++free_map_slots;
        maybe_finish_maps(e.job);
        break;
      }
      case EventKind::kReduceDone: {
        SimJob& s = sim[e.job];
        --s.reduces_running;
        ++free_reduce_slots;
        maybe_finish_job(e.job);
        break;
      }
    }
    if (sim[e.job].done && !sim[e.job].propagated) {
      sim[e.job].propagated = true;
      makespan = std::max(makespan, sim[e.job].finish_time);
      for (size_t v : succ[e.job]) {
        if (missing_deps[v] > 0) {
          --missing_deps[v];
          release_if_ready(v, now);
        }
      }
    }
    schedule();
  }
  return makespan;
}

}  // namespace gumbo::mr
