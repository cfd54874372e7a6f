// gumbo_benchmark: end-to-end and per-layer measurements of the library on
// four workloads (README.md).
//
//   gumbo_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//       Runs one workload in this process. Prints the measured size of its
//       data ("data WORKLOAD: ..."), then every metric as
//       "metric WORKLOAD NAME VALUE UNIT", then, as the last line, one JSON
//       object {"correct", "attempted", "failed", "metrics"} holding the
//       end-to-end metrics (--trace 0) or the per-layer ones (--trace 1,
//       which adds the traced run after the timed one).
//   gumbo_benchmark [--seed N] [--seconds S] [--repeat R] [--out FILE]
//       Runs every workload R times (seeds N, N+1, ...), each run in its own
//       child process (this binary again, with --workload and --trace 1),
//       prints each metric's median, quartiles and range, and writes them
//       to FILE as JSON.
//   --trace-file FILE
//       Also writes the traced spans as Chrome trace-event JSON; when
//       running every workload, one file per workload (FILE with the
//       workload name before its extension), from the first repeat.
//
// Exits non-zero when any operation failed or returned a wrong result.
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"
#include "workloads.h"

extern char** environ;

namespace gumbo::bm {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10.0;  // BENCHMARK.json's run_seconds
  bool trace = false;
  std::string trace_file;
  int repeat = 1;
  std::string out;
};

int Usage(const std::string& problem) {
  std::fprintf(stderr,
               "gumbo_benchmark: %s\n"
               "usage: gumbo_benchmark [--workload NAME] [--seed N] "
               "[--seconds S] [--trace 0|1]\n"
               "                       [--trace-file FILE] [--repeat R] "
               "[--out FILE]\n",
               problem.c_str());
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a, std::string* problem) {
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *problem = flag + " needs a value";
      return false;
    }
    const std::string v = argv[i + 1];
    char* end = nullptr;
    bool ok = true;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      ok = !v.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      ok = *end == '\0' && a->seconds > 0.0;
    } else if (flag == "--trace") {
      ok = v == "0" || v == "1";
      a->trace = v == "1";
    } else if (flag == "--trace-file") {
      a->trace_file = v;
    } else if (flag == "--repeat") {
      a->repeat = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      ok = *end == '\0' && a->repeat >= 1;
    } else if (flag == "--out") {
      a->out = v;
    } else {
      *problem = "unknown flag " + flag;
      return false;
    }
    if (!ok) {
      *problem = "bad value for " + flag + ": " + v;
      return false;
    }
  }
  return true;
}

// RuntimeConfig would silently change the morsel size, shard count or
// caches being measured.
std::vector<std::string> GumboEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "GUMBO_", 6) == 0) {
      names.push_back(std::string(*e, std::strcspn(*e, "=")));
    }
  }
  return names;
}

void PrintMetrics(const std::string& workload,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %s %s %.9g %s\n", workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int RunOne(const Args& a) {
  Tracer tracer;
  WorkloadResult r =
      RunWorkload(a.workload, {a.seed, a.seconds}, a.trace ? &tracer : nullptr);
  std::vector<Metric>& reported = a.trace ? r.per_layer : r.end_to_end;
  for (Metric& m : reported) {
    if (std::isfinite(m.value)) continue;
    ++r.failed;
    r.errors.push_back(m.name + " is not finite");
    m.value = 0.0;
  }
  std::printf("data %s: %.2f MB of base relations; one query reads %.2f to "
              "%.2f MB (words and row fingerprints)\n",
              a.workload.c_str(), r.data.base_mb, r.data.query_min_mb,
              r.data.query_max_mb);
  PrintMetrics(a.workload, r.end_to_end);
  if (a.trace) {
    PrintMetrics(a.workload, r.per_layer);
    std::printf("self time by span (%s, traced run):\n%s", a.workload.c_str(),
                SelfTimeTable(tracer.Spans()).c_str());
    if (!a.trace_file.empty() && !tracer.WriteChromeTrace(a.trace_file)) {
      std::fprintf(stderr, "gumbo_benchmark: cannot write %s\n",
                   a.trace_file.c_str());
      return 1;
    }
  }
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "gumbo_benchmark: %s: FAILED %s\n",
                 a.workload.c_str(), e.c_str());
  }
  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < reported.size(); ++i) {
    json += (i > 0 ? ", \"" : "\"") + reported[i].name +
            "\": {\"value\": " + JsonNumber(reported[i].value) +
            ", \"unit\": \"" + reported[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return r.failed == 0 ? 0 : 1;
}

// Runs `argv` with its standard output captured (and echoed); returns its
// exit status, -1 when it did not exit normally.
int RunChild(const std::vector<std::string>& argv, std::string* output) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return -1;
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    std::vector<char*> args;
    for (const std::string& s : argv) args.push_back(const_cast<char*>(s.c_str()));
    args.push_back(nullptr);
    execv(args[0], args.data());
    _exit(127);
  }
  close(fds[1]);
  char buf[4096];
  ssize_t n = 0;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
    std::fwrite(buf, 1, static_cast<size_t>(n), stdout);
    output->append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

std::string PerWorkloadPath(const std::string& path, const std::string& w) {
  const size_t slash = path.rfind('/');
  const size_t dot = path.rfind('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + "." + w;
  }
  return path.substr(0, dot) + "." + w + path.substr(dot);
}

struct Series {
  std::string unit;
  std::vector<double> values;
};

int RunAll(const Args& a) {
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (len <= 0) return Usage("cannot find this binary to re-run it");
  self[len] = '\0';

  // workload -> metric names in report order, and metric -> values.
  std::map<std::string, std::vector<std::string>> order;
  std::map<std::string, std::map<std::string, Series>> series;
  bool ok = true;
  for (int r = 0; r < a.repeat; ++r) {
    for (const std::string& w : WorkloadNames()) {
      char seconds[32];
      std::snprintf(seconds, sizeof(seconds), "%g", a.seconds);
      std::vector<std::string> argv = {self,      "--workload", w,
                                       "--seed",  std::to_string(a.seed + r),
                                       "--seconds", seconds, "--trace", "1"};
      if (!a.trace_file.empty() && r == 0) {
        argv.push_back("--trace-file");
        argv.push_back(PerWorkloadPath(a.trace_file, w));
      }
      std::string output;
      const int status = RunChild(argv, &output);
      if (status != 0) {
        std::fprintf(stderr, "gumbo_benchmark: %s (seed %llu) exited with %d\n",
                     w.c_str(), static_cast<unsigned long long>(a.seed + r),
                     status);
        ok = false;
      }
      std::istringstream lines(output);
      std::string line;
      while (std::getline(lines, line)) {
        std::istringstream f(line);
        std::string tag, workload, name, unit;
        double value = 0.0;
        if (!(f >> tag >> workload >> name >> value >> unit) || tag != "metric") {
          continue;
        }
        Series& s = series[w][name];
        if (s.values.empty() && r == 0) order[w].push_back(name);
        s.unit = unit;
        s.values.push_back(value);
      }
    }
  }

  std::string json = "{\"seed\": " + std::to_string(a.seed) +
                     ", \"seconds\": " + JsonNumber(a.seconds) +
                     ", \"repeat\": " + std::to_string(a.repeat) +
                     ", \"correct\": " + (ok ? "true" : "false") +
                     ", \"workloads\": {";
  std::printf("\n%-16s %-28s %-9s %12s %12s %12s %12s %12s\n", "workload",
              "metric", "unit", "median", "q1", "q3", "min", "max");
  bool first_w = true;
  for (const std::string& w : WorkloadNames()) {
    json += std::string(first_w ? "" : ", ") + "\"" + w + "\": {";
    first_w = false;
    bool first_m = true;
    for (const std::string& name : order[w]) {
      const Series& s = series[w][name];
      const Summary q = Summarize(s.values);
      std::printf("%-16s %-28s %-9s %12.6g %12.6g %12.6g %12.6g %12.6g\n",
                  w.c_str(), name.c_str(), s.unit.c_str(), q.median, q.q1,
                  q.q3, q.min, q.max);
      json += std::string(first_m ? "" : ", ") + "\"" + name +
              "\": {\"unit\": \"" + s.unit + "\", \"values\": [";
      first_m = false;
      for (size_t i = 0; i < s.values.size(); ++i) {
        json += (i > 0 ? ", " : "") + JsonNumber(s.values[i]);
      }
      json += "], \"median\": " + JsonNumber(q.median) +
              ", \"q1\": " + JsonNumber(q.q1) + ", \"q3\": " + JsonNumber(q.q3) +
              ", \"min\": " + JsonNumber(q.min) +
              ", \"max\": " + JsonNumber(q.max) + "}";
    }
    json += "}";
  }
  json += "}}\n";
  if (!a.out.empty()) {
    FILE* f = std::fopen(a.out.c_str(), "w");
    if (f == nullptr || std::fputs(json.c_str(), f) < 0 || std::fclose(f) != 0) {
      std::fprintf(stderr, "gumbo_benchmark: cannot write %s\n", a.out.c_str());
      return 1;
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace gumbo::bm

int main(int argc, char** argv) {
  using namespace gumbo::bm;
  Args args;
  std::string problem;
  if (!ParseArgs(argc, argv, &args, &problem)) return Usage(problem);
  const std::vector<std::string> env = GumboEnvironment();
  if (!env.empty()) {
    return Usage(env.front() +
                 " is set; GUMBO_* variables change what is measured");
  }
  const std::vector<std::string> broken = SelfCheck();
  for (const std::string& b : broken) {
    std::fprintf(stderr, "gumbo_benchmark: self-check failed: %s\n", b.c_str());
  }
  if (!broken.empty()) return 3;
  if (args.workload.empty()) return RunAll(args);
  bool known = false;
  for (const std::string& w : WorkloadNames()) known = known || w == args.workload;
  if (!known) return Usage("unknown workload " + args.workload);
  return RunOne(args);
}
