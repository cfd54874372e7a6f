#include "common/config.h"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <string_view>

namespace gumbo::common {

namespace {

// Parse helpers: a value that does not parse leaves the knob unset.

// strtoull accepts a leading '-' after whitespace and negates modulo
// 2^64, so "-1" would become a worker count or tuple count of ~1.8e19.
bool Negative(const char* v) {
  while (std::isspace(static_cast<unsigned char>(*v))) ++v;
  return *v == '-';
}

// Unsigned integer, any trailing garbage tolerated (strtoull semantics
// the scheduler/bench knobs always had).
std::optional<uint64_t> U64Prefix(const char* v) {
  if (v == nullptr || Negative(v)) return std::nullopt;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end == v) return std::nullopt;
  return static_cast<uint64_t>(parsed);
}

// Unsigned integer, full-string strict (the soak harness's EnvU64).
std::optional<uint64_t> U64Strict(const char* v) {
  if (v == nullptr || *v == '\0' || Negative(v)) return std::nullopt;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end == nullptr || *end != '\0') return std::nullopt;
  return static_cast<uint64_t>(parsed);
}

// Boolean flag: empty or missing = unset, "0" = false, anything else =
// true (the GUMBO_DISABLE_* convention).
std::optional<bool> Flag(const char* v) {
  if (v == nullptr || v[0] == '\0') return std::nullopt;
  return std::string_view(v) != "0";
}

std::optional<double> PositiveF64(const char* v) {
  if (v == nullptr) return std::nullopt;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v || parsed <= 0.0) return std::nullopt;
  return parsed;
}

std::optional<std::string> NonEmptyStr(const char* v) {
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

// The innermost test override; null = use the env-parsed config.
std::atomic<const RuntimeConfig*> g_override{nullptr};

template <typename T>
void DescribeKnob(std::string* out, const char* name,
                  const std::optional<T>& v) {
  *out += "  ";
  *out += name;
  size_t pad = 26;
  for (const char* c = name; *c != '\0'; ++c) {
    if (pad > 0) --pad;
  }
  out->append(pad, ' ');
  *out += "= ";
  if (!v.has_value()) {
    *out += "(unset)";
  } else if constexpr (std::is_same_v<T, std::string>) {
    *out += *v;
  } else if constexpr (std::is_same_v<T, bool>) {
    *out += *v ? "1" : "0";
  } else if constexpr (std::is_same_v<T, double>) {
    *out += std::to_string(*v);
  } else {
    *out += std::to_string(static_cast<unsigned long long>(*v));
  }
  *out += "\n";
}

}  // namespace

RuntimeConfig RuntimeConfig::FromEnv() {
  RuntimeConfig c;
  // Scheduler: GUMBO_MORSEL_ROWS and GUMBO_SCHED_WORKERS require > 0.
  if (auto v = U64Prefix(std::getenv("GUMBO_MORSEL_ROWS")); v && *v > 0) {
    c.morsel_rows = static_cast<size_t>(*v);
  }
  if (auto v = U64Prefix(std::getenv("GUMBO_SCHED_WORKERS")); v && *v > 0) {
    c.sched_workers = static_cast<size_t>(*v);
  }

  c.disable_combiners = Flag(std::getenv("GUMBO_DISABLE_COMBINERS"));
  c.disable_filters = Flag(std::getenv("GUMBO_DISABLE_FILTERS"));

  c.fault_seed = U64Prefix(std::getenv("GUMBO_FAULT_SEED"));
  c.fault_rate = PositiveF64(std::getenv("GUMBO_FAULT_RATE"));
  c.fault_sites = NonEmptyStr(std::getenv("GUMBO_FAULT_SITES"));

  c.disable_delta = Flag(std::getenv("GUMBO_DISABLE_DELTA"));

  c.soak_seed = U64Strict(std::getenv("GUMBO_SOAK_SEED"));
  c.soak_iters = U64Strict(std::getenv("GUMBO_SOAK_ITERS"));
  c.soak_tuples = U64Strict(std::getenv("GUMBO_SOAK_TUPLES"));
  c.soak_mutate = U64Strict(std::getenv("GUMBO_SOAK_MUTATE"));

  if (auto v = U64Prefix(std::getenv("GUMBO_BENCH_TUPLES"))) {
    c.bench_tuples = *v < 100 ? 100 : static_cast<size_t>(*v);
  }
  c.bench_seed = U64Prefix(std::getenv("GUMBO_BENCH_SEED"));
  return c;
}

const RuntimeConfig& RuntimeConfig::Get() {
  if (const RuntimeConfig* o = g_override.load(std::memory_order_acquire)) {
    return *o;
  }
  static const RuntimeConfig* parsed = new RuntimeConfig(FromEnv());
  return *parsed;
}

std::string RuntimeConfig::Describe() const {
  std::string s = "runtime config (GUMBO_* environment overrides):\n";
  DescribeKnob(&s, "GUMBO_MORSEL_ROWS", morsel_rows);
  DescribeKnob(&s, "GUMBO_SCHED_WORKERS", sched_workers);
  DescribeKnob(&s, "GUMBO_DISABLE_COMBINERS", disable_combiners);
  DescribeKnob(&s, "GUMBO_DISABLE_FILTERS", disable_filters);
  DescribeKnob(&s, "GUMBO_FAULT_SEED", fault_seed);
  DescribeKnob(&s, "GUMBO_FAULT_RATE", fault_rate);
  DescribeKnob(&s, "GUMBO_FAULT_SITES", fault_sites);
  DescribeKnob(&s, "GUMBO_DISABLE_DELTA", disable_delta);
  DescribeKnob(&s, "GUMBO_SOAK_SEED", soak_seed);
  DescribeKnob(&s, "GUMBO_SOAK_ITERS", soak_iters);
  DescribeKnob(&s, "GUMBO_SOAK_TUPLES", soak_tuples);
  DescribeKnob(&s, "GUMBO_SOAK_MUTATE", soak_mutate);
  DescribeKnob(&s, "GUMBO_BENCH_TUPLES", bench_tuples);
  DescribeKnob(&s, "GUMBO_BENCH_SEED", bench_seed);
  return s;
}

RuntimeConfig::ScopedOverride::ScopedOverride(RuntimeConfig cfg)
    : cfg_(std::make_unique<const RuntimeConfig>(std::move(cfg))),
      prev_(g_override.exchange(cfg_.get(), std::memory_order_acq_rel)) {}

RuntimeConfig::ScopedOverride::~ScopedOverride() {
  g_override.store(prev_, std::memory_order_release);
}

}  // namespace gumbo::common
