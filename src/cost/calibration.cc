#include "cost/calibration.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

namespace gumbo::cost {

namespace {

constexpr double kMinRatio = 1.0 / 64.0;
constexpr double kMaxRatio = 64.0;

}  // namespace

const char* SkewRegimeName(SkewRegime regime) {
  switch (regime) {
    case SkewRegime::kUniform:
      return "uniform";
    case SkewRegime::kModerate:
      return "moderate";
    case SkewRegime::kHeavy:
      return "heavy";
  }
  return "?";
}

const char* ChannelName(Channel channel) {
  switch (channel) {
    case Channel::kSampledOutput:
      return "sampled-output";
    case Channel::kCatalogInput:
      return "catalog-input";
    case Channel::kCatalogOutput:
      return "catalog-output";
    case Channel::kOutputBound:
      return "output-bound";
  }
  return "?";
}

SkewRegime ClassifyKeySkew(const Relation& rel, size_t sample_cap) {
  const size_t n = rel.size();
  if (n == 0 || rel.arity() == 0) return SkewRegime::kUniform;
  const size_t s = std::min(sample_cap, n);
  std::vector<uint64_t> keys(s);
  for (size_t k = 0; k < s; ++k) {
    keys[k] = rel.view(k * n / s).words()[0];  // stride sample, deterministic
  }
  // Equal keys are adjacent once sorted: each run is one distinct value.
  std::sort(keys.begin(), keys.end());
  size_t top = 0;
  size_t runs = 0;
  for (size_t i = 0; i < s;) {
    size_t j = i + 1;
    while (j < s && keys[j] == keys[i]) ++j;
    top = std::max(top, j - i);
    ++runs;
    i = j;
  }
  const double share = static_cast<double>(top) / static_cast<double>(s);
  const double distinct = static_cast<double>(runs);
  if (share >= 0.20) return SkewRegime::kHeavy;
  if (share >= std::max(0.04, 8.0 / distinct)) return SkewRegime::kModerate;
  return SkewRegime::kUniform;
}

CalibrationStore& CalibrationStore::operator=(const CalibrationStore& o) {
  if (this == &o) return *this;
  std::scoped_lock lock(mu_, o.mu_);
  for (size_t c = 0; c < kNumChannels; ++c) {
    for (size_t r = 0; r < kNumRegimes; ++r) {
      log_sum_[c][r] = o.log_sum_[c][r];
      count_[c][r] = o.count_[c][r];
    }
  }
  return *this;
}

void CalibrationStore::Observe(Channel channel, SkewRegime regime,
                               double estimated, double observed) {
  if (!(estimated > 0.0) || !(observed >= 0.0)) return;
  const double ratio =
      std::clamp(observed / estimated, kMinRatio, kMaxRatio);
  std::lock_guard<std::mutex> lock(mu_);
  log_sum_[static_cast<size_t>(channel)][static_cast<size_t>(regime)] +=
      std::log(ratio);
  ++count_[static_cast<size_t>(channel)][static_cast<size_t>(regime)];
}

double CalibrationStore::Factor(Channel channel, SkewRegime regime) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t c = static_cast<size_t>(channel);
  const size_t r = static_cast<size_t>(regime);
  if (count_[c][r] == 0) return 1.0;
  const double mean =
      std::exp(log_sum_[c][r] / static_cast<double>(count_[c][r]));
  return std::clamp(mean, kMinRatio, kMaxRatio);
}

uint64_t CalibrationStore::Observations(Channel channel,
                                        SkewRegime regime) const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_[static_cast<size_t>(channel)][static_cast<size_t>(regime)];
}

uint64_t CalibrationStore::TotalObservations() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (size_t c = 0; c < kNumChannels; ++c) {
    for (size_t r = 0; r < kNumRegimes; ++r) total += count_[c][r];
  }
  return total;
}

std::string CalibrationStore::Serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "gumbo-calibration v1\n";
  out.precision(17);
  for (size_t c = 0; c < kNumChannels; ++c) {
    for (size_t r = 0; r < kNumRegimes; ++r) {
      if (count_[c][r] == 0) continue;
      out << "cell " << ChannelName(static_cast<Channel>(c)) << " "
          << SkewRegimeName(static_cast<SkewRegime>(r)) << " "
          << count_[c][r] << " " << log_sum_[c][r] << "\n";
    }
  }
  return out.str();
}

Status CalibrationStore::Deserialize(const std::string& text) {
  double log_sum[kNumChannels][kNumRegimes] = {};
  uint64_t count[kNumChannels][kNumRegimes] = {};
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line.rfind("gumbo-calibration", 0) != 0) {
    return Status::InvalidArgument("not a gumbo-calibration file");
  }
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string tag, channel_name, regime_name, count_text;
    uint64_t n = 0;
    double sum = 0.0;
    if (!(ls >> tag)) continue;
    if (tag != "cell") continue;  // unknown lines are skipped, see header
    if (!(ls >> channel_name >> regime_name >> count_text >> sum)) {
      return Status::InvalidArgument("malformed calibration line: " + line);
    }
    // from_chars takes no sign, so "-1" cannot wrap to 2^64 - 1. Every
    // observation's log-ratio lies in [-ln 64, ln 64] (Observe clamps).
    const char* count_end = count_text.data() + count_text.size();
    const auto [count_stop, count_err] =
        std::from_chars(count_text.data(), count_end, n);
    if (count_err != std::errc() || count_stop != count_end || n == 0 ||
        !(std::abs(sum) <= static_cast<double>(n) * std::log(kMaxRatio) *
                               (1.0 + 1e-9))) {
      return Status::InvalidArgument("calibration cell out of range: " + line);
    }
    int ci = -1, ri = -1;
    for (size_t c = 0; c < kNumChannels; ++c) {
      if (channel_name == ChannelName(static_cast<Channel>(c))) {
        ci = static_cast<int>(c);
      }
    }
    for (size_t r = 0; r < kNumRegimes; ++r) {
      if (regime_name == SkewRegimeName(static_cast<SkewRegime>(r))) {
        ri = static_cast<int>(r);
      }
    }
    if (ci < 0 || ri < 0) continue;  // future channel/regime: skip
    log_sum[ci][ri] = sum;
    count[ci][ri] = n;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t c = 0; c < kNumChannels; ++c) {
    for (size_t r = 0; r < kNumRegimes; ++r) {
      log_sum_[c][r] = log_sum[c][r];
      count_[c][r] = count[c][r];
    }
  }
  return Status::Ok();
}

Status CalibrationStore::Save(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::Internal("cannot open " + path + " for writing");
  out << Serialize();
  if (!out.good()) return Status::Internal("write to " + path + " failed");
  return Status::Ok();
}

Status CalibrationStore::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return Deserialize(buf.str());
}

std::string CalibrationStore::ToString() const {
  std::ostringstream out;
  for (size_t c = 0; c < kNumChannels; ++c) {
    for (size_t r = 0; r < kNumRegimes; ++r) {
      const Channel ch = static_cast<Channel>(c);
      const SkewRegime rg = static_cast<SkewRegime>(r);
      if (Observations(ch, rg) == 0) continue;
      char line[128];
      std::snprintf(line, sizeof(line), "%-15s %-9s x%.3f (n=%llu)\n",
                    ChannelName(ch), SkewRegimeName(rg), Factor(ch, rg),
                    static_cast<unsigned long long>(Observations(ch, rg)));
      out << line;
    }
  }
  return out.str();
}

}  // namespace gumbo::cost
