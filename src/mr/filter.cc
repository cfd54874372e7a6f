#include "mr/filter.h"

#include <algorithm>
#include <cmath>

namespace gumbo::mr {

namespace {

// Derives the second probe hash for double hashing (Kirsch–Mitzenmacher:
// bit_i = h1 + i * h2). The odd multiplier keeps h2 well-mixed even for
// sequential key hashes.
inline uint64_t SecondHash(uint64_t h) {
  uint64_t z = h ^ 0x94d049bb133111ebULL;
  z = (z ^ (z >> 29)) * 0xff51afd7ed558ccdULL;
  z = (z ^ (z >> 32)) | 1ULL;  // odd, so probes cycle through all bits
  return z;
}

}  // namespace

BloomFilter::BloomFilter(size_t expected_keys, double fpp) {
  const double n = static_cast<double>(std::max<size_t>(expected_keys, 1));
  const double p = std::min(std::max(fpp, 1e-9), 0.5);
  const double ln2 = std::log(2.0);
  // m = -n ln p / (ln 2)^2 bits, rounded up to whole 64-bit words.
  const double bits = std::ceil(-n * std::log(p) / (ln2 * ln2));
  const size_t words =
      std::max<size_t>(1, static_cast<size_t>(std::ceil(bits / 64.0)));
  words_.assign(words, 0);
  // k = (m/n) ln 2 hash functions, clamped to a sane range.
  const double m = static_cast<double>(words * 64);
  num_hashes_ = std::max(
      1, std::min(30, static_cast<int>(std::lround(m / n * ln2))));
}

void BloomFilter::Insert(uint64_t key_hash) {
  if (words_.empty()) return;  // default-constructed: nothing to set
  const uint64_t m = static_cast<uint64_t>(words_.size()) * 64;
  const uint64_t h2 = SecondHash(key_hash);
  uint64_t h = key_hash;
  for (int i = 0; i < num_hashes_; ++i) {
    const uint64_t bit = h % m;
    words_[bit >> 6] |= (1ULL << (bit & 63));
    h += h2;
  }
}

bool BloomFilter::MightContain(uint64_t key_hash) const {
  if (words_.empty()) return false;  // empty filter contains nothing
  const uint64_t m = static_cast<uint64_t>(words_.size()) * 64;
  const uint64_t h2 = SecondHash(key_hash);
  uint64_t h = key_hash;
  for (int i = 0; i < num_hashes_; ++i) {
    const uint64_t bit = h % m;
    if ((words_[bit >> 6] & (1ULL << (bit & 63))) == 0) return false;
    h += h2;
  }
  return true;
}

FilterSet BuildFilters(FilterPlan plan,
                       const std::vector<const Relation*>& inputs,
                       const SchedContext& ctx) {
  FilterSet& fs = plan.filters;
  // Passes grouped by filter: one morsel owns one filter, so no two
  // morsels ever write the same bits.
  std::vector<std::vector<const FilterPass*>> by_filter(fs.size());
  std::vector<bool> scanned(inputs.size(), false);
  for (const FilterPass& pass : plan.passes) {
    by_filter[pass.filter].push_back(&pass);
    scanned[pass.input] = true;
  }
  Scheduler::TaskGroup group(ctx);
  for (size_t f = 0; f < by_filter.size(); ++f) {
    if (by_filter[f].empty()) continue;
    group.Submit([&fs, &by_filter, &inputs, f] {
      BloomFilter* filter = fs.mutable_filter(f);
      for (const FilterPass* pass : by_filter[f]) {
        uint64_t h = 0;
        for (RowView fact : inputs[pass->input]->views()) {
          if (pass->key(fact, &h)) filter->Insert(h);
        }
      }
    });
  }
  group.Wait();
  double scan_mb = 0.0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (scanned[i]) scan_mb += inputs[i]->SizeMb();
  }
  fs.set_scan_mb(scan_mb);
  return std::move(fs);
}

}  // namespace gumbo::mr
