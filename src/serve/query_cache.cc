#include "serve/query_cache.h"

namespace gumbo::serve {

std::shared_ptr<const QueryCache::Entry> QueryCache::Lookup(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(key);
  if (it == slots_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.entry;
}

void QueryCache::Insert(const std::string& key, Entry entry) {
  if (capacity_ == 0) return;
  auto shared = std::make_shared<const Entry>(std::move(entry));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(key);
  if (it != slots_.end()) {
    it->second.entry = std::move(shared);
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  while (slots_.size() >= capacity_) {
    slots_.erase(lru_.back());
    lru_.pop_back();
    ++counters_.evictions;
  }
  lru_.push_front(key);
  slots_.emplace(key, Slot{std::move(shared), lru_.begin()});
}

void QueryCache::Invalidate(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(key);
  if (it == slots_.end()) return;
  lru_.erase(it->second.lru_it);
  slots_.erase(it);
  ++counters_.invalidations;
}

void QueryCache::NoteHit() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.hits;
}

void QueryCache::NoteMiss() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.misses;
}

QueryCache::Counters QueryCache::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  Counters c = counters_;
  c.entries = slots_.size();  // gauge, derived here rather than tracked
  return c;
}

}  // namespace gumbo::serve
