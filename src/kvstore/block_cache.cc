#include "src/kvstore/block_cache.h"

namespace cdstore {

BlockCache::BlockCache(size_t capacity_bytes) : capacity_(capacity_bytes) {}

std::shared_ptr<const Bytes> BlockCache::Lookup(uint64_t file_number, uint64_t offset) {
  MutexLock lock(mu_);
  auto it = map_.find(Key{file_number, offset});
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // move to front
  return it->second->block;
}

std::shared_ptr<const Bytes> BlockCache::Insert(uint64_t file_number, uint64_t offset,
                                                Bytes block) {
  auto pinned = std::make_shared<const Bytes>(std::move(block));
  if (capacity_ == 0) {
    return pinned;
  }
  MutexLock lock(mu_);
  Key key{file_number, offset};
  auto it = map_.find(key);
  if (it != map_.end()) {
    usage_ -= it->second->block->size();
    lru_.erase(it->second);
    map_.erase(it);
  }
  usage_ += pinned->size();
  lru_.push_front(Entry{key, pinned});
  map_[key] = lru_.begin();
  while (usage_ > capacity_ && !lru_.empty()) {
    Entry& victim = lru_.back();
    usage_ -= victim.block->size();
    map_.erase(victim.key);
    lru_.pop_back();
  }
  return pinned;
}

void BlockCache::EraseFile(uint64_t file_number) {
  MutexLock lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key.file == file_number) {
      usage_ -= it->block->size();
      map_.erase(it->key);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
}

size_t BlockCache::usage_bytes() const {
  MutexLock lock(mu_);
  return usage_;
}

}  // namespace cdstore
