// Container management (§4.5): per-user in-memory open containers capped at
// 4MB (spatial locality — a container holds only one user's data), sealed
// to the storage backend when full, and one LRU cache of sealed container
// images to cut backend reads.
#ifndef CDSTORE_SRC_STORAGE_CONTAINER_STORE_H_
#define CDSTORE_SRC_STORAGE_CONTAINER_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "src/kvstore/block_cache.h"
#include "src/storage/backend.h"
#include "src/storage/container.h"
#include "src/util/status.h"
#include "src/util/sync.h"

namespace cdstore {

struct ContainerStoreOptions {
  size_t container_capacity = kDefaultContainerCapacity;  // 4MB
  // Bound on cached container images (sealed here or read back and
  // verified); 0 = no cache, every sealed fetch reads the backend.
  size_t cache_bytes = 32 << 20;
  std::string kind_prefix = "c";  // "c" share containers, "r" recipe containers
};

// Location of a blob inside the container store.
struct BlobHandle {
  uint64_t container_id = 0;
  uint32_t index = 0;
};

class ContainerStore {
 public:
  // `backend` must outlive the store. `first_container_id` lets the owner
  // restore the id sequence across restarts.
  ContainerStore(StorageBackend* backend, const ContainerStoreOptions& options,
                 uint64_t first_container_id = 1);

  // Appends a blob to `user`'s open container, sealing to the backend when
  // the 4MB cap is reached. A recipe larger than the cap still goes into a
  // single (oversized) container, as §4.5 prescribes.
  Result<BlobHandle> Append(uint64_t user, ConstByteSpan blob);

  // Seals and persists all open containers (e.g. at end of a backup job).
  Status FlushAll();
  // Seals only one user's open container.
  Status FlushUser(uint64_t user);

  // Fetches a blob; open containers and the image cache are consulted
  // before the backend. A backend image is CRC-checked before it is cached
  // or used. Only the open-container check holds the store lock.
  Result<Bytes> Fetch(const BlobHandle& handle);

  // Removes a sealed container from the backend.
  Status DeleteContainer(uint64_t container_id);

  uint64_t next_container_id() const;
  // Restores the id sequence after reopening a server (ids must only move
  // forward; lower values are ignored).
  void AdvanceContainerId(uint64_t next_id);
  // Locked: sealed_count_ is bumped by concurrent Append/Flush sealing, so
  // the previous unlocked read raced.
  uint64_t sealed_container_count() const {
    MutexLock lock(mu_);
    return sealed_count_;
  }

 private:
  struct OpenContainer {
    uint64_t id;
    ContainerBuilder builder;
  };

  Status SealLocked(OpenContainer* open) REQUIRES(mu_);

  StorageBackend* backend_;
  ContainerStoreOptions opts_;
  mutable Mutex mu_;
  uint64_t next_id_ GUARDED_BY(mu_);
  uint64_t sealed_count_ GUARDED_BY(mu_) = 0;
  std::map<uint64_t, OpenContainer> open_ GUARDED_BY(mu_);  // user -> open container
  // Sealed container images keyed (container_id, 0). Internally locked;
  // holds only images built here or read back with a good CRC.
  BlockCache cache_;
};

}  // namespace cdstore

#endif  // CDSTORE_SRC_STORAGE_CONTAINER_STORE_H_
