#include "src/storage/container_store.h"

#include "src/util/logging.h"

namespace cdstore {

ContainerStore::ContainerStore(StorageBackend* backend, const ContainerStoreOptions& options,
                               uint64_t first_container_id)
    : backend_(backend), opts_(options), next_id_(first_container_id),
      cache_(options.cache_bytes) {
  CHECK(backend != nullptr);
}

Result<BlobHandle> ContainerStore::Append(uint64_t user, ConstByteSpan blob) {
  MutexLock lock(mu_);
  auto it = open_.find(user);
  if (it == open_.end()) {
    it = open_.emplace(user, OpenContainer{next_id_++, {}}).first;
  }
  OpenContainer& open = it->second;
  // Seal first if this blob would overflow a non-empty container. An
  // oversized blob in an empty container is allowed (big file recipes).
  if (!open.builder.empty() &&
      open.builder.payload_size() + blob.size() > opts_.container_capacity) {
    RETURN_IF_ERROR(SealLocked(&open));
    open.id = next_id_++;
  }
  BlobHandle handle;
  handle.container_id = open.id;
  handle.index = open.builder.Add(blob);
  if (open.builder.payload_size() >= opts_.container_capacity) {
    RETURN_IF_ERROR(SealLocked(&open));
    open.id = next_id_++;
  }
  return handle;
}

Status ContainerStore::SealLocked(OpenContainer* open) {
  if (open->builder.empty()) {
    return Status::Ok();
  }
  // The builder is consumed only once the image is safely at the backend:
  // a failed Put leaves the container open for a later retry instead of
  // silently dropping its blobs.
  Bytes image = open->builder.Image();
  std::string name = ContainerObjectName(opts_.kind_prefix, open->id);
  RETURN_IF_ERROR(backend_->Put(name, image));
  open->builder.Reset();
  cache_.Insert(open->id, 0, std::move(image));
  ++sealed_count_;
  return Status::Ok();
}

Status ContainerStore::FlushAll() {
  MutexLock lock(mu_);
  // Attempt every user's seal even after a failure; a container whose seal
  // failed stays open so a later flush can retry it, and the first error is
  // reported instead of silently dropped.
  Status first;
  for (auto it = open_.begin(); it != open_.end();) {
    Status st = SealLocked(&it->second);
    if (st.ok()) {
      it = open_.erase(it);
    } else {
      if (first.ok()) {
        first = st;
      }
      ++it;
    }
  }
  return first;
}

Status ContainerStore::FlushUser(uint64_t user) {
  MutexLock lock(mu_);
  auto it = open_.find(user);
  if (it == open_.end()) {
    return Status::Ok();
  }
  RETURN_IF_ERROR(SealLocked(&it->second));
  open_.erase(it);
  return Status::Ok();
}

Result<Bytes> ContainerStore::Fetch(const BlobHandle& handle) {
  {
    MutexLock lock(mu_);
    // The blob may still sit in an open (unsealed) container. A container
    // missing here was sealed: its image reached the backend (and the
    // cache) before its id left open_.
    for (const auto& [user, open] : open_) {
      if (open.id == handle.container_id) {
        ASSIGN_OR_RETURN(ConstByteSpan blob, open.builder.BlobAt(handle.index));
        return Bytes(blob.begin(), blob.end());
      }
    }
  }
  std::shared_ptr<const Bytes> image = cache_.Lookup(handle.container_id, 0);
  if (image == nullptr) {
    ASSIGN_OR_RETURN(Bytes fetched, backend_->Get(ContainerObjectName(opts_.kind_prefix,
                                                                      handle.container_id)));
    // Verify before caching: one corrupt reply must not fail every later
    // fetch of this container while the cloud itself is healthy.
    RETURN_IF_ERROR(ContainerReader::Verify(fetched));
    // A fetch racing DeleteContainer can re-cache a deleted image here.
    // That is harmless: container ids are never reused, and GC deletes
    // under the server's exclusive ops lock anyway.
    image = cache_.Insert(handle.container_id, 0, std::move(fetched));
  }
  // The view pins the image, so an eviction meanwhile is harmless.
  ASSIGN_OR_RETURN(ContainerReader reader, ContainerReader::View(std::move(image)));
  ASSIGN_OR_RETURN(ConstByteSpan blob, reader.Blob(handle.index));
  return Bytes(blob.begin(), blob.end());
}

Status ContainerStore::DeleteContainer(uint64_t container_id) {
  cache_.EraseFile(container_id);
  return backend_->Delete(ContainerObjectName(opts_.kind_prefix, container_id));
}

uint64_t ContainerStore::next_container_id() const {
  MutexLock lock(mu_);
  return next_id_;
}

void ContainerStore::AdvanceContainerId(uint64_t next_id) {
  MutexLock lock(mu_);
  next_id_ = std::max(next_id_, next_id);
}

}  // namespace cdstore
