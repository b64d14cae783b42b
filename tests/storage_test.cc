#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/storage/backend.h"
#include "src/storage/container.h"
#include "src/storage/container_store.h"
#include "src/util/fs_util.h"
#include "src/util/rng.h"

namespace cdstore {
namespace {

// --------------------------------------------------------------- backend --

TEST(MemBackendTest, PutGetDeleteList) {
  MemBackend b;
  ASSERT_TRUE(b.Put("a", BytesOf("1")).ok());
  ASSERT_TRUE(b.Put("b", BytesOf("22")).ok());
  EXPECT_EQ(b.Get("a").value(), BytesOf("1"));
  EXPECT_TRUE(b.Exists("b"));
  EXPECT_EQ(b.object_count(), 2u);
  EXPECT_EQ(b.total_bytes(), 3u);
  ASSERT_TRUE(b.Delete("a").ok());
  EXPECT_FALSE(b.Exists("a"));
  EXPECT_EQ(b.Get("a").status().code(), StatusCode::kNotFound);
}

TEST(LocalDirBackendTest, RoundTrip) {
  TempDir dir;
  auto b = LocalDirBackend::Open(dir.Sub("objects"));
  ASSERT_TRUE(b.ok());
  Bytes data = Rng(1).RandomBytes(1000);
  ASSERT_TRUE(b.value()->Put("obj1", data).ok());
  EXPECT_EQ(b.value()->Get("obj1").value(), data);
  auto names = b.value()->List();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value().size(), 1u);
}

// ------------------------------------------------------------- container --

TEST(ContainerTest, BuildAndParse) {
  ContainerBuilder builder;
  Rng rng(2);
  std::vector<Bytes> blobs;
  for (int i = 0; i < 10; ++i) {
    blobs.push_back(rng.RandomBytes(100 + i * 37));
    EXPECT_EQ(builder.Add(blobs.back()), static_cast<uint32_t>(i));
  }
  Bytes image = builder.Seal();
  auto reader = ContainerReader::Parse(std::move(image));
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value().count(), 10u);
  for (int i = 0; i < 10; ++i) {
    auto blob = reader.value().Blob(i);
    ASSERT_TRUE(blob.ok());
    EXPECT_EQ(Bytes(blob.value().begin(), blob.value().end()), blobs[i]);
  }
}

TEST(ContainerTest, EmptyAndZeroLengthBlobs) {
  ContainerBuilder builder;
  builder.Add(Bytes{});
  builder.Add(BytesOf("x"));
  builder.Add(Bytes{});
  auto reader = ContainerReader::Parse(builder.Seal());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value().Blob(0).value().size(), 0u);
  EXPECT_EQ(reader.value().Blob(2).value().size(), 0u);
}

TEST(ContainerTest, CorruptionDetected) {
  ContainerBuilder builder;
  builder.Add(Rng(3).RandomBytes(500));
  Bytes image = builder.Seal();
  image[20] ^= 0x01;
  EXPECT_EQ(ContainerReader::Parse(std::move(image)).status().code(),
            StatusCode::kCorruption);
}

TEST(ContainerTest, OutOfRangeBlobRejected) {
  ContainerBuilder builder;
  builder.Add(BytesOf("only"));
  auto reader = ContainerReader::Parse(builder.Seal());
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader.value().Blob(1).ok());
}

TEST(ContainerTest, BuilderBlobAtReadsOpenContainer) {
  ContainerBuilder builder;
  Bytes blob = Rng(4).RandomBytes(77);
  builder.Add(blob);
  auto view = builder.BlobAt(0);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(Bytes(view.value().begin(), view.value().end()), blob);
  EXPECT_FALSE(builder.BlobAt(1).ok());
}

TEST(ContainerTest, ObjectNames) {
  EXPECT_EQ(ContainerObjectName("c", 0x2a), "c000000000000002a");
  EXPECT_EQ(ContainerObjectName("r", 1), "r0000000000000001");
}

// -------------------------------------------------------- container store --

ContainerStoreOptions SmallStore() {
  ContainerStoreOptions o;
  o.container_capacity = 1024;  // tiny, to force sealing
  o.cache_bytes = 1 << 20;
  return o;
}

TEST(ContainerStoreTest, AppendAndFetchFromOpenContainer) {
  MemBackend backend;
  ContainerStore store(&backend, SmallStore());
  Bytes blob = Rng(5).RandomBytes(100);
  auto handle = store.Append(1, blob);
  ASSERT_TRUE(handle.ok());
  auto fetched = store.Fetch(handle.value());
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value(), blob);
}

TEST(ContainerStoreTest, SealsWhenFull) {
  MemBackend backend;
  ContainerStore store(&backend, SmallStore());
  std::vector<std::pair<BlobHandle, Bytes>> written;
  Rng rng(6);
  for (int i = 0; i < 40; ++i) {  // 40 * 200B >> 1KB capacity
    Bytes blob = rng.RandomBytes(200);
    auto handle = store.Append(1, blob);
    ASSERT_TRUE(handle.ok());
    written.push_back({handle.value(), blob});
  }
  EXPECT_GT(store.sealed_container_count(), 3u);
  EXPECT_GT(backend.object_count(), 3u);
  ASSERT_TRUE(store.FlushAll().ok());
  for (const auto& [handle, blob] : written) {
    auto fetched = store.Fetch(handle);
    ASSERT_TRUE(fetched.ok());
    EXPECT_EQ(fetched.value(), blob);
  }
}

TEST(ContainerStoreTest, PerUserContainersAreSeparate) {
  // §4.5: each container holds only one user's data (spatial locality).
  MemBackend backend;
  ContainerStore store(&backend, SmallStore());
  auto h1 = store.Append(1, BytesOf("user1"));
  auto h2 = store.Append(2, BytesOf("user2"));
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  EXPECT_NE(h1.value().container_id, h2.value().container_id);
}

TEST(ContainerStoreTest, OversizedBlobGetsOwnContainer) {
  // A file recipe larger than 4MB still goes into a single container
  // rather than being split (§4.5).
  MemBackend backend;
  ContainerStore store(&backend, SmallStore());
  Bytes big = Rng(7).RandomBytes(5000);  // > capacity 1024
  auto handle = store.Append(1, big);
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(store.FlushAll().ok());
  auto fetched = store.Fetch(handle.value());
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value(), big);
}

TEST(ContainerStoreTest, FetchAfterFlushUsesBackendAndCache) {
  MemBackend backend;
  ContainerStore store(&backend, SmallStore());
  Bytes blob = Rng(8).RandomBytes(300);
  auto handle = store.Append(3, blob);
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(store.FlushUser(3).ok());
  // First fetch may hit the seal-time cache; delete backend object and
  // fetch again to prove the cache serves it.
  ASSERT_TRUE(store.Fetch(handle.value()).ok());
  ASSERT_TRUE(backend.Delete(ContainerObjectName("c", handle.value().container_id)).ok());
  auto cached = store.Fetch(handle.value());
  ASSERT_TRUE(cached.ok()) << "LRU cache should serve evicted backend object";
  EXPECT_EQ(cached.value(), blob);
}

TEST(ContainerStoreTest, DeleteContainerRemovesObject) {
  MemBackend backend;
  ContainerStore store(&backend, SmallStore());
  auto handle = store.Append(1, BytesOf("data"));
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(store.FlushAll().ok());
  ASSERT_TRUE(store.DeleteContainer(handle.value().container_id).ok());
  EXPECT_FALSE(backend.Exists(ContainerObjectName("c", handle.value().container_id)));
  EXPECT_FALSE(store.Fetch(handle.value()).ok());
}

// A MemBackend that counts GETs and can flip one bit in the next reply,
// like a corrupt cloud response.
class TappedBackend : public MemBackend {
 public:
  Result<Bytes> Get(const std::string& name) override {
    gets.fetch_add(1);
    ASSIGN_OR_RETURN(Bytes data, MemBackend::Get(name));
    if (corrupt_next_get.exchange(false) && !data.empty()) {
      data[data.size() / 2] ^= 0x01;
    }
    return data;
  }

  std::atomic<int> gets{0};
  std::atomic<bool> corrupt_next_get{false};
};

TEST(ContainerStoreTest, CorruptGetDoesNotPoisonCache) {
  TappedBackend backend;
  Bytes blob = Rng(9).RandomBytes(300);
  BlobHandle handle;
  {
    ContainerStore writer(&backend, SmallStore());
    auto h = writer.Append(1, blob);
    ASSERT_TRUE(h.ok());
    handle = h.value();
    ASSERT_TRUE(writer.FlushAll().ok());
  }
  // A fresh store starts with a cold cache, so both fetches read the backend.
  ContainerStore store(&backend, SmallStore());
  backend.corrupt_next_get = true;
  EXPECT_EQ(store.Fetch(handle).status().code(), StatusCode::kCorruption);
  auto fetched = store.Fetch(handle);
  ASSERT_TRUE(fetched.ok()) << "a failed checksum must not be cached: "
                            << fetched.status().ToString();
  EXPECT_EQ(fetched.value(), blob);
  EXPECT_EQ(backend.gets.load(), 2);
}

TEST(ContainerStoreTest, ZeroCacheBytesCachesNothing) {
  TappedBackend backend;
  ContainerStoreOptions opts = SmallStore();
  opts.cache_bytes = 0;
  ContainerStore store(&backend, opts);
  std::vector<std::pair<BlobHandle, Bytes>> written;
  Rng rng(10);
  for (int i = 0; i < 12; ++i) {
    Bytes blob = rng.RandomBytes(200);
    auto handle = store.Append(1, blob);
    ASSERT_TRUE(handle.ok());
    written.push_back({handle.value(), blob});
  }
  ASSERT_TRUE(store.FlushAll().ok());
  // Recipe order fetches each container's blobs back to back: with no
  // cache, every one of them is a backend GET.
  int fetches = 0;
  for (int round = 0; round < 2; ++round) {
    for (const auto& [handle, blob] : written) {
      auto fetched = store.Fetch(handle);
      ASSERT_TRUE(fetched.ok());
      EXPECT_EQ(fetched.value(), blob);
      ++fetches;
      ASSERT_EQ(backend.gets.load(), fetches);
    }
  }
}

TEST(ContainerStoreTest, ConcurrentFetchesDuringAppendsAndSeals) {
  // 4 readers fetch open and sealed blobs while a writer appends and seals.
  // The cache holds about two containers, so readers also race evictions
  // and backend GETs.
  constexpr int kBlobs = 600;
  constexpr int kReaders = 4;
  MemBackend backend;
  ContainerStoreOptions opts = SmallStore();
  opts.cache_bytes = 2 * 1024 + 256;
  ContainerStore store(&backend, opts);
  auto blob_of = [](int i) { return Rng(1000 + i).RandomBytes(50 + i % 150); };
  std::vector<BlobHandle> handles(kBlobs);
  std::atomic<int> published{0};
  std::atomic<int> failures{0};

  std::thread writer([&] {
    for (int i = 0; i < kBlobs; ++i) {
      auto handle = store.Append(1 + i % 2, blob_of(i));
      if (!handle.ok()) {
        failures.fetch_add(1);
        break;
      }
      handles[i] = handle.value();
      published.store(i + 1, std::memory_order_release);
      if (i % 97 == 0 && !store.FlushUser(1).ok()) {
        failures.fetch_add(1);
      }
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(t + 1);
      int fetched = 0;
      while (fetched < 400) {
        int n = published.load(std::memory_order_acquire);
        if (n == 0) {
          std::this_thread::yield();
          continue;
        }
        // Half the fetches target the newest blobs, likely still open.
        int i = (fetched % 2 == 0) ? n - 1 - static_cast<int>(rng.Uniform(std::min(n, 8)))
                                   : static_cast<int>(rng.Uniform(n));
        auto blob = store.Fetch(handles[i]);
        if (!blob.ok() || blob.value() != blob_of(i)) {
          failures.fetch_add(1);
        }
        ++fetched;
      }
    });
  }
  writer.join();
  for (std::thread& r : readers) {
    r.join();
  }
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(store.FlushAll().ok());
  for (int i = 0; i < kBlobs; ++i) {
    auto blob = store.Fetch(handles[i]);
    ASSERT_TRUE(blob.ok());
    EXPECT_EQ(blob.value(), blob_of(i));
  }
}

TEST(ContainerStoreTest, ContainerIdsIncrease) {
  MemBackend backend;
  ContainerStore store(&backend, SmallStore(), /*first_container_id=*/100);
  auto h = store.Append(1, BytesOf("x"));
  ASSERT_TRUE(h.ok());
  EXPECT_GE(h.value().container_id, 100u);
  EXPECT_GT(store.next_container_id(), 100u);
}

}  // namespace
}  // namespace cdstore
