#include "src/kvstore/memtable.h"

#include "src/util/logging.h"

namespace cdstore {

struct MemTable::Node {
  KvRecord record;
  int height;
  std::atomic<Node*> next[1];  // over-allocated to `height` links

  Node* Next(int level) const { return next[level].load(std::memory_order_acquire); }
  // Publishes this link: everything written before it (the record, the
  // new node's own links) is visible to a reader that loads it.
  void SetNext(int level, Node* n) { next[level].store(n, std::memory_order_release); }

  static Node* Create(int height) {
    void* mem = ::operator new(sizeof(Node) + sizeof(std::atomic<Node*>) * (height - 1));
    Node* n = new (mem) Node();  // value-initializes next[0]
    n->height = height;
    for (int i = 1; i < height; ++i) {
      new (&n->next[i]) std::atomic<Node*>(nullptr);
    }
    return n;
  }
  static void Destroy(Node* n) {
    n->~Node();
    ::operator delete(n);
  }

 private:
  Node() = default;
};

MemTable::MemTable() : rng_(0xC0FFEE) {
  head_ = Node::Create(kMaxHeight);
}

MemTable::~MemTable() {
  Node* n = head_;
  while (n != nullptr) {
    Node* next = n->Next(0);
    Node::Destroy(n);
    n = next;
  }
}

int MemTable::RandomHeight() {
  // Branching factor 4, as in LevelDB.
  int h = 1;
  while (h < kMaxHeight && (rng_.NextU64() & 3) == 0) {
    ++h;
  }
  return h;
}

MemTable::Node* MemTable::FindGreaterOrEqual(ConstByteSpan key, uint64_t seq,
                                             Node** prev) const {
  Node* x = head_;
  int level = height_.load(std::memory_order_relaxed) - 1;
  while (true) {
    Node* next = x->Next(level);
    // Descend when next >= target (or the level ends).
    if (next == nullptr || CompareRecords(next->record.key, next->record.seq, key, seq) >= 0) {
      if (prev != nullptr) {
        prev[level] = x;
      }
      if (level == 0) {
        return next;
      }
      --level;
    } else {
      x = next;
    }
  }
}

void MemTable::Add(uint64_t seq, ValueType type, ConstByteSpan key, ConstByteSpan value) {
  Node* prev[kMaxHeight];
  for (int i = 0; i < kMaxHeight; ++i) {
    prev[i] = head_;
  }
  FindGreaterOrEqual(key, seq, prev);
  int h = RandomHeight();
  if (h > height_.load(std::memory_order_relaxed)) {
    height_.store(h, std::memory_order_relaxed);
  }
  Node* node = Node::Create(h);
  node->record.key.assign(key.begin(), key.end());
  node->record.seq = seq;
  node->record.type = type;
  node->record.value.assign(value.begin(), value.end());
  for (int i = 0; i < h; ++i) {
    // The new node is unreachable until prev[i] publishes it.
    node->next[i].store(prev[i]->next[i].load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    prev[i]->SetNext(i, node);
  }
  mem_usage_ += key.size() + value.size() + sizeof(Node) + sizeof(std::atomic<Node*>) * h;
  ++count_;
}

Status MemTable::Get(ConstByteSpan key, uint64_t snapshot_seq, Bytes* value,
                     bool* found_tombstone) const {
  *found_tombstone = false;
  // First record with (key, seq <= snapshot): internal order puts higher
  // seq first, so seek to (key, snapshot_seq).
  Node* n = FindGreaterOrEqual(key, snapshot_seq, nullptr);
  if (n == nullptr || CompareKeys(n->record.key, key) != 0) {
    return Status::NotFound("key absent in memtable");
  }
  if (n->record.type == ValueType::kDelete) {
    *found_tombstone = true;
    return Status::NotFound("tombstone");
  }
  *value = n->record.value;
  return Status::Ok();
}

const KvRecord& MemTable::Iterator::record() const {
  DCHECK(Valid());
  return static_cast<const Node*>(node_)->record;
}

void MemTable::Iterator::Next() {
  DCHECK(Valid());
  node_ = static_cast<const Node*>(node_)->Next(0);
}

void MemTable::Iterator::SeekToFirst() { node_ = table_->head_->Next(0); }

void MemTable::Iterator::Seek(ConstByteSpan target) {
  // seq = max: lands on the newest version of `target` (or the next key).
  node_ = table_->FindGreaterOrEqual(target, ~0ull, nullptr);
}

}  // namespace cdstore
