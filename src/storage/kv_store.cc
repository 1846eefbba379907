#include "storage/kv_store.h"

#include <functional>
#include <utility>

#include "workload/ycsb_key.h"

namespace sbft::storage {

namespace {

uint64_t HashKey(std::string_view key) {
  return std::hash<std::string_view>{}(key);
}

uint64_t MakeSlot(uint64_t hash, size_t index) {
  return (hash & 0xffffffff00000000ull) | (static_cast<uint64_t>(index) + 1);
}

size_t SlotIndex(uint64_t slot) { return (slot & 0xffffffffull) - 1; }

}  // namespace

size_t KvStore::Probe(std::string_view key, uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  const uint64_t tag = hash >> 32;
  for (size_t pos = hash & mask;; pos = (pos + 1) & mask) {
    const uint64_t slot = slots_[pos];
    if (slot == 0) return pos;
    if ((slot >> 32) == tag && entries_[SlotIndex(slot)].key == key) {
      return pos;
    }
  }
}

const KvStore::Entry* KvStore::Find(std::string_view key) const {
  if (slots_.empty()) return nullptr;
  const uint64_t slot = slots_[Probe(key, HashKey(key))];
  return slot == 0 ? nullptr : &entries_[SlotIndex(slot)];
}

void KvStore::Reserve(size_t count) {
  size_t capacity = slots_.empty() ? 16 : slots_.size();
  while (count > capacity / 4 * 3) capacity *= 2;
  if (capacity == slots_.size()) return;
  slots_.assign(capacity, 0);
  for (size_t i = 0; i < entries_.size(); ++i) {
    const uint64_t hash = HashKey(entries_[i].key);
    slots_[Probe(entries_[i].key, hash)] = MakeSlot(hash, i);
  }
}

Status KvStore::Get(const std::string& key, VersionedValue* out) const {
  ++reads_;
  const Entry* entry = Find(key);
  if (entry == nullptr) {
    return Status::NotFound(key);
  }
  *out = entry->value;
  return Status::Ok();
}

uint64_t KvStore::VersionOf(const std::string& key) const {
  const Entry* entry = Find(key);
  return entry == nullptr ? 0 : entry->value.version;
}

bool KvStore::Contains(const std::string& key) const {
  return Find(key) != nullptr;
}

void KvStore::Put(const std::string& key, Bytes value) {
  ++writes_;
  // Room for one more entry, whether or not `key` is new.
  if (entries_.size() + 1 > slots_.size() / 4 * 3) Reserve(entries_.size() + 1);
  const uint64_t hash = HashKey(key);
  const size_t pos = Probe(key, hash);
  if (slots_[pos] == 0) {
    slots_[pos] = MakeSlot(hash, entries_.size());
    entries_.push_back({key, {}});
  }
  VersionedValue& slot = entries_[SlotIndex(slots_[pos])].value;
  slot.value = std::move(value);
  ++slot.version;
}

void KvStore::Delete(const std::string& key) {
  if (slots_.empty()) return;
  const size_t mask = slots_.size() - 1;
  size_t hole = Probe(key, HashKey(key));
  if (slots_[hole] == 0) return;
  const size_t index = SlotIndex(slots_[hole]);
  // Backward-shift deletion: pull each later member of the probe run
  // into the hole unless that would move it before its home slot.
  for (size_t pos = (hole + 1) & mask; slots_[pos] != 0;
       pos = (pos + 1) & mask) {
    const size_t home =
        HashKey(entries_[SlotIndex(slots_[pos])].key) & mask;
    if (((pos - home) & mask) >= ((pos - hole) & mask)) {
      slots_[hole] = slots_[pos];
      hole = pos;
    }
  }
  slots_[hole] = 0;
  // Keep the entries dense: the last entry takes the freed index.
  const size_t last = entries_.size() - 1;
  if (index != last) {
    const uint64_t hash = HashKey(entries_[last].key);
    size_t pos = hash & mask;
    while (SlotIndex(slots_[pos]) != last) pos = (pos + 1) & mask;
    slots_[pos] = MakeSlot(hash, index);
    entries_[index] = std::move(entries_[last]);
  }
  entries_.pop_back();
}

void KvStore::LoadYcsbRecords(uint64_t count, size_t value_size) {
  Reserve(entries_.size() + count);
  entries_.reserve(entries_.size() + count);
  for (uint64_t i = 0; i < count; ++i) {
    Bytes value(value_size, static_cast<uint8_t>('v'));
    Put(workload::YcsbKey(i), std::move(value));
  }
}

}  // namespace sbft::storage
