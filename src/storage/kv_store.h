#ifndef SBFT_STORAGE_KV_STORE_H_
#define SBFT_STORAGE_KV_STORE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace sbft::storage {

/// A value together with its write version.
struct VersionedValue {
  Bytes value;
  uint64_t version = 0;
};

/// \brief The enterprise's on-premise data store S (paper §I challenge 4,
/// §III).
///
/// Versioned in-memory key-value store. Executors read from it (never
/// write); only the trusted verifier applies write sets. Per-key versions
/// let the verifier run the paper's concurrency-control check ("is the
/// value of rw the same as in the data-store", Fig. 3 line 32) by
/// comparing versions instead of full values.
///
/// Layout: the entries sit in one vector; an open-addressing table of
/// 8-byte slots (linear probing, load <= 0.75) maps each key to its
/// entry. A slot holds the upper 32 bits of the key's hash as a tag and
/// the entry index plus one (0 marks a free slot), so a probe compares
/// strings only on a tag match.
class KvStore {
 public:
  KvStore() = default;

  /// Reads a key. Returns NotFound for absent keys.
  Status Get(const std::string& key, VersionedValue* out) const;

  /// Current version of a key; 0 when absent (version numbering starts
  /// at 1 on first write).
  uint64_t VersionOf(const std::string& key) const;

  /// True when the key exists.
  bool Contains(const std::string& key) const;

  /// Writes a key, bumping its version.
  void Put(const std::string& key, Bytes value);

  /// Removes a key (used by tests; the YCSB workloads only read/update).
  void Delete(const std::string& key);

  /// Bulk-loads `count` records named "user<i>" with `value_size`-byte
  /// values, mirroring a YCSB load phase (paper: 600 k records).
  void LoadYcsbRecords(uint64_t count, size_t value_size);

  size_t size() const { return entries_.size(); }
  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }

 private:
  struct Entry {
    std::string key;
    VersionedValue value;
  };

  /// Slot position of `key` (hash `hash`): its own slot when present,
  /// else the free slot ending its probe run. Needs a non-empty table.
  size_t Probe(std::string_view key, uint64_t hash) const;
  /// The entry of `key`, or null.
  const Entry* Find(std::string_view key) const;
  /// Sizes the slot table for `count` entries at load <= 0.75,
  /// rehashing when it grows.
  void Reserve(size_t count);

  std::vector<Entry> entries_;
  std::vector<uint64_t> slots_;  ///< Size is 0 or a power of two.
  mutable uint64_t reads_ = 0;
  uint64_t writes_ = 0;
};

}  // namespace sbft::storage

#endif  // SBFT_STORAGE_KV_STORE_H_
