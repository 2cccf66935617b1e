// On-disk content-addressed result cache and append-only run journal.
//
// Every completed work unit is stored twice over:
//   * the cache maps a 64-bit FNV-1a content hash -- computed over the
//     netlist signature, the defect, the SimSettings, the stress point,
//     the unit parameters and the engine version (obs/version) -- to a
//     JSON payload under <cache>/objects/<16-hex>.json.  Any input change
//     changes the key, so stale results can never be served; unreferenced
//     objects are garbage, reclaimed by `dramstress campaign gc`.
//   * the journal (<run>/journal.jsonl) appends one line per finished
//     unit (done or quarantined).  A killed campaign leaves a valid
//     journal prefix plus at most one torn trailing line; --resume replays
//     it, restores quarantine verdicts without re-burning retries, and
//     refetches done payloads from the cache.
//
// Both readers are fault-tolerant: a corrupt object or journal record is
// reported as an E310 diagnostic (docs/LINT.md) and treated as a miss --
// the unit is recomputed, the campaign never crashes on bad bytes.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "util/annotations.hpp"
#include "verify/diagnostic.hpp"

namespace dramstress::campaign {

/// 64-bit FNV-1a over the canonical key material of one work unit.
struct CacheKey {
  uint64_t hash = 0;

  std::string hex() const;  // 16 lowercase hex digits
  bool operator==(const CacheKey& o) const { return hash == o.hash; }
};

/// Incremental FNV-1a hasher fed with the canonical key fragments.
class KeyHasher {
public:
  KeyHasher& feed(const std::string& fragment);
  KeyHasher& feed(double value);  // canonical %.17g text
  KeyHasher& feed(long value);
  KeyHasher& feed(bool value);
  CacheKey key() const { return CacheKey{hash_}; }

private:
  uint64_t hash_ = 1469598103934665603ull;  // FNV offset basis
};

/// Schema version of cache objects and journal records; part of every
/// object wrapper so a format change invalidates cleanly.  v2: unit
/// payloads wrap the analysis object as {"transients": N, "result": ...}.
/// v3: border payloads add the lossless "border_state" block their optimize
/// unit starts from, and optimize transients no longer include the nominal
/// analysis.
inline constexpr int kCacheVersion = 3;

class ResultCache {
public:
  /// Opens (and creates) the cache directory layout under `dir`.
  explicit ResultCache(std::string dir);

  /// Payload JSON of `key`, or nullopt on miss.  A present-but-corrupt
  /// object (unparseable, wrong wrapper, key mismatch) is a miss plus an
  /// E310 warning in `report`.
  std::optional<std::string> load(const CacheKey& key,
                                  verify::VerifyReport* report) const;

  /// Store `payload_json` under `key` atomically (temp file + rename), so
  /// a kill mid-write can never leave a half object at the final path.
  void store(const CacheKey& key, const std::string& payload_json) const;

  bool contains(const CacheKey& key) const;
  std::string object_path(const CacheKey& key) const;
  const std::string& dir() const { return dir_; }

  /// Delete every object whose key is not in `live` (hex strings).
  /// Returns the number of objects removed.
  int sweep(const std::map<std::string, bool>& live) const;

private:
  std::string dir_;
};

/// One replayed journal record.
struct JournalEntry {
  std::string unit_id;
  std::string key_hex;
  std::string status;  // "done" | "quarantined"
  int attempts = 0;
  std::string error;  // quarantine reason, empty for done
};

/// Append-only journal of one campaign run directory.  Thread-safe:
/// workers of one campaign run share the instance, and the internal mutex
/// keeps records line-atomic (one record per line is what makes a torn
/// final line after SIGKILL the only possible corruption).
class Journal {
public:
  explicit Journal(std::string path);

  /// Append one record and flush it to the OS, so a SIGKILL immediately
  /// after loses at most the record being written.
  void append(const JournalEntry& entry) DS_EXCLUDES(mu_);

  /// Replay the journal into a key->entry map.  Corrupt records are
  /// skipped with an E310 warning (a torn final line is expected after a
  /// kill); a missing file replays empty.
  static std::map<std::string, JournalEntry> replay(
      const std::string& path, verify::VerifyReport* report);

  const std::string& path() const { return path_; }

private:
  mutable util::Mutex mu_;
  std::string path_;  // immutable after construction; reads need no lock
};

}  // namespace dramstress::campaign
