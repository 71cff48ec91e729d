// Immutable dataset storage for incremental ingest (DESIGN.md §14).
//
// The store models the collection as an ordered list of sealed, immutable
// datasets: the primary relation (dataset 0) plus small tail datasets, one
// per ingest. In memory every dataset carries its own columns for the
// catalog's views; files hold records only. Record ids are global — each
// dataset owns the dense id range starting at the cumulative record count
// of its predecessors — so a collection split across datasets is
// indistinguishable, record for record, from the same collection ingested
// into a single relation. Background compaction merges the newest run of
// datasets into one, size-tiered (seal → merge the newest run → retire);
// queries keep running against the published snapshot throughout. The
// daemon merges the run from the tails it already serves and hands the
// result to ReplaceNewest; CompactNewest loads the run from its files.
//
// On disk a DatasetStore is a directory:
//
//   MANIFEST            io::Writer image (magic "CGMF"): next id + live ids,
//                       strictly ascending (ingest order)
//   ds-000042.cgds      v5 relation image per live dataset
//   compact.lock        ExclusiveFile held only while a compaction runs
//
// Every mutation publishes by writing the new dataset file first and then
// atomically rewriting MANIFEST; a crash at any point leaves a manifest
// that references only complete, durable files. Open() sweeps the debris
// a crash can leave: stale `*.tmp`, dataset files the manifest does not
// reference, and an orphaned compact.lock. Every file the store creates,
// publishes, retires or sweeps goes through io_util (io::Writer::Commit,
// io::RemoveFile, io::CreateDirectories).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "columnstore/io_util.h"
#include "columnstore/master_relation.h"
#include "columnstore/persistence.h"
#include "util/status.h"

namespace colgraph {

/// \brief A directory of immutable sealed dataset files plus the MANIFEST
/// that names the live ones, in ingest order.
///
/// Single-writer: one process (the daemon) owns the directory; concurrent
/// Seal/Compact calls within that process must be externally serialized
/// (Daemon does so under its writer mutex). Readers are unaffected by any
/// mutation — they hold mappings of sealed files, which unlink(2) cannot
/// invalidate.
struct DatasetStoreOptions {
  MasterRelationOptions relation;
};

/// CompactNewest(k) is a no-op for k below this: merging one dataset
/// would only rewrite it.
inline constexpr size_t kMinDatasetsToCompact = 2;

/// The size-tiered compaction pick (DESIGN.md §14): how many of the newest
/// datasets one cycle merges. `records` holds every live dataset's record
/// count in manifest order; its first `compacted` entries are the tiers
/// earlier cycles left (or a restart restored). The run starts with every
/// dataset after them and extends over each older one that holds no more
/// records than the run so far, so equal batches merge like a binary
/// counter and each record is rewritten O(log N) times.
size_t NewestRunToCompact(const std::vector<uint64_t>& records,
                          size_t compacted);

class DatasetStore {
 public:
  using Options = DatasetStoreOptions;

  /// Opens (creating if needed) the store at `dir`, loads the manifest,
  /// and sweeps crash debris: stale `*.tmp`, unreferenced `*.cgds`, and a
  /// leftover compact.lock.
  static StatusOr<DatasetStore> Open(const std::string& dir,
                                     Options options = {});

  const std::string& dir() const { return dir_; }
  size_t num_datasets() const { return names_.size(); }
  const std::vector<std::string>& dataset_names() const { return names_; }
  std::string PathFor(const std::string& name) const {
    return dir_ + "/" + name;
  }

  /// Seals `relation` as the next dataset: writes its relation image, then
  /// atomically publishes it by rewriting the manifest. Returns the new
  /// dataset's name. A crash between the two steps leaves an unreferenced
  /// file for the next Open() to sweep — never a torn manifest.
  StatusOr<std::string> Seal(const MasterRelation& relation);

  /// Loads live dataset `i` (mapped read). Requires i < num_datasets().
  StatusOr<MasterRelation> Load(size_t i) const;
  /// Loads every live dataset, in manifest order.
  StatusOr<std::vector<MasterRelation>> LoadAll() const;

  /// Writes `merged`, the merge of the newest `k` live datasets
  /// (MergeRelations), in their place under the compact.lock
  /// ExclusiveFile: the merged dataset's file, then the manifest rewrite
  /// that publishes it, then the unlinking of the k inputs. The merged
  /// dataset takes the next id, the largest, so it stays last and the
  /// manifest ascending. Its image encodes each column straight into the
  /// write buffer, so the write holds one encoded image beside `merged`.
  /// InvalidArgument unless 1 <= k <= num_datasets(); Unavailable while
  /// another compaction holds the lock. A crash before the write (failpoint
  /// "compact:crash") leaves the manifest — and thus every published
  /// dataset — untouched.
  Status ReplaceNewest(size_t k, const MasterRelation& merged);
  /// Merges the newest `k` live datasets: loads them, merges them with
  /// MergeRelations and writes the result with ReplaceNewest. No-op for k
  /// below kMinDatasetsToCompact; InvalidArgument for k > num_datasets().
  Status CompactNewest(size_t k);
  /// Merges every live dataset: CompactNewest(num_datasets()).
  Status CompactAll() { return CompactNewest(names_.size()); }

 private:
  DatasetStore() = default;

  std::string ManifestPath() const { return dir_ + "/MANIFEST"; }
  std::string LockPath() const { return dir_ + "/compact.lock"; }
  Status WriteManifest(const std::vector<uint64_t>& ids,
                       uint64_t next_id) const;
  /// Writes `relation` as the next dataset and publishes it in place of
  /// the live datasets from the `first`-th on (none when `first` is
  /// num_datasets(), a seal), then unlinks those. Returns the length of
  /// the column extents written.
  StatusOr<uint64_t> PublishInPlaceOf(size_t first,
                                      const MasterRelation& relation);

  std::string dir_;
  Options options_;
  uint64_t next_id_ = 0;
  std::vector<uint64_t> ids_;        // live dataset ids, ingest order
  std::vector<std::string> names_;   // derived file names, same order
};

}  // namespace colgraph
