#include "columnstore/dataset.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <unordered_set>
#include <utility>

#include "obs/trace.h"
#include "util/failpoint.h"

namespace colgraph {

namespace {

// Storage telemetry (DESIGN.md §15): seal and compaction are the two
// durable state transitions the store performs; each is a phase (its
// latency histogram), and counters track throughput (datasets sealed,
// compactions run, bytes merged, inputs retired). The published-dataset
// gauge tracks how wide a LoadAll fan-out currently is.
obs::Counter& SealedCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("store.datasets_sealed");
  return c;
}
obs::Counter& CompactionsCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("store.compactions");
  return c;
}
obs::Counter& CompactionBytesCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("store.compaction_bytes");
  return c;
}
obs::Counter& RetiredCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("store.datasets_retired");
  return c;
}
obs::Gauge& DatasetsGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Global().GetGauge("store.datasets");
  return g;
}

constexpr uint32_t kManifestMagic = 0x43474D46;  // "CGMF"
constexpr uint32_t kManifestVersion = 2;
constexpr char kDatasetSuffix[] = ".cgds";

std::string DatasetName(uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ds-%06llu%s",
                static_cast<unsigned long long>(id), kDatasetSuffix);
  return buf;
}

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

size_t NewestRunToCompact(const std::vector<uint64_t>& records,
                          size_t compacted) {
  size_t first = std::min(compacted, records.size());
  uint64_t run = 0;
  for (size_t i = first; i < records.size(); ++i) run += records[i];
  while (first > 0 && records[first - 1] <= run) run += records[--first];
  return records.size() - first;
}

StatusOr<DatasetStore> DatasetStore::Open(const std::string& dir,
                                          Options options) {
  COLGRAPH_RETURN_NOT_OK(io::CreateDirectories(dir));

  DatasetStore store;
  store.dir_ = dir;
  store.options_ = options;

  // Crash debris, pass 1: a compactor that died mid-merge leaves its lock
  // behind; we are the single opener, so no live holder can exist.
  io::RemoveFile(store.LockPath());
  io::RemoveStaleTemp(store.ManifestPath());

  if (std::filesystem::exists(store.ManifestPath())) {
    COLGRAPH_ASSIGN_OR_RETURN(
        io::Reader in, io::Reader::Open(store.ManifestPath(), kManifestMagic,
                                        kManifestVersion));
    COLGRAPH_RETURN_NOT_OK(in.BeginSection("manifest"));
    COLGRAPH_RETURN_NOT_OK(in.ReadPod(&store.next_id_));
    COLGRAPH_RETURN_NOT_OK(in.ReadVec(&store.ids_));
    COLGRAPH_RETURN_NOT_OK(in.EndSection("manifest"));
    COLGRAPH_RETURN_NOT_OK(in.ExpectEnd());
    // Ids ascend in ingest order, and the merged dataset takes the largest:
    // a permuted manifest would attach datasets out of order, renumbering
    // records.
    for (size_t i = 0; i < store.ids_.size(); ++i) {
      if (store.ids_[i] >= store.next_id_ ||
          (i > 0 && store.ids_[i] <= store.ids_[i - 1])) {
        return Status::Corruption("manifest ids are not unique ascending: " +
                                  store.ManifestPath());
      }
    }
    for (const uint64_t id : store.ids_) {
      store.names_.push_back(DatasetName(id));
    }
  } else {
    COLGRAPH_RETURN_NOT_OK(store.WriteManifest({}, 0));
  }

  // Crash debris, pass 2: stale `.tmp` files from torn dataset writes and
  // sealed-but-never-published (or retired-but-unremoved) dataset files.
  const std::unordered_set<std::string> live(store.names_.begin(),
                                             store.names_.end());
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    const bool stale_tmp = HasSuffix(name, ".tmp");
    const bool orphan_dataset =
        HasSuffix(name, kDatasetSuffix) && live.count(name) == 0;
    if (stale_tmp || orphan_dataset) {
      io::RemoveFile(entry.path().string());
    }
  }
  DatasetsGauge().Set(static_cast<int64_t>(store.names_.size()));
  return store;
}

Status DatasetStore::WriteManifest(const std::vector<uint64_t>& ids,
                                   uint64_t next_id) const {
  io::Writer out(ManifestPath(), kManifestMagic, kManifestVersion);
  out.BeginSection();
  out.WritePod(next_id);
  out.WriteVec(ids);
  out.EndSection();
  return out.Commit();
}

StatusOr<uint64_t> DatasetStore::PublishInPlaceOf(
    size_t first, const MasterRelation& relation) {
  // The new dataset takes the next id, the largest, so it stays last and
  // the manifest ascending.
  const uint64_t id = next_id_;
  const std::string name = DatasetName(id);
  COLGRAPH_ASSIGN_OR_RETURN(
      const uint64_t extent_bytes,
      internal::WriteRelationImage(relation, PathFor(name)));
  // Publish: the manifest rewrite is the commit point. If it fails, the
  // already-durable dataset file is simply unreferenced — the next Open()
  // sweeps it — and the store's published state is unchanged.
  std::vector<uint64_t> ids(ids_.begin(),
                            ids_.begin() + static_cast<std::ptrdiff_t>(first));
  ids.push_back(id);
  const Status st = WriteManifest(ids, id + 1);
  if (!st.ok()) {
    io::RemoveFile(PathFor(name));
    return st;
  }
  // Retire what it replaces. Readers holding mappings of these files are
  // unaffected: unlink does not invalidate an existing mmap.
  for (size_t i = first; i < names_.size(); ++i) {
    io::RemoveFile(PathFor(names_[i]));
  }
  ids_ = std::move(ids);
  names_.resize(first);
  names_.push_back(name);
  next_id_ = id + 1;
  DatasetsGauge().Set(static_cast<int64_t>(names_.size()));
  return extent_bytes;
}

StatusOr<std::string> DatasetStore::Seal(const MasterRelation& relation) {
  if (!relation.sealed()) {
    return Status::InvalidArgument("can only seal a sealed relation");
  }
  const obs::Span span(obs::Phase::kStoreSeal, nullptr);
  COLGRAPH_RETURN_NOT_OK(PublishInPlaceOf(names_.size(), relation).status());
  SealedCounter().Increment();
  return names_.back();
}

StatusOr<MasterRelation> DatasetStore::Load(size_t i) const {
  return ReadRelation(PathFor(names_[i]), options_.relation);
}

StatusOr<std::vector<MasterRelation>> DatasetStore::LoadAll() const {
  std::vector<MasterRelation> out;
  out.reserve(names_.size());
  for (size_t i = 0; i < names_.size(); ++i) {
    COLGRAPH_ASSIGN_OR_RETURN(MasterRelation rel, Load(i));
    out.push_back(std::move(rel));
  }
  return out;
}

Status DatasetStore::ReplaceNewest(size_t k, const MasterRelation& merged) {
  if (k == 0 || k > names_.size()) {
    return Status::InvalidArgument(
        "a merge replaces between one and every live dataset");
  }
  COLGRAPH_ASSIGN_OR_RETURN(io::ExclusiveFile lock,
                            io::ExclusiveFile::Acquire(LockPath()));
  (void)lock;  // held for scope; released (unlinked) on every exit path
  // Times failed attempts too: an aborted write still occupied the store's
  // single compaction slot for the duration.
  const obs::Span span(obs::Phase::kStoreCompaction, nullptr);
  // Simulated crash before the write: published datasets and the manifest
  // are untouched; the next Open() sweeps the lock (and any stray file).
  COLGRAPH_FAILPOINT("compact:crash");
  COLGRAPH_ASSIGN_OR_RETURN(const uint64_t merged_bytes,
                            PublishInPlaceOf(names_.size() - k, merged));
  CompactionsCounter().Increment();
  RetiredCounter().Add(k);
  CompactionBytesCounter().Add(merged_bytes);
  return Status::OK();
}

Status DatasetStore::CompactNewest(size_t k) {
  if (k > names_.size()) {
    return Status::InvalidArgument("cannot merge more datasets than are live");
  }
  if (k < kMinDatasetsToCompact) return Status::OK();
  std::vector<MasterRelation> inputs;
  inputs.reserve(k);
  for (size_t i = names_.size() - k; i < names_.size(); ++i) {
    COLGRAPH_ASSIGN_OR_RETURN(MasterRelation input, Load(i));
    inputs.push_back(std::move(input));
  }
  std::vector<const MasterRelation*> run;
  for (const MasterRelation& input : inputs) run.push_back(&input);
  COLGRAPH_ASSIGN_OR_RETURN(const MasterRelation merged,
                            MergeRelations(run, options_.relation));
  return ReplaceNewest(k, merged);
}

}  // namespace colgraph
