// Multi-reference index registry — the serving-side counterpart of the
// archive format.
//
// A registry manages a set of named references backed by a store directory
// (`<dir>/manifest.tsv` mapping name -> archive file -> size). Indexes are
// loaded lazily on first acquire() and handed out as refcounted
// shared_ptr<const StoredIndex> read handles: any number of mapping requests
// can read one index concurrently (all FmIndex/ReferenceSet queries are
// const), while evict, an install's final flip and a load's publication take
// the write side of a shared_mutex. A cold load itself (the archive read
// and its CRC pass) runs with no registry lock held, once per entry:
// concurrent acquirers of that entry wait for the one load, and acquirers
// of every other reference are never held up by it. The loaded index is
// published only if no add, rollover, adopt or evict touched the entry
// while it loaded. When resident indexes exceed the memory budget the
// least-recently-used ones are evicted — eviction only drops the registry's
// reference, so in-flight readers holding a handle finish undisturbed and
// the memory is reclaimed when the last handle dies.
//
// With an empty store directory the registry is memory-only: add() keeps the
// index resident but nothing is persisted (the web service's legacy
// upload-and-map mode). The resident copy is then the only copy, so evict()
// refuses such an entry and the LRU never drops it.
//
// Entries carry a monotonically increasing *generation*. add() and
// rollover() are one staged install with zero downtime: the new generation's
// archive is written and checked by a full read-back in the registry's load
// mode while mapping traffic keeps flowing (no registry lock is held), then
// the entry flips to it under the write lock (a pointer swap) and the
// archive it replaced is removed. The handle served is the one read back;
// the built index is destroyed once written, so it never coexists with
// the read-back.
// In-flight readers holding the previous generation's handle finish
// undisturbed and drain via refcount. A failed write or read-back leaves the
// registry as it was. adopt() shares the flip but never loads the index.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "store/index_archive.hpp"

namespace bwaver {

/// Snapshot of one registry entry, for listings and the web API.
struct RegistryEntry {
  std::string name;
  std::string archive_path;        ///< empty in memory-only mode
  std::uint64_t archive_bytes = 0; ///< on-disk size (0 in memory-only mode)
  std::size_t resident_bytes = 0;  ///< heap + mapped; 0 when not resident
  std::size_t heap_bytes = 0;      ///< private allocations of the resident copy
  std::size_t mapped_bytes = 0;    ///< file-backed (mmap-adopted) bytes
  bool resident = false;
  std::uint64_t text_length = 0;
  std::uint64_t num_sequences = 0;
  std::uint64_t generation = 1;    ///< bumped by add()-replace and rollover()
  /// Per-section bytes of the resident copy (empty when not resident).
  std::vector<SectionFootprint> sections;
};

class IndexRegistry {
 public:
  using Handle = std::shared_ptr<const StoredIndex>;

  static constexpr std::size_t kDefaultMemoryBudget = std::size_t{4} << 30;  // 4 GiB

  /// Budget divisor for mapped bytes: an mmap-adopted byte is charged 1/4 of
  /// a heap byte (clean file-backed pages are reclaimable by the OS).
  static constexpr std::size_t kMappedWeight = 4;

  /// Opens (or creates) a registry. A non-empty `store_dir` is created if
  /// missing and its manifest is scanned; archives are not loaded until
  /// acquired. `load_mode` selects how v3 archives are materialized on
  /// acquire (v1/v2 archives always copy).
  explicit IndexRegistry(std::string store_dir = "",
                         std::size_t memory_budget_bytes = kDefaultMemoryBudget,
                         LoadMode load_mode = default_load_mode());

  /// Returns a read handle for `name`, loading the archive if the index is
  /// not resident (with no registry lock held; concurrent acquirers of the
  /// same entry share one load). Throws std::out_of_range for unknown names
  /// and IoError for unreadable/corrupt archives.
  Handle acquire(const std::string& name);

  /// How acquire() and an install's read-back read an archive:
  /// read_index_archive unless replaced.
  using Loader = std::function<StoredIndex(const std::string& path, LoadMode mode)>;

  /// Replaces the loader — the seam through which a test holds a cold load
  /// open or watches a read-back. Call before the registry is shared
  /// between threads.
  void set_loader(Loader loader) { loader_ = std::move(loader); }

  /// Registers a freshly built index under `name`, replacing any previous
  /// entry, through the same staged install as rollover(): with a store
  /// directory the handle returned is the archive's checked read-back (in
  /// mmap mode it maps the file), and `stored` is destroyed once written,
  /// before that read-back. A memory-only registry serves `stored` itself. Throws std::invalid_argument unless
  /// valid_name(name), and whatever the write or read-back throws — then
  /// no entry is created or changed.
  Handle add(const std::string& name, StoredIndex stored);

  /// Whether `name` can name a reference: non-empty, at most 256 bytes, and
  /// free of whitespace and '/' (names become manifest keys and file names).
  static bool valid_name(const std::string& name);

  /// Replaces `name` with a new index generation without a serving gap:
  /// generation N+1 is written to `<name>.g<N+1>.bwva` and checked by a full
  /// read-back *before* the entry flips, so mapping requests keep resolving
  /// against generation N until the new one is proven loadable. Throws
  /// std::out_of_range when `name` is not registered (rollover replaces, it
  /// does not create — use add() for first registration).
  Handle rollover(const std::string& name, StoredIndex stored);

  /// Registers an existing archive file under `name` WITHOUT loading the
  /// index — the blockwise builder streams archives to disk precisely so
  /// the full index never has to be resident, and adopt() keeps that
  /// property through registration. The file is checked by a cheap read of
  /// its header (the header CRC, the section bounds, and the CRCs of the
  /// meta and build sections; bulk payload CRCs are checked on load), then
  /// renamed to the next generation's archive name in the store directory
  /// (same filesystem expected) and committed like add(), replacing any
  /// previous entry (its resident copy, if any, is dropped; in-flight
  /// handles drain by refcount). Requires a persistent store; throws
  /// std::logic_error in memory-only mode and IoError when the archive does
  /// not validate.
  void adopt(const std::string& name, const std::string& archive_file);

  /// Current generation of `name` (throws std::out_of_range when unknown).
  std::uint64_t generation(const std::string& name) const;

  /// Drops the resident copy of `name` (in-flight handles stay valid); the
  /// entry remains acquirable from its archive. Returns false if the name is
  /// unknown, not resident, or has no archive (memory-only: the resident
  /// copy is the only one, so it stays).
  bool evict(const std::string& name);

  bool contains(const std::string& name) const;
  std::size_t size() const;

  /// Entries sorted by name.
  std::vector<RegistryEntry> list() const;

  std::size_t resident_bytes() const;
  /// Heap-only / mapped-only parts of resident_bytes().
  std::size_t heap_bytes() const;
  std::size_t mapped_bytes() const;
  std::size_t memory_budget() const noexcept { return memory_budget_; }
  LoadMode load_mode() const noexcept { return load_mode_; }
  const std::string& store_dir() const noexcept { return store_dir_; }

  /// Lifetime counters: archive loads served by each path.
  std::uint64_t loads_mmap() const noexcept {
    return loads_mmap_.load(std::memory_order_relaxed);
  }
  std::uint64_t loads_copy() const noexcept {
    return loads_copy_.load(std::memory_order_relaxed);
  }
  /// Lifetime counters: resident copies dropped by POST /evict and by the
  /// LRU budget enforcer, respectively.
  std::uint64_t evictions_explicit() const noexcept {
    return evictions_explicit_.load(std::memory_order_relaxed);
  }
  std::uint64_t evictions_budget() const noexcept {
    return evictions_budget_.load(std::memory_order_relaxed);
  }

  /// Archive path registered for `name` ("" in memory-only mode). Throws
  /// std::out_of_range for unknown names.
  std::string archive_path(const std::string& name) const;

 private:
  /// One cold load of an entry, shared by every acquirer that finds it in
  /// flight.
  struct PendingLoad {
    std::promise<Handle> promise;
    std::shared_future<Handle> result = promise.get_future().share();
  };

  struct Entry {
    std::string archive_path;
    std::uint64_t archive_bytes = 0;
    Handle resident;
    std::size_t resident_bytes = 0;
    std::size_t heap_bytes = 0;
    std::size_t mapped_bytes = 0;
    std::uint64_t text_length = 0;
    std::uint64_t num_sequences = 0;
    std::uint64_t generation = 1;
    std::atomic<std::uint64_t> last_used{0};
    /// The cold load in flight, if any. commit() and evict() detach it, so
    /// a load that finishes after they ran publishes nothing.
    std::shared_ptr<PendingLoad> loading;
  };

  /// What an install commits for one name.
  struct Staged {
    std::uint64_t generation = 1;
    std::string archive_path;         ///< "" in memory-only mode
    std::uint64_t archive_bytes = 0;
    Handle handle;                    ///< null for adopt(): not loaded
    std::uint64_t text_length = 0;    ///< adopt() only (a handle carries its own)
    std::uint64_t num_sequences = 0;  ///< adopt() only
  };

  /// The staged install behind add() and rollover() (`replace_only`):
  /// write, read back, then commit().
  Handle install(const std::string& name, StoredIndex stored, bool replace_only);
  /// The generation an install of `name` creates: 1 for a new name (which
  /// `replace_only` refuses with std::out_of_range), else the current + 1.
  std::uint64_t next_generation(const std::string& name, bool replace_only) const;
  /// `<store>/<name>.bwva` for generation 1, `<store>/<name>.g<N>.bwva` after.
  std::string archive_path_for(const std::string& name, std::uint64_t generation) const;
  /// The locked flip every install ends with (adopt() too); removes the
  /// archive it replaced once the lock is released.
  void commit(const std::string& name, Staged staged);

  void load_manifest();
  void save_manifest_locked() const;
  /// Evicts LRU residents (never `keep`) until the budget is met or nothing
  /// else can be dropped.
  void enforce_budget_locked(const std::string& keep);
  std::size_t resident_bytes_locked() const;
  /// Weighted budget charge: heap + mapped / kMappedWeight.
  std::size_t charged_bytes_locked() const;
  void set_resident_locked(Entry& entry, Handle handle);
  void drop_resident_locked(Entry& entry);

  std::string store_dir_;
  std::size_t memory_budget_;
  LoadMode load_mode_ = LoadMode::kCopy;
  Loader loader_ = [](const std::string& path, LoadMode mode) {
    return read_index_archive(path, mode);
  };
  std::atomic<std::uint64_t> loads_mmap_{0};
  std::atomic<std::uint64_t> loads_copy_{0};
  std::atomic<std::uint64_t> evictions_explicit_{0};
  std::atomic<std::uint64_t> evictions_budget_{0};
  mutable std::shared_mutex mutex_;
  // Serializes installs (never taken by acquire): generation numbers and
  // archive names cannot collide, and nothing else changes an entry's
  // generation between an install's first look and its flip.
  std::mutex install_mutex_;
  std::atomic<std::uint64_t> clock_{0};
  // unique_ptr: Entry holds an atomic LRU stamp (bumped under the shared
  // lock) and is therefore not movable.
  std::map<std::string, std::unique_ptr<Entry>> entries_;
};

}  // namespace bwaver
