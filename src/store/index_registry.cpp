#include "store/index_registry.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "io/byte_io.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace bwaver {

namespace {

constexpr const char* kManifestName = "manifest.tsv";

/// Hands the heap pages free()d so far back to the kernel. glibc keeps a
/// freed block of a few MB in its arena for reuse, so without this a built
/// index's memory would still be resident while the read-back maps the new
/// archive; other allocators return such blocks themselves.
void release_freed_memory() {
#if defined(__GLIBC__)
  ::malloc_trim(0);
#endif
}

}  // namespace

bool IndexRegistry::valid_name(const std::string& name) {
  if (name.empty() || name.size() > 256) return false;
  for (const char c : name) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == '/' || c == '\0') {
      return false;
    }
  }
  return true;
}

IndexRegistry::IndexRegistry(std::string store_dir, std::size_t memory_budget_bytes,
                             LoadMode load_mode)
    : store_dir_(std::move(store_dir)),
      memory_budget_(memory_budget_bytes),
      load_mode_(load_mode) {
  if (!store_dir_.empty()) {
    std::filesystem::create_directories(store_dir_);
    load_manifest();
  }
}

void IndexRegistry::load_manifest() {
  const auto manifest_path = std::filesystem::path(store_dir_) / kManifestName;
  std::ifstream manifest(manifest_path);
  if (!manifest) return;  // fresh store directory
  std::string line;
  while (std::getline(manifest, line)) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    std::string name, filename, bytes_str, generation_str;
    if (!std::getline(fields, name, '\t') || !std::getline(fields, filename, '\t') ||
        !std::getline(fields, bytes_str, '\t')) {
      throw IoError("IndexRegistry: malformed manifest line: " + line);
    }
    auto entry = std::make_unique<Entry>();
    entry->archive_path = (std::filesystem::path(store_dir_) / filename).string();
    entry->archive_bytes = std::stoull(bytes_str);
    // Optional 4th column (added with rollover support); older manifests
    // without it read as generation 1.
    if (std::getline(fields, generation_str, '\t') && !generation_str.empty()) {
      entry->generation = std::stoull(generation_str);
    }
    // Sequence table and text length come from the (cheap) archive header so
    // listings don't need the index resident.
    const ArchiveInfo info = read_index_archive_info(entry->archive_path);
    entry->text_length = info.text_length;
    entry->num_sequences = info.sequences.size();
    entries_[name] = std::move(entry);
  }
}

void IndexRegistry::save_manifest_locked() const {
  const auto manifest_path = std::filesystem::path(store_dir_) / kManifestName;
  std::ofstream manifest(manifest_path, std::ios::trunc);
  if (!manifest) {
    throw IoError("IndexRegistry: cannot write manifest: " + manifest_path.string());
  }
  manifest << "# BWaveR index store manifest: name\tarchive\tbytes\tgeneration\n";
  for (const auto& [name, entry] : entries_) {
    manifest << name << '\t'
             << std::filesystem::path(entry->archive_path).filename().string() << '\t'
             << entry->archive_bytes << '\t' << entry->generation << '\n';
  }
}

std::size_t IndexRegistry::resident_bytes_locked() const {
  std::size_t total = 0;
  for (const auto& [name, entry] : entries_) {
    total += entry->resident_bytes;
  }
  return total;
}

std::size_t IndexRegistry::charged_bytes_locked() const {
  std::size_t total = 0;
  for (const auto& [name, entry] : entries_) {
    total += entry->heap_bytes + entry->mapped_bytes / kMappedWeight;
  }
  return total;
}

void IndexRegistry::set_resident_locked(Entry& entry, Handle handle) {
  const IndexFootprint footprint = stored_index_footprint(*handle);
  entry.resident = std::move(handle);
  entry.resident_bytes = footprint.total();
  entry.heap_bytes = footprint.heap_bytes;
  entry.mapped_bytes = footprint.mapped_bytes;
  entry.text_length = entry.resident->reference.total_length();
  entry.num_sequences = entry.resident->reference.num_sequences();
}

void IndexRegistry::drop_resident_locked(Entry& entry) {
  // Dropping the registry handle releases the heap copy immediately (once
  // in-flight readers finish) and, for an mmap load, the last StoredIndex
  // handle also unmaps the archive via its `backing` MappedFile.
  entry.resident.reset();
  entry.resident_bytes = 0;
  entry.heap_bytes = 0;
  entry.mapped_bytes = 0;
}

void IndexRegistry::enforce_budget_locked(const std::string& keep) {
  while (charged_bytes_locked() > memory_budget_) {
    Entry* victim = nullptr;
    std::string victim_name;
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (const auto& [name, entry] : entries_) {
      // An entry with no archive (memory-only) is never a victim: its
      // resident copy is the only copy.
      if (!entry->resident || name == keep || entry->archive_path.empty()) continue;
      const std::uint64_t used = entry->last_used.load(std::memory_order_relaxed);
      if (used < oldest) {
        oldest = used;
        victim = entry.get();
        victim_name = name;
      }
    }
    if (victim == nullptr) break;  // only `keep` is resident; nothing to drop
    drop_resident_locked(*victim);
    evictions_budget_.fetch_add(1, std::memory_order_relaxed);
  }
}

IndexRegistry::Handle IndexRegistry::acquire(const std::string& name) {
  const std::uint64_t now = clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  {
    std::shared_lock lock(mutex_);
    const auto it = entries_.find(name);
    if (it == entries_.end()) {
      throw std::out_of_range("IndexRegistry: unknown reference '" + name + "'");
    }
    if (it->second->resident) {
      it->second->last_used.store(now, std::memory_order_relaxed);
      return it->second->resident;
    }
  }

  // Cold: join the entry's load in flight, or start one.
  std::shared_ptr<PendingLoad> load;
  std::string path;
  {
    std::unique_lock lock(mutex_);
    const auto it = entries_.find(name);
    if (it == entries_.end()) {
      throw std::out_of_range("IndexRegistry: unknown reference '" + name + "'");
    }
    Entry& entry = *it->second;
    entry.last_used.store(now, std::memory_order_relaxed);
    if (entry.resident) return entry.resident;
    if (entry.loading) {
      const std::shared_future<Handle> result = entry.loading->result;
      lock.unlock();
      return result.get();  // rethrows the load's error
    }
    load = std::make_shared<PendingLoad>();
    entry.loading = load;
    path = entry.archive_path;
  }

  // The read and its CRC pass run with no registry lock held.
  Handle handle;
  try {
    handle = std::make_shared<const StoredIndex>(loader_(path, load_mode_));
  } catch (...) {
    // A failed load of an entry that an install replaced meanwhile (its
    // archive may be gone by now) is answered with the replacement.
    Handle replacement;
    {
      std::unique_lock lock(mutex_);
      const auto it = entries_.find(name);
      if (it != entries_.end()) {
        if (it->second->loading == load) {
          it->second->loading.reset();
        } else {
          replacement = it->second->resident;
        }
      }
    }
    if (replacement) {
      load->promise.set_value(replacement);
      return replacement;
    }
    load->promise.set_exception(std::current_exception());
    throw;
  }
  auto& counter = handle->load_mode == LoadMode::kMmap ? loads_mmap_ : loads_copy_;
  counter.fetch_add(1, std::memory_order_relaxed);

  {
    std::unique_lock lock(mutex_);
    const auto it = entries_.find(name);
    // An add, rollover, adopt or evict since the load began detached it:
    // the entry is not this archive's any more, so nothing is published
    // (this acquirer and its waiters still get the index they asked for).
    if (it != entries_.end() && it->second->loading == load) {
      Entry& entry = *it->second;
      entry.loading.reset();
      set_resident_locked(entry, handle);
      enforce_budget_locked(name);
    }
  }
  load->promise.set_value(handle);
  return handle;
}

IndexRegistry::Handle IndexRegistry::add(const std::string& name, StoredIndex stored) {
  if (!valid_name(name)) {
    throw std::invalid_argument("IndexRegistry: invalid reference name '" + name + "'");
  }
  return install(name, std::move(stored), /*replace_only=*/false);
}

IndexRegistry::Handle IndexRegistry::rollover(const std::string& name,
                                              StoredIndex stored) {
  return install(name, std::move(stored), /*replace_only=*/true);
}

std::uint64_t IndexRegistry::next_generation(const std::string& name,
                                             bool replace_only) const {
  std::shared_lock lock(mutex_);
  const auto it = entries_.find(name);
  if (it != entries_.end()) return it->second->generation + 1;
  if (replace_only) {
    throw std::out_of_range("IndexRegistry: cannot roll over unknown reference '" + name +
                            "'");
  }
  return 1;
}

std::string IndexRegistry::archive_path_for(const std::string& name,
                                            std::uint64_t generation) const {
  // Generation 1 keeps the plain name; each later one gets its own file, so
  // the archive being served is never written over.
  const std::string file =
      generation == 1 ? name + ".bwva"
                      : name + ".g" + std::to_string(generation) + ".bwva";
  return (std::filesystem::path(store_dir_) / file).string();
}

IndexRegistry::Handle IndexRegistry::install(const std::string& name, StoredIndex stored,
                                             bool replace_only) {
  const std::lock_guard install_lock(install_mutex_);
  Staged staged;
  staged.generation = next_generation(name, replace_only);
  if (store_dir_.empty()) {
    // Memory-only: there is nothing to write or read back.
    staged.handle = std::make_shared<const StoredIndex>(std::move(stored));
  } else {
    // Stage 1, with no registry lock held (traffic keeps flowing): write the
    // new generation beside the current one. The write is temp + rename, so
    // a failure leaves no file behind. The built index dies with this
    // scope: the read-back below never coexists with it.
    staged.archive_path = archive_path_for(name, staged.generation);
    {
      const StoredIndex built = std::move(stored);
      write_index_archive(staged.archive_path, built.reference, built.index);
    }
    release_freed_memory();
    // Stage 2: check it by a full read-back in the registry's load mode,
    // through the loader acquire() uses. The checked copy *is* the handle
    // served — a corrupt or unreadable archive throws here, before the
    // entry is touched.
    try {
      staged.handle = std::make_shared<const StoredIndex>(
          loader_(staged.archive_path, load_mode_));
      staged.archive_bytes = std::filesystem::file_size(staged.archive_path);
    } catch (...) {
      std::error_code discard;
      std::filesystem::remove(staged.archive_path, discard);
      throw;
    }
  }
  const Handle handle = staged.handle;
  commit(name, std::move(staged));
  return handle;
}

void IndexRegistry::adopt(const std::string& name, const std::string& archive_file) {
  if (!valid_name(name)) {
    throw std::invalid_argument("IndexRegistry: invalid reference name '" + name + "'");
  }
  if (store_dir_.empty()) {
    throw std::logic_error(
        "IndexRegistry: adopt() requires a persistent store directory");
  }
  // Cheap validation without materializing the index: the header CRC, the
  // section bounds and the meta/build CRCs (bulk payload CRCs are checked
  // when the archive is loaded). Throws IoError on a corrupt/truncated file.
  const ArchiveInfo info = read_index_archive_info(archive_file);

  const std::lock_guard install_lock(install_mutex_);
  Staged staged;
  staged.generation = next_generation(name, /*replace_only=*/false);
  staged.archive_path = archive_path_for(name, staged.generation);
  if (std::filesystem::path(archive_file) != staged.archive_path) {
    std::filesystem::rename(archive_file, staged.archive_path);
  }
  staged.archive_bytes = std::filesystem::file_size(staged.archive_path);
  staged.text_length = info.text_length;
  staged.num_sequences = info.sequences.size();
  commit(name, std::move(staged));
}

void IndexRegistry::commit(const std::string& name, Staged staged) {
  // Stage 3: flip under the write lock (a pointer swap). In-flight readers
  // keep the previous generation's handle alive via its refcount; new
  // acquires see the new one.
  std::string replaced;
  {
    std::unique_lock lock(mutex_);
    auto& slot = entries_[name];
    if (!slot) slot = std::make_unique<Entry>();
    Entry& entry = *slot;
    replaced = entry.archive_path;
    entry.loading.reset();  // a cold load of the replaced archive publishes nothing
    entry.generation = staged.generation;
    entry.archive_path = staged.archive_path;
    entry.archive_bytes = staged.archive_bytes;
    if (staged.handle) {
      set_resident_locked(entry, std::move(staged.handle));
    } else {
      drop_resident_locked(entry);
      entry.text_length = staged.text_length;
      entry.num_sequences = staged.num_sequences;
    }
    entry.last_used.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                          std::memory_order_relaxed);
    if (!store_dir_.empty()) save_manifest_locked();
    enforce_budget_locked(name);
  }
  if (!replaced.empty() && replaced != staged.archive_path) {
    // Old mmap readers keep the unlinked file alive through their open
    // mapping; the name disappears now, the blocks when they drain.
    std::error_code discard;
    std::filesystem::remove(replaced, discard);
  }
}

std::uint64_t IndexRegistry::generation(const std::string& name) const {
  std::shared_lock lock(mutex_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::out_of_range("IndexRegistry: unknown reference '" + name + "'");
  }
  return it->second->generation;
}

bool IndexRegistry::evict(const std::string& name) {
  std::unique_lock lock(mutex_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) return false;
  it->second->loading.reset();  // a cold load in flight publishes nothing
  if (!it->second->resident || it->second->archive_path.empty()) return false;
  drop_resident_locked(*it->second);
  evictions_explicit_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool IndexRegistry::contains(const std::string& name) const {
  std::shared_lock lock(mutex_);
  return entries_.count(name) != 0;
}

std::size_t IndexRegistry::size() const {
  std::shared_lock lock(mutex_);
  return entries_.size();
}

std::vector<RegistryEntry> IndexRegistry::list() const {
  std::shared_lock lock(mutex_);
  std::vector<RegistryEntry> entries;
  entries.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    RegistryEntry snapshot;
    snapshot.name = name;
    snapshot.archive_path = entry->archive_path;
    snapshot.archive_bytes = entry->archive_bytes;
    snapshot.resident = entry->resident != nullptr;
    snapshot.resident_bytes = entry->resident_bytes;
    snapshot.heap_bytes = entry->heap_bytes;
    snapshot.mapped_bytes = entry->mapped_bytes;
    snapshot.text_length = entry->text_length;
    snapshot.num_sequences = entry->num_sequences;
    snapshot.generation = entry->generation;
    if (entry->resident) snapshot.sections = stored_index_sections(*entry->resident);
    entries.push_back(std::move(snapshot));
  }
  return entries;
}

std::size_t IndexRegistry::resident_bytes() const {
  std::shared_lock lock(mutex_);
  return resident_bytes_locked();
}

std::size_t IndexRegistry::heap_bytes() const {
  std::shared_lock lock(mutex_);
  std::size_t total = 0;
  for (const auto& [name, entry] : entries_) total += entry->heap_bytes;
  return total;
}

std::size_t IndexRegistry::mapped_bytes() const {
  std::shared_lock lock(mutex_);
  std::size_t total = 0;
  for (const auto& [name, entry] : entries_) total += entry->mapped_bytes;
  return total;
}

std::string IndexRegistry::archive_path(const std::string& name) const {
  std::shared_lock lock(mutex_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::out_of_range("IndexRegistry: unknown reference '" + name + "'");
  }
  return it->second->archive_path;
}

}  // namespace bwaver
