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

namespace bwaver {

namespace {

constexpr const char* kManifestName = "manifest.tsv";

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
      if (!entry->resident || name == keep) continue;
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

  std::unique_lock lock(mutex_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::out_of_range("IndexRegistry: unknown reference '" + name + "'");
  }
  Entry& entry = *it->second;
  if (!entry.resident) {
    if (entry.archive_path.empty()) {
      // Memory-only entry whose resident copy was evicted: unrecoverable.
      throw std::out_of_range("IndexRegistry: reference '" + name +
                              "' was evicted and has no archive");
    }
    auto loaded = std::make_shared<const StoredIndex>(
        read_index_archive(entry.archive_path, load_mode_));
    auto& counter =
        loaded->load_mode == LoadMode::kMmap ? loads_mmap_ : loads_copy_;
    counter.fetch_add(1, std::memory_order_relaxed);
    set_resident_locked(entry, std::move(loaded));
  }
  entry.last_used.store(now, std::memory_order_relaxed);
  Handle handle = entry.resident;
  enforce_budget_locked(name);
  return handle;
}

IndexRegistry::Handle IndexRegistry::add(const std::string& name, StoredIndex stored) {
  if (!valid_name(name)) {
    throw std::invalid_argument("IndexRegistry: invalid reference name '" + name + "'");
  }
  auto handle = std::make_shared<const StoredIndex>(std::move(stored));

  std::unique_lock lock(mutex_);
  auto& slot = entries_[name];
  const bool replacing = slot != nullptr;
  if (!slot) slot = std::make_unique<Entry>();
  Entry& entry = *slot;
  if (replacing) ++entry.generation;
  if (!store_dir_.empty()) {
    const auto archive =
        std::filesystem::path(store_dir_) / (name + ".bwva");
    write_index_archive(archive.string(), handle->reference, handle->index);
    // A previous rollover may have left the entry on a generation-named
    // archive; it is superseded now.
    if (!entry.archive_path.empty() && entry.archive_path != archive.string()) {
      std::error_code discard;
      std::filesystem::remove(entry.archive_path, discard);
    }
    entry.archive_path = archive.string();
    entry.archive_bytes = std::filesystem::file_size(archive);
  }
  set_resident_locked(entry, handle);
  entry.last_used.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
  if (!store_dir_.empty()) save_manifest_locked();
  enforce_budget_locked(name);
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
  // Cheap validation: header structure plus every section CRC, without
  // materializing the index. Throws IoError on a corrupt/truncated file.
  const ArchiveInfo info = read_index_archive_info(archive_file);

  std::unique_lock lock(mutex_);
  auto& slot = entries_[name];
  const bool replacing = slot != nullptr;
  if (!slot) slot = std::make_unique<Entry>();
  Entry& entry = *slot;
  if (replacing) {
    ++entry.generation;
    // The adopted archive supersedes the resident copy; in-flight readers
    // drain via refcount exactly as in rollover().
    drop_resident_locked(entry);
  }
  const auto archive = std::filesystem::path(store_dir_) / (name + ".bwva");
  if (std::filesystem::path(archive_file) != archive) {
    std::filesystem::rename(archive_file, archive);
  }
  if (!entry.archive_path.empty() && entry.archive_path != archive.string()) {
    std::error_code discard;
    std::filesystem::remove(entry.archive_path, discard);
  }
  entry.archive_path = archive.string();
  entry.archive_bytes = std::filesystem::file_size(archive);
  entry.text_length = info.text_length;
  entry.num_sequences = info.sequences.size();
  entry.last_used.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
  save_manifest_locked();
}

IndexRegistry::Handle IndexRegistry::rollover(const std::string& name,
                                              StoredIndex stored) {
  // Stage 1 (no registry lock held — traffic keeps flowing): persist the
  // next generation beside the current one.
  std::uint64_t next_generation = 0;
  {
    std::shared_lock lock(mutex_);
    const auto it = entries_.find(name);
    if (it == entries_.end()) {
      throw std::out_of_range("IndexRegistry: cannot roll over unknown reference '" +
                              name + "'");
    }
    next_generation = it->second->generation + 1;
  }

  Handle handle;
  std::string new_archive;
  std::uint64_t new_archive_bytes = 0;
  if (!store_dir_.empty()) {
    const auto archive = std::filesystem::path(store_dir_) /
                         (name + ".g" + std::to_string(next_generation) + ".bwva");
    write_index_archive(archive.string(), stored.reference, stored.index);
    // Stage 2: validate by a full re-read through the normal load path.
    // The validated copy *is* the handle we flip to — a corrupt or
    // unwritable archive throws here, before the old generation is
    // touched, and the serving entry never sees it.
    try {
      handle = std::make_shared<const StoredIndex>(
          read_index_archive(archive.string(), load_mode_));
    } catch (...) {
      std::error_code discard;
      std::filesystem::remove(archive, discard);
      throw;
    }
    new_archive = archive.string();
    new_archive_bytes = std::filesystem::file_size(archive);
  } else {
    handle = std::make_shared<const StoredIndex>(std::move(stored));
  }

  // Stage 3: flip. In-flight readers keep their generation-N handle alive
  // via the shared_ptr refcount; new acquires see generation N+1.
  std::string old_archive;
  {
    std::unique_lock lock(mutex_);
    const auto it = entries_.find(name);
    if (it == entries_.end()) {
      throw std::out_of_range("IndexRegistry: reference '" + name +
                              "' removed during rollover");
    }
    Entry& entry = *it->second;
    old_archive = entry.archive_path;
    entry.generation = std::max(next_generation, entry.generation + 1);
    entry.archive_path = new_archive;
    entry.archive_bytes = new_archive_bytes;
    set_resident_locked(entry, handle);
    entry.last_used.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                          std::memory_order_relaxed);
    if (!store_dir_.empty()) save_manifest_locked();
    enforce_budget_locked(name);
  }
  if (!old_archive.empty() && old_archive != new_archive) {
    // Old mmap readers keep the unlinked file alive through their open
    // mapping; the name disappears now, the blocks when they drain.
    std::error_code discard;
    std::filesystem::remove(old_archive, discard);
  }
  return handle;
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
  if (it == entries_.end() || !it->second->resident) return false;
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
