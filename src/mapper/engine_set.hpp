// The engine table of one loaded index.
//
// The paper encodes its succinct structure once and then only streams
// queries through it. An EngineSet does the same for the host engines of a
// loaded index (StoredIndex): each engine is built at most once, on first
// use, and then shared by every mapping call and thread that holds the
// index. `rrr` searches the loaded RRR index itself; `sampled` and `epr`
// derive their Occ structure from the BWT and borrow the loaded suffix
// array, C array and seed table (DerivedOccMapper); `epr` adopts the
// archive's "epr" section when one was loaded (always, from v6 on), so it
// builds nothing, and `sampled` decodes a v6 archive's BWT from that
// section, which is its only copy. Every engine searches by the sweep
// (detail::sweep_map_batch), which also reads the loaded 2-bit reference
// text to finish one-row searches.
//
// The modeled FPGA is not in the table: its runtime accumulates device
// state per batch, so every mapping call programs a fresh one.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "fpga/query_packet.hpp"
#include "kernels/registry.hpp"
#include "mapper/read_batch.hpp"

namespace bwaver {

struct StoredIndex;
struct SoftwareMapReport;

/// A built host engine: an FM-index searched by the sweep.
class HostEngine {
 public:
  virtual ~HostEngine() = default;

  /// Forward and reverse-complement search of every read in `batch`,
  /// chunked across `threads` workers; results are indexed by read.
  virtual std::vector<QueryResult> map(ReadSpan batch, unsigned threads,
                                       SoftwareMapReport* report) const = 0;

  /// Heap bytes the engine allocated beyond the loaded index (0 for `rrr`,
  /// and for `epr` over an archive that carries its section).
  virtual std::size_t heap_bytes() const noexcept = 0;
};

class EngineSet {
 public:
  EngineSet() = default;
  // Built engines point into the index that owns the set, so an index that
  // is moved (before it is shared) starts over with an empty table.
  EngineSet(EngineSet&&) noexcept {}
  EngineSet& operator=(EngineSet&&) = delete;

  /// The host engine `engine` over `owner`, the index holding this set.
  /// Built on first use; concurrent first callers build it once. Throws
  /// std::invalid_argument for the FPGA model, which is not a host engine.
  const HostEngine& get(MappingEngine engine, const StoredIndex& owner) const;

  /// Engines built so far.
  std::size_t builds() const noexcept { return builds_.load(); }

 private:
  struct Slot {
    std::once_flag once;
    std::unique_ptr<const HostEngine> engine;
  };
  // Indexed by MappingEngine value.
  static constexpr std::size_t kSlots = static_cast<std::size_t>(MappingEngine::kEpr) + 1;

  mutable std::array<Slot, kSlots> slots_;
  mutable std::atomic<std::size_t> builds_{0};
};

}  // namespace bwaver
