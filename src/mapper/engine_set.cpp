#include "mapper/engine_set.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "mapper/batch_scheduler.hpp"
#include "mapper/software_mapper.hpp"
#include "store/index_archive.hpp"

namespace bwaver {

namespace {

/// Checkpoint width of the `sampled` engine: 4 words (128 bases) per block,
/// the Bowtie2-like baseline's default.
constexpr unsigned kSampledCheckpointWords = 4;

/// An FM-index searched by the sweep. `derived` owns the index for engines
/// whose Occ structure is derived from the loaded BWT; `rrr` leaves it null
/// and searches the loaded index in place. `text` is the loaded reference's
/// packed text, which the sweep finishes its one-row searches against.
template <typename Occ>
class OccEngine final : public HostEngine {
 public:
  OccEngine(const FmIndex<Occ>& index, const PackedText& text) : index_(index), text_(text) {}

  OccEngine(const FmIndex<RrrWaveletOcc>& base, Occ occ, const PackedText& text)
      : derived_(std::make_unique<const DerivedOccMapper<Occ>>(base, std::move(occ))),
        index_(derived_->index()),
        text_(text) {}

  std::vector<QueryResult> map(ReadSpan batch, unsigned threads,
                               SoftwareMapReport* report) const override {
    return detail::sweep_map_batch(index_, text_, batch, threads, report);
  }

  std::size_t heap_bytes() const noexcept override {
    if (derived_ == nullptr) return 0;
    const Occ& occ = index_.occ_backend();
    if constexpr (requires { occ.heap_size_in_bytes(); }) {
      return occ.heap_size_in_bytes();
    } else {
      return occ.size_in_bytes();
    }
  }

 private:
  std::unique_ptr<const DerivedOccMapper<Occ>> derived_;
  const FmIndex<Occ>& index_;
  const PackedText& text_;
};

/// The squeezed BWT an engine derives its Occ from: the loaded symbols, or
/// — for a v6 archive, which stores none — the ones the "epr" section
/// transposes, decoded once per engine build and dropped after it.
std::span<const std::uint8_t> engine_bwt(const StoredIndex& stored,
                                         std::vector<std::uint8_t>& decoded) {
  const Bwt& bwt = stored.index.bwt();
  if (bwt.symbols.size() == bwt.text_length) return bwt.symbols;
  if (stored.epr == nullptr) {
    throw std::logic_error("index has neither BWT symbols nor an EPR dictionary");
  }
  decoded = stored.epr->symbols();
  return decoded;
}

std::unique_ptr<const HostEngine> build_engine(MappingEngine engine,
                                               const StoredIndex& stored) {
  const FmIndex<RrrWaveletOcc>& base = stored.index;
  const PackedText& text = stored.reference.concatenated();
  std::vector<std::uint8_t> decoded;
  switch (engine) {
    case MappingEngine::kCpu:
      return std::make_unique<OccEngine<RrrWaveletOcc>>(base, text);
    case MappingEngine::kBowtie2Like:
      return std::make_unique<OccEngine<SampledOcc>>(
          base, SampledOcc(engine_bwt(stored, decoded), kSampledCheckpointWords), text);
    case MappingEngine::kEpr: {
      // The archive's dictionary is aliased when it indexes this BWT;
      // otherwise (v1..v3 archives, in-memory builds) the BWT is transposed.
      if (stored.epr != nullptr && stored.epr->size() == base.size()) {
        return std::make_unique<OccEngine<EprOcc>>(base, EprOcc::view_of(*stored.epr), text);
      }
      return std::make_unique<OccEngine<EprOcc>>(base, EprOcc(engine_bwt(stored, decoded)),
                                                 text);
    }
    case MappingEngine::kFpga:
      break;
  }
  throw std::invalid_argument(std::string("no host engine '") +
                              kernels::engine_spec(engine).name + "'");
}

}  // namespace

const HostEngine& EngineSet::get(MappingEngine engine, const StoredIndex& owner) const {
  Slot& slot = slots_.at(static_cast<std::size_t>(engine));
  std::call_once(slot.once, [&] {
    slot.engine = build_engine(engine, owner);
    builds_.fetch_add(1);
  });
  return *slot.engine;
}

}  // namespace bwaver
