// Engine dispatch + result resolution over a loaded index.
//
// Pipeline holds its index through the same shared StoredIndex handle the
// multi-tenant web service borrows from the IndexRegistry, and both run
// their mapping requests through these free functions — concurrently
// against shared, immutable indexes whose engines are built once
// (StoredIndex::engines) — so their SAM output is byte-identical by
// construction.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "fmindex/reference_set.hpp"
#include "fpga/query_packet.hpp"
#include "io/fastq.hpp"
#include "io/sam.hpp"
#include "mapper/read_batch.hpp"
#include "store/index_archive.hpp"
#include "util/cancellation.hpp"

namespace bwaver {

struct PipelineConfig;
struct MappingOutcome;

/// @SQ header lines for `reference`, in sequence order.
std::vector<SamSequence> sam_sequences_for(const ReferenceSet& reference);

/// Resolves one batch's SA intervals to per-sequence SAM alignments
/// (boundary filtering, `max_hits_per_read` cap) and accumulates the
/// outcome counters. `batch` is `records` as packed for the engine: a read
/// it flags ambiguous (a base outside ACGTU) is reported unmapped. A strand's
/// hits are at SA[row] - verified (QueryResult::fwd_verified).
void resolve_query_results(const ReferenceSet& reference,
                           std::span<const std::uint32_t> suffix_array,
                           std::span<const FastqRecord> records, const ReadBatch& batch,
                           std::span<const QueryResult> results,
                           std::size_t max_hits_per_read, MappingOutcome& outcome,
                           std::vector<SamAlignment>& alignments,
                           const CancelToken* cancel = nullptr);

/// Maps `records` against a loaded index with the engine selected in
/// `config` and renders the SAM document. Host engines come from the
/// index's engine table (built on first use, then shared); the FPGA model
/// is programmed afresh for the call. If `mapping_seconds` is non-null it
/// receives the engine's wall-clock (host) or modeled (FPGA) time.
///
/// A non-null `cancel` token is polled at cooperative checkpoints (before
/// each engine sub-batch and per chunk of result resolution); once it
/// reports a stop the call unwinds with OperationCancelled. The job
/// subsystem uses this for DELETE /jobs/{id} and deadline enforcement.
MappingOutcome map_records_over(const StoredIndex& stored, const PipelineConfig& config,
                                const std::vector<FastqRecord>& records,
                                double* mapping_seconds = nullptr,
                                const CancelToken* cancel = nullptr);

}  // namespace bwaver
