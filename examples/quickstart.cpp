// Quickstart: index a reference, map a handful of reads on the FPGA model,
// print where they land. Everything in ~40 lines of API use.
//
//   $ ./quickstart
#include <cstdio>

#include "fmindex/dna.hpp"
#include "mapper/fpga_mapper.hpp"
#include "mapper/software_mapper.hpp"
#include "sim/genome_sim.hpp"

int main() {
  using namespace bwaver;

  // 1. A reference sequence (here: simulated; normally read from FASTA).
  GenomeSimConfig config;
  config.length = 100'000;
  config.seed = 1;
  const std::vector<std::uint8_t> reference = simulate_genome(config);
  std::printf("reference: %zu bp\n", reference.size());

  // 2. Build the BWaveR index: suffix array + BWT + RRR-encoded wavelet
  //    tree (b=15, sf=50 — the paper's hardware configuration).
  const BwaverCpuMapper cpu(reference, RrrParams{15, 50});
  std::printf("succinct structure: %.2f KB (vs %.2f KB raw BWT)\n",
              cpu.index().occ_size_in_bytes() / 1e3, reference.size() / 1e3);

  // 3. Reads: two true substrings (one reverse-complemented) and one random.
  ReadBatch reads;
  std::vector<std::uint8_t> fwd(reference.begin() + 5000, reference.begin() + 5060);
  reads.add(fwd);
  reads.add(dna_reverse_complement(
      std::span<const std::uint8_t>(reference.data() + 70'000, 60)));
  std::vector<std::uint8_t> random_read(60);
  for (std::size_t i = 0; i < random_read.size(); ++i) {
    random_read[i] = static_cast<std::uint8_t>((i * 2654435761u) % 4);
  }
  reads.add(random_read);

  // 4. Map on the FPGA device model and resolve positions on the host.
  BwaverFpgaMapper fpga(cpu.index());
  FpgaMapReport report;
  const auto results = fpga.map(reads, &report);

  const auto& index = cpu.index();
  for (const auto& result : results) {
    std::printf("read %u: ", result.id);
    if (!result.mapped()) {
      std::printf("unmapped\n");
      continue;
    }
    for (std::uint32_t row = result.fwd_lo; row < result.fwd_hi; ++row) {
      std::printf("+%u ", index.sa(row));
    }
    for (std::uint32_t row = result.rev_lo; row < result.rev_hi; ++row) {
      std::printf("-%u ", index.sa(row));
    }
    std::printf("\n");
  }

  std::printf("modeled FPGA time: %.3f ms (program %.3f ms, kernel %.6f ms)\n",
              report.total_seconds() * 1e3, report.program_seconds * 1e3,
              report.kernel_seconds * 1e3);
  return 0;
}
