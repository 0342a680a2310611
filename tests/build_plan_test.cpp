// Build-planner tests: direct-vs-blockwise selection, budget-fitted block
// sizes, and the failure mode when even a one-base block cannot fit.
#include "build/build_plan.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "fmindex/kmer_table.hpp"

namespace bwaver::build {
namespace {

constexpr std::size_t kMB = std::size_t{1} << 20;

// The seed length the default build of these references resolves to.
unsigned seed_k(std::size_t n) { return KmerSeedTable::budget_k(n); }

TEST(BuildPlanTest, UnboundedBudgetStaysDirect) {
  const BuildPlan plan =
      plan_build(100 * kMB, /*budget_bytes=*/0, /*block_bases=*/0, seed_k(100 * kMB));
  EXPECT_FALSE(plan.blockwise);
  EXPECT_EQ(plan.block_bases, 0u);
  EXPECT_EQ(plan.estimated_peak_bytes, direct_build_peak_bytes(100 * kMB, seed_k(100 * kMB)));
}

TEST(BuildPlanTest, GenerousBudgetStaysDirect) {
  const std::size_t n = 4 * kMB;
  const BuildPlan plan =
      plan_build(n, direct_build_peak_bytes(n, seed_k(n)) + 1, 0, seed_k(n));
  EXPECT_FALSE(plan.blockwise);
}

TEST(BuildPlanTest, TightBudgetGoesBlockwiseWithinBudget) {
  const std::size_t n = 24 * kMB;
  const std::size_t budget = 200 * kMB;
  const unsigned k = seed_k(n);
  ASSERT_GT(direct_build_peak_bytes(n, k), budget);
  const BuildPlan plan = plan_build(n, budget, 0, k);
  EXPECT_TRUE(plan.blockwise);
  EXPECT_GE(plan.block_bases, 1u);
  EXPECT_LE(plan.block_bases, n);
  // The fitted block's own estimate honors the budget.
  EXPECT_LE(blockwise_build_peak_bytes(n, plan.block_bases, k), budget);
  EXPECT_EQ(plan.estimated_peak_bytes, blockwise_build_peak_bytes(n, plan.block_bases, k));
}

TEST(BuildPlanTest, ExplicitBlockForcesBlockwise) {
  const BuildPlan plan = plan_build(1000, /*budget_bytes=*/0, /*block_bases=*/64, 6);
  EXPECT_TRUE(plan.blockwise);
  EXPECT_EQ(plan.block_bases, 64u);
}

TEST(BuildPlanTest, DerivedBlockClampedToText) {
  // A budget far above the blockwise baseline derives a block capped at n.
  const std::size_t n = 1000;
  const std::size_t block = derive_block_bases(n, std::size_t{8} << 30, seed_k(n));
  EXPECT_EQ(block, n);
}

TEST(BuildPlanTest, DeriveMonotoneInBudget) {
  const std::size_t n = 64 * kMB;
  // Both budgets also hold the k = 12 table (64 MiB) the reference gets.
  const unsigned k = seed_k(n);
  const std::size_t table = KmerSeedTable::table_bytes(k);
  const std::size_t small = derive_block_bases(n, 300 * kMB + table, k);
  const std::size_t large = derive_block_bases(n, 600 * kMB + table, k);
  EXPECT_GE(large, small);
  EXPECT_LE(blockwise_build_peak_bytes(n, small, k), 300 * kMB + table);
  EXPECT_LE(blockwise_build_peak_bytes(n, large, k), 600 * kMB + table);
}

TEST(BuildPlanTest, ImpossibleBudgetThrows) {
  // Below the O(n) floor (text + partial BWTs + fixed overhead) no block
  // size can help.
  EXPECT_THROW(derive_block_bases(100 * kMB, 1 * kMB, 12), std::invalid_argument);
  EXPECT_THROW(plan_build(100 * kMB, 1 * kMB, 0, 12), std::invalid_argument);
}

TEST(BuildPlanTest, DirectModelBoundsTheMeasuredPeaks) {
  // `index build` peaks measured through wait4: 33.2 MiB on the 4.64 Mbp
  // E. coli-like reference (k 10), 144.7 MiB on CI's 24 Mbp one (k 11; it
  // needs ~194 MiB of address space) and 278.9 MiB on the 40.1 Mbp
  // chr21-like one (k 12). The model must stay above each, or a budget
  // between the two picks a direct build that overruns it.
  EXPECT_GT(direct_build_peak_bytes(4'641'652, 10), 33 * kMB + kMB / 4);
  EXPECT_GT(direct_build_peak_bytes(24'000'000, 11), 194 * kMB);
  EXPECT_GT(direct_build_peak_bytes(40'088'619, 12), 279 * kMB);
  // The CI step's 150 MB budget sends the 24 Mbp build blockwise.
  EXPECT_TRUE(plan_build(24'000'000, 150 * kMB, 0, 11).blockwise);
}

TEST(BuildPlanTest, EstimatesCountTheSeedTable) {
  // Both paths hold the 4^k + 1 four-byte boundaries; k = 0 holds none.
  const std::size_t n = 24 * kMB;
  const std::size_t table = 4 * ((std::size_t{1} << 24) + 1);
  EXPECT_EQ(direct_build_peak_bytes(n, 12) - direct_build_peak_bytes(n, 0), table);
  EXPECT_EQ(blockwise_build_peak_bytes(n, 1000, 12) - blockwise_build_peak_bytes(n, 1000, 0),
            table);
  // A budget fitted without the table would overrun once it is counted:
  // the derived block shrinks by the table's share.
  const std::size_t budget = 160 * kMB;
  const std::size_t with_table = derive_block_bases(n, budget, 11);
  EXPECT_LT(with_table, derive_block_bases(n, budget, 0));
  EXPECT_LE(blockwise_build_peak_bytes(n, with_table, 11), budget);
  // The 24 Mbp reference of the CI ulimit build defaults to k = 11 (16 MiB).
  EXPECT_EQ(seed_k(24'000'000), 11u);
}

}  // namespace
}  // namespace bwaver::build
