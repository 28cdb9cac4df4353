// Property tests for the flat partition kernels: RefineInto and BuildForSet
// against a naive map-based reference on randomized relations
// (all-singleton, all-one-class, and ragged class-size shapes), refinement of
// any lattice parent against the direct build and the naive grouping,
// flat-layout audit coverage, and the PartitionCache eviction-at-budget
// contract.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "relation/compressed_partition.h"
#include "relation/partition.h"
#include "relation/relation.h"
#include "relation/schema.h"

namespace fastofd {
namespace {

// Shapes for the randomized relations: cardinality 0 means "every cell
// unique" (all rows singleton classes), 1 means one giant class.
struct ColumnShape {
  const char* label;
  std::vector<uint64_t> cardinalities;  // One per attribute.
};

Relation MakeRandomRelation(int rows, const ColumnShape& shape, uint64_t seed) {
  std::vector<std::string> names;
  for (size_t a = 0; a < shape.cardinalities.size(); ++a) {
    names.push_back("A" + std::to_string(a));
  }
  Relation rel((Schema(names)));
  Rng rng(seed);
  for (int r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    for (size_t a = 0; a < shape.cardinalities.size(); ++a) {
      uint64_t card = shape.cardinalities[a];
      uint64_t v = card == 0 ? static_cast<uint64_t>(r) : rng.NextUint(card);
      row.push_back("a" + std::to_string(a) + "_" + std::to_string(v));
    }
    rel.AppendRow(row);
  }
  return rel;
}

// Naive reference: group rows by their tuple of value ids over `attrs`,
// keep the non-singleton groups, order classes by first row. This is the
// definition of a stripped partition, independent of the flat layout.
std::vector<std::vector<RowId>> NaiveClasses(const Relation& rel, AttrSet attrs) {
  std::map<std::vector<ValueId>, std::vector<RowId>> groups;
  for (RowId r = 0; r < rel.num_rows(); ++r) {
    std::vector<ValueId> key;
    for (AttrId a : attrs.ToVector()) {
      key.push_back(rel.Column(a)[static_cast<size_t>(r)]);
    }
    groups[key].push_back(r);
  }
  std::map<RowId, std::vector<RowId>> by_head;  // Rows are appended ascending.
  for (auto& [key, rows] : groups) {
    if (rows.size() >= 2) by_head[rows.front()] = rows;
  }
  std::vector<std::vector<RowId>> out;
  for (auto& [head, rows] : by_head) out.push_back(rows);
  return out;
}

// Canonical form of a flat partition for comparison: classes ordered by
// first row (the kernels emit rows strictly ascending within a class, but
// class order follows the refined parent).
std::vector<std::vector<RowId>> Canonical(const StrippedPartition& p) {
  std::map<RowId, std::vector<RowId>> by_head;
  for (const auto& cls : p.ToClassVectors()) by_head[cls.front()] = cls;
  std::vector<std::vector<RowId>> out;
  for (auto& [head, rows] : by_head) out.push_back(rows);
  return out;
}

TEST(FlatKernelPropertyTest, MatchesNaiveReferenceAcrossShapes) {
  const std::vector<ColumnShape> shapes = {
      {"all-singleton", {0, 0}},
      {"all-one-class", {1, 1}},
      {"singleton-x-giant", {0, 1}},
      {"ragged", {3, 40}},
      {"ragged-skewed", {2, 7}},
      {"mid", {16, 16}},
  };
  const std::vector<int> row_counts = {0, 1, 2, 3, 17, 256, 1000};
  for (const ColumnShape& shape : shapes) {
    for (int rows : row_counts) {
      SCOPED_TRACE(std::string(shape.label) + " rows=" + std::to_string(rows));
      Relation rel = MakeRandomRelation(rows, shape, 1234u + static_cast<uint64_t>(rows));
      AttrSet both = AttrSet::Of({0, 1});
      std::vector<std::vector<RowId>> expected = NaiveClasses(rel, both);

      StrippedPartition fa = StrippedPartition::Build(rel, 0);
      StrippedPartition fb = StrippedPartition::Build(rel, 1);
      ASSERT_TRUE(fa.AuditInvariants(rel, AttrSet::Single(0)).ok());
      ASSERT_TRUE(fb.AuditInvariants(rel, AttrSet::Single(1)).ok());

      PartitionScratch scratch;
      StrippedPartition out;

      // Refinement by the dictionary-coded column, no column partition. Run
      // twice on one scratch and `out`: the second call takes the warmed,
      // zero-allocation path into a dirty `out`, on counters the first call
      // must have reset.
      for (int pass = 0; pass < 2; ++pass) {
        StrippedPartition::RefineInto(fa, rel.Column(1), rel.dict().size(),
                                      &scratch, &out);
        EXPECT_EQ(Canonical(out), expected) << "refine pass " << pass;
        EXPECT_TRUE(out.AuditInvariants(rel, both).ok());
      }

      // BuildForSet is the ping-pong refinement composition.
      StrippedPartition direct = StrippedPartition::BuildForSet(rel, both);
      EXPECT_EQ(Canonical(direct), expected) << "build-for-set";
    }
  }
}

// Wider relations for the lattice-refinement property: every density regime
// the kernels meet, with enough attributes for |X| up to 4.
const ColumnShape kShapes[] = {
    {"dense-low-card", {4, 4, 4, 4, 4}},
    {"mid-card", {16, 16, 16, 16, 16}},
    {"mixed", {2, 7, 40, 3, 300}},
    {"singleton-column", {3, 0, 5, 2, 4}},
    {"one-class-column", {6, 1, 6, 1, 6}},
};

// Every lattice miner builds Π*_X by refining one (l-1)-subset's partition
// with the column it lacks. Whichever parent is picked, the result must
// equal the direct build and the naive grouping.
TEST(FlatKernelPropertyTest, RefineOfAnyParentMatchesNaive) {
  for (const ColumnShape& shape : kShapes) {
    SCOPED_TRACE(shape.label);
    Relation rel = MakeRandomRelation(600, shape, 4242);
    Rng rng(99);
    for (int trial = 0; trial < 12; ++trial) {
      // A random X with 2..4 attributes.
      const int size = 2 + trial % 3;
      AttrSet x;
      while (x.size() < size) {
        x = x.With(static_cast<AttrId>(rng.NextUint(shape.cardinalities.size())));
      }
      SCOPED_TRACE("mask=" + std::to_string(x.mask()));
      const std::vector<std::vector<RowId>> expected =
          Canonical(StrippedPartition::BuildForSet(rel, x));
      EXPECT_EQ(expected, NaiveClasses(rel, x));
      for (AttrId a : x.ToVector()) {
        StrippedPartition parent = StrippedPartition::BuildForSet(rel, x.Without(a));
        StrippedPartition refined = StrippedPartition::Refine(parent, rel, a);
        EXPECT_EQ(Canonical(refined), expected) << "refine by " << a;
        EXPECT_TRUE(refined.AuditInvariants(rel, x).ok()) << "refine by " << a;
      }
    }
  }
}

TEST(RowSpanTest, BasicAccessors) {
  const std::vector<RowId> rows = {2, 5, 9};
  RowSpan span = rows;  // Implicit from a vector.
  EXPECT_EQ(span.size(), 3u);
  EXPECT_FALSE(span.empty());
  EXPECT_EQ(span.front(), 2);
  EXPECT_EQ(span.back(), 9);
  EXPECT_EQ(span[1], 5);
  std::vector<RowId> copied(span.begin(), span.end());
  EXPECT_EQ(copied, rows);
  RowSpan explicit_span(rows.data() + 1, 2);
  EXPECT_EQ(explicit_span.front(), 5);
}

TEST(FlatAuditTest, AcceptsWellFormedLayoutAndRejectsCorruption) {
  // Two classes {0,1,2} and {4,6} over 8 rows.
  const std::vector<RowId> rows = {0, 1, 2, 4, 6};
  const std::vector<uint32_t> offsets = {0, 3, 5};
  EXPECT_TRUE(StrippedPartition::AuditFlatParts(rows, offsets, 8).ok());

  // Offsets must start at 0.
  EXPECT_FALSE(
      StrippedPartition::AuditFlatParts(rows, {1, 3, 5}, 8).ok());
  // Offsets must end at rows.size().
  EXPECT_FALSE(
      StrippedPartition::AuditFlatParts(rows, {0, 3, 4}, 8).ok());
  // Classes must have >= 2 rows (stripped partition).
  EXPECT_FALSE(
      StrippedPartition::AuditFlatParts(rows, {0, 4, 5}, 8).ok());
  // Offsets must be monotone.
  EXPECT_FALSE(
      StrippedPartition::AuditFlatParts(rows, {0, 5, 3}, 8).ok());
  // The arena cannot hold more rows than the relation.
  EXPECT_FALSE(StrippedPartition::AuditFlatParts(rows, offsets, 4).ok());
}

// Regression for the byte accounting fix: entries are charged by actual
// allocated arena bytes, so filling the cache past a small budget must
// evict (before the fix, undercounted footprints let the cache blow its
// --cache-mb budget without ever evicting). Audit-backed: the cache's own
// invariant auditor re-derives every charge and the budget check. The cold
// tier compresses before it evicts, so the budget leaves room for the newest
// entry (held flat) plus two and a half compressed ones: the fourth
// partition cannot fit even with every older entry compressed.
TEST(PartitionCacheTest, EvictsWhenArenaBytesExceedBudget) {
  Relation rel = MakeRandomRelation(2000, {"four-cols", {50, 50, 50, 50}}, 9);
  StrippedPartition sample = StrippedPartition::Build(rel, 0);
  sample.Compact();
  const int64_t flat = PartitionCache::FootprintBytes(sample);
  const int64_t cold =
      PartitionCache::FootprintBytes(CompressedPartition::Encode(sample));
  ASSERT_GT(cold, 0);
  ASSERT_LT(cold, flat);

  PartitionCache cache(rel, flat + 2 * cold + cold / 2);
  for (AttrId a = 0; a < 4; ++a) {
    std::shared_ptr<const StrippedPartition> p = cache.Get(AttrSet::Single(a));
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(cache.AuditInvariants().ok());
  }
  EXPECT_GT(cache.compressions(), 0);
  EXPECT_GT(cache.evictions(), 0);
  EXPECT_LE(cache.bytes(), cache.budget_bytes());
  EXPECT_LT(cache.size(), 4u);
  EXPECT_TRUE(cache.AuditInvariants().ok());
}

}  // namespace
}  // namespace fastofd
