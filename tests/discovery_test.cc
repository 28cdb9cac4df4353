// Tests for the discovery module: set-cover utilities, the seven FD-discovery
// baselines (cross-checked against brute force), and FastOFD itself
// (cross-checked against a brute-force OFD enumerator and against TANE under
// the identity ontology).

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "datagen/datagen.h"
#include "discovery/fastofd.h"
#include "discovery/fd_baselines.h"
#include "discovery/set_cover.h"
#include "ofd/inference.h"
#include "ofd/verifier.h"
#include "ontology/generator.h"
#include "ontology/ontology.h"
#include "relation/partition.h"
#include "relation/relation.h"

namespace fastofd {
namespace {

// ---------------------------------------------------------------------------
// Set-cover utilities.

TEST(SetCoverTest, AgreeSetBasics) {
  Relation rel(Schema({"A", "B", "C"}));
  rel.AppendRow({"1", "2", "3"});
  rel.AppendRow({"1", "9", "3"});
  EXPECT_EQ(AgreeSet(rel, 0, 1), AttrSet::Of({0, 2}));
}

TEST(SetCoverTest, CandidatePairsCoverAllAgreeingPairs) {
  Rng rng(8);
  Relation rel(Schema({"A", "B", "C"}));
  for (int r = 0; r < 30; ++r) {
    rel.AppendRow({"v" + std::to_string(rng.NextUint(4)),
                   "v" + std::to_string(rng.NextUint(4)),
                   "v" + std::to_string(rng.NextUint(4))});
  }
  std::vector<std::pair<RowId, RowId>> pairs = CandidatePairs(rel);
  std::set<std::pair<RowId, RowId>> fast(pairs.begin(), pairs.end());
  for (RowId a = 0; a < rel.num_rows(); ++a) {
    for (RowId b = a + 1; b < rel.num_rows(); ++b) {
      if (!AgreeSet(rel, a, b).empty()) {
        EXPECT_TRUE(fast.count({a, b})) << a << "," << b;
      }
    }
  }
}

TEST(SetCoverTest, MaximalAndMinimalSets) {
  std::vector<AttrSet> family = {AttrSet::Of({0}), AttrSet::Of({0, 1}),
                                 AttrSet::Of({2}), AttrSet::Of({0, 1})};
  auto maximal = MaximalSets(family);
  EXPECT_EQ(maximal.size(), 2u);  // {0,1} and {2}
  auto minimal = MinimalSets(family);
  EXPECT_EQ(minimal.size(), 2u);  // {0} and {2}
}

TEST(SetCoverTest, MinimalTransversalsKnownExample) {
  // Sets {0,1}, {1,2}: minimal transversals are {1}, {0,2}.
  auto ts = MinimalTransversals({AttrSet::Of({0, 1}), AttrSet::Of({1, 2})},
                                AttrSet::All(3));
  std::set<uint64_t> masks;
  for (AttrSet t : ts) masks.insert(t.mask());
  EXPECT_EQ(masks, (std::set<uint64_t>{AttrSet::Of({1}).mask(),
                                       AttrSet::Of({0, 2}).mask()}));
}

TEST(SetCoverTest, TransversalsEmptyFamilyAndUnhittable) {
  EXPECT_EQ(MinimalTransversals({}, AttrSet::All(3)).size(), 1u);
  EXPECT_TRUE(MinimalTransversals({}, AttrSet::All(3))[0].empty());
  EXPECT_TRUE(MinimalTransversals({AttrSet::Of({5})}, AttrSet::All(3)).empty());
}

class TransversalRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(TransversalRandomTest, TransversalsHitEverySetAndAreMinimal) {
  Rng rng(900 + GetParam());
  AttrSet universe = AttrSet::All(6);
  std::vector<AttrSet> family;
  int n_sets = 1 + static_cast<int>(rng.NextUint(6));
  for (int i = 0; i < n_sets; ++i) {
    AttrSet s;
    for (int a = 0; a < 6; ++a) {
      if (rng.NextBernoulli(0.4)) s = s.With(a);
    }
    if (!s.empty()) family.push_back(s);
  }
  auto ts = MinimalTransversals(family, universe);
  for (AttrSet t : ts) {
    for (AttrSet s : family) EXPECT_TRUE(t.Intersects(s));
    for (AttrId a : t.ToVector()) {
      AttrSet reduced = t.Without(a);
      bool hits_all = true;
      for (AttrSet s : family) hits_all &= reduced.Intersects(s);
      EXPECT_FALSE(hits_all) << "transversal not minimal";
    }
  }
  // Completeness: any hitting set contains some minimal transversal.
  for (uint64_t mask = 0; mask < 64; ++mask) {
    AttrSet x = AttrSet::FromMask(mask);
    bool hits_all = true;
    for (AttrSet s : family) hits_all &= x.Intersects(s);
    if (!hits_all) continue;
    bool contains_transversal = false;
    for (AttrSet t : ts) contains_transversal |= t.IsSubsetOf(x);
    EXPECT_TRUE(contains_transversal);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransversalRandomTest, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// FD baselines.

// `n_keys` extra columns hold a distinct value per row.
Relation RandomRelation(uint64_t seed, int n_attrs, int n_rows, int domain,
                        int n_keys = 0) {
  Rng rng(seed);
  std::vector<std::string> names;
  for (int a = 0; a < n_attrs + n_keys; ++a) {
    names.push_back(std::string(1, static_cast<char>('A' + a)));
  }
  Relation rel((Schema(names)));
  for (int r = 0; r < n_rows; ++r) {
    std::vector<std::string> row;
    for (int a = 0; a < n_attrs; ++a) {
      row.push_back("v" + std::to_string(rng.NextUint(domain)));
    }
    for (int k = 0; k < n_keys; ++k) row.push_back("k" + std::to_string(r));
    rel.AppendRow(row);
  }
  return rel;
}

// Relation with planted FDs so discovery outputs are non-trivial.
Relation PlantedRelation(uint64_t seed, int n_rows) {
  Rng rng(seed);
  Relation rel(Schema({"A", "B", "C", "D", "E"}));
  for (int r = 0; r < n_rows; ++r) {
    int a = static_cast<int>(rng.NextUint(5));
    int b = static_cast<int>(rng.NextUint(3));
    int c = (a + b) % 4;            // {A,B} -> C
    int d = a % 3;                  // A -> D
    int e = static_cast<int>(rng.NextUint(8));
    rel.AppendRow({"a" + std::to_string(a), "b" + std::to_string(b),
                   "c" + std::to_string(c), "d" + std::to_string(d),
                   "e" + std::to_string(e)});
  }
  return rel;
}

// Relations whose key nodes have siblings missing from the level, which
// TANE's key-pruning minimality check must decide without reading the
// sibling's C+. Params 8-11: wide generated instances (nine attributes, one
// a key column), where treating every missing sibling as a veto drops
// minimal FDs. Params 12-13: small relations with two key columns, where
// ignoring a missing sibling admits non-minimal ones.
Relation KeyedRelation(int param) {
  if (param == 12) return RandomRelation(3151, 4, 5, 2, /*n_keys=*/2);
  if (param == 13) return RandomRelation(5524, 4, 5, 2, /*n_keys=*/2);
  DataGenConfig cfg;
  cfg.num_rows = param % 2 == 0 ? 200 : 600;
  cfg.num_antecedents = 3;
  cfg.num_consequents = 3;
  cfg.num_noise_attrs = 2;
  cfg.num_key_attrs = 1;
  cfg.classes_per_antecedent = 16;
  cfg.seed = static_cast<uint64_t>(param);
  return GenerateData(cfg).rel;
}

class FdAlgorithmsTest : public ::testing::TestWithParam<int> {};

TEST_P(FdAlgorithmsTest, AllMinimalAlgorithmsMatchBruteForce) {
  // Params 0-7: small random and planted relations; 8 and up: keyed ones.
  Relation rel = GetParam() >= 8       ? KeyedRelation(GetParam())
                 : GetParam() % 2 == 0 ? RandomRelation(100 + GetParam(), 4, 25, 3)
                                       : PlantedRelation(100 + GetParam(), 40);
  FdResult expected = BruteForceFds(rel);
  for (const char* name : {"tane", "fun", "dfd", "depminer", "fastfds", "fdep"}) {
    auto algo = MakeFdAlgorithm(name);
    ASSERT_NE(algo, nullptr);
    FdResult got = algo->Discover(rel);
    EXPECT_EQ(got.fds, expected.fds) << name << " seed " << GetParam();
  }
}

TEST_P(FdAlgorithmsTest, FdMineOutputIsSoundAndComplete) {
  Relation rel = RandomRelation(200 + GetParam(), 4, 20, 3);
  FdResult expected = BruteForceFds(rel);
  FdResult got = MakeFdAlgorithm("fdmine")->Discover(rel);
  // Sound: every reported FD holds on the data.
  for (const Ofd& fd : got.fds) {
    StrippedPartition x = StrippedPartition::BuildForSet(rel, fd.lhs);
    StrippedPartition xa = StrippedPartition::BuildForSet(rel, fd.lhs.With(fd.rhs));
    EXPECT_TRUE(FdHolds(x, xa));
  }
  // Complete (as a cover): every minimal FD is implied by FDMine's output
  // under FD (transitive) implication.
  for (const Ofd& fd : expected.fds) {
    EXPECT_TRUE(ImpliesFd(got.fds, fd));
  }
  // And, per the paper's observation, the output is not smaller than the
  // minimal set.
  EXPECT_GE(got.fds.size(), expected.fds.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FdAlgorithmsTest, ::testing::Range(0, 14));

TEST(FdAlgorithmsTest, ConstantColumnYieldsEmptyLhsFd) {
  Relation rel(Schema({"A", "B"}));
  rel.AppendRow({"same", "1"});
  rel.AppendRow({"same", "2"});
  rel.AppendRow({"same", "2"});
  for (const std::string& name : FdAlgorithmNames()) {
    FdResult got = MakeFdAlgorithm(name)->Discover(rel);
    bool found = false;
    for (const Ofd& fd : got.fds) {
      if (fd.rhs == 0 && fd.lhs.empty()) found = true;
    }
    EXPECT_TRUE(found) << name;
  }
}

// FDMine's output is deliberately non-minimal (the paper's ~24x output
// claim rests on it), which the sound-and-complete check above cannot pin
// down. Golden counts on the paper's clinical-trials table (tuple ids
// dropped): TANE's 10 minimal FDs against FDMine's 28, and FDMine's number
// of partition checks.
TEST(FdAlgorithmsTest, FdMineGoldenOutputOnClinicalTrials) {
  auto csv = ReadCsvFile(std::string(FASTOFD_DATA_DIR) + "/clinical_trials.csv");
  ASSERT_TRUE(csv.ok());
  CsvTable table = csv.value();
  table.header.erase(table.header.begin());
  for (auto& row : table.rows) row.erase(row.begin());
  auto rel = Relation::FromCsv(table);
  ASSERT_TRUE(rel.ok());

  FdResult tane = MakeFdAlgorithm("tane")->Discover(rel.value());
  FdResult fdmine = MakeFdAlgorithm("fdmine")->Discover(rel.value());
  EXPECT_EQ(tane.fds.size(), 10u);
  EXPECT_EQ(fdmine.fds.size(), 28u);
  EXPECT_EQ(fdmine.work, 81);
  // Every minimal FD is among FDMine's (unfiltered) outputs.
  for (const Ofd& fd : tane.fds) {
    EXPECT_TRUE(std::binary_search(fdmine.fds.begin(), fdmine.fds.end(), fd))
        << RenderOfd(fd, rel.value().schema());
  }
}

TEST(FdAlgorithmsTest, FactoryRejectsUnknownName) {
  EXPECT_EQ(MakeFdAlgorithm("nope"), nullptr);
  EXPECT_EQ(FdAlgorithmNames().size(), 7u);
}

// ---------------------------------------------------------------------------
// FastOFD.

// Brute-force OFD discovery via the verifier (reference for tests).
SigmaSet BruteForceOfds(const Relation& rel, const SynonymIndex& index) {
  OfdVerifier verifier(rel, index);
  SigmaSet out;
  const int n = rel.num_attrs();
  std::vector<AttrSet> subsets;
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    subsets.push_back(AttrSet::FromMask(mask));
  }
  std::sort(subsets.begin(), subsets.end(), [](AttrSet a, AttrSet b) {
    return a.size() != b.size() ? a.size() < b.size() : a.mask() < b.mask();
  });
  for (AttrId a = 0; a < n; ++a) {
    std::vector<AttrSet> minimal_found;
    for (AttrSet lhs : subsets) {
      if (lhs.Contains(a)) continue;
      bool subsumed = false;
      for (AttrSet m : minimal_found) {
        if (m.IsSubsetOf(lhs)) {
          subsumed = true;
          break;
        }
      }
      if (subsumed) continue;
      if (verifier.Holds({lhs, a, OfdKind::kSynonym})) {
        minimal_found.push_back(lhs);
        out.push_back(Ofd{lhs, a, OfdKind::kSynonym});
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Random relation whose values are drawn from a random ontology's senses
// (plus out-of-ontology noise).
struct OfdInstance {
  Relation rel;
  Ontology ontology;
};

OfdInstance RandomOfdInstance(uint64_t seed, int n_attrs, int n_rows) {
  Rng rng(seed);
  OntologyGenConfig cfg;
  cfg.num_senses = 5;
  cfg.values_per_sense = 4;
  cfg.overlap = 0.3;
  cfg.seed = seed * 31 + 7;
  Ontology ont = GenerateOntology(cfg);
  std::vector<std::string> names;
  for (int a = 0; a < n_attrs; ++a) names.push_back(std::string(1, static_cast<char>('A' + a)));
  Relation rel((Schema(names)));
  for (int r = 0; r < n_rows; ++r) {
    std::vector<std::string> row;
    for (int a = 0; a < n_attrs; ++a) {
      if (rng.NextBernoulli(0.8)) {
        SenseId s = static_cast<SenseId>(rng.NextUint(ont.num_senses()));
        const auto& values = ont.SenseValues(s);
        row.push_back(values[rng.NextUint(values.size())]);
      } else {
        row.push_back("noise" + std::to_string(rng.NextUint(4)));
      }
    }
    rel.AppendRow(row);
  }
  return {std::move(rel), std::move(ont)};
}

class FastOfdRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(FastOfdRandomTest, MatchesBruteForceEnumeration) {
  OfdInstance inst = RandomOfdInstance(777 + GetParam(), 4, 30);
  SynonymIndex index(inst.ontology, inst.rel.dict());
  SigmaSet expected = BruteForceOfds(inst.rel, index);
  FastOfd fastofd(inst.rel, index);
  FastOfdResult got = fastofd.Discover();
  EXPECT_EQ(got.ofds, expected);
}

TEST_P(FastOfdRandomTest, OptimizationTogglesPreserveOutput) {
  OfdInstance inst = RandomOfdInstance(888 + GetParam(), 4, 30);
  SynonymIndex index(inst.ontology, inst.rel.dict());
  FastOfdConfig base;
  SigmaSet reference = FastOfd(inst.rel, index, base).Discover().ofds;
  for (int mask = 0; mask < 8; ++mask) {
    FastOfdConfig cfg;
    cfg.opt_augmentation = mask & 1;
    cfg.opt_keys = mask & 2;
    cfg.opt_fd_reduction = mask & 4;
    SigmaSet got = FastOfd(inst.rel, index, cfg).Discover().ofds;
    EXPECT_EQ(got, reference) << "opts mask " << mask;
  }
}

TEST_P(FastOfdRandomTest, IdentityOntologyReducesToTane) {
  // With an empty ontology, synonym OFDs are exactly traditional FDs.
  Relation rel = RandomRelation(999 + GetParam(), 4, 25, 3);
  Ontology empty;
  SynonymIndex index(empty, rel.dict());
  SigmaSet ofds = FastOfd(rel, index).Discover().ofds;
  FdResult tane = MakeFdAlgorithm("tane")->Discover(rel);
  EXPECT_EQ(ofds, tane.fds);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastOfdRandomTest, ::testing::Range(0, 8));

TEST(FastOfdTest, DiscoversPaperDependencies) {
  auto csv = ReadCsvFile(std::string(FASTOFD_DATA_DIR) + "/clinical_trials.csv");
  ASSERT_TRUE(csv.ok());
  // Drop the tuple-id column; restore the original MED values.
  CsvTable table = csv.value();
  table.header.erase(table.header.begin());
  for (auto& row : table.rows) row.erase(row.begin());
  auto rel_result = Relation::FromCsv(table);
  ASSERT_TRUE(rel_result.ok());
  Relation rel = std::move(rel_result).value();
  rel.Set(8, rel.schema().Find("MED"), "tiazac");
  rel.Set(10, rel.schema().Find("MED"), "tiazac");

  std::string dir(FASTOFD_DATA_DIR);
  auto merged = ParseOntology(
      WriteOntology(ReadOntologyFile(dir + "/drug_ontology.txt").value()) +
      WriteOntology(ReadOntologyFile(dir + "/country_ontology.txt").value()));
  ASSERT_TRUE(merged.ok());
  SynonymIndex index(merged.value(), rel.dict());
  FastOfdResult result = FastOfd(rel, index).Discover();

  const Schema& s = rel.schema();
  Ofd cc_ctry{AttrSet::Single(s.Find("CC")), s.Find("CTRY"), OfdKind::kSynonym};
  EXPECT_TRUE(std::find(result.ofds.begin(), result.ofds.end(), cc_ctry) !=
              result.ofds.end());
  // [SYMP,DIAG] -> MED holds; it may be subsumed by a smaller discovered OFD
  // (e.g. SYMP -> MED holds on this tiny sample), so assert implication.
  Ofd symp_diag_med{AttrSet::Of({s.Find("SYMP"), s.Find("DIAG")}), s.Find("MED"),
                    OfdKind::kSynonym};
  EXPECT_TRUE(ImpliesOfd(result.ofds, symp_diag_med));
  // Everything discovered actually holds and is minimal.
  OfdVerifier verifier(rel, index);
  for (const Ofd& ofd : result.ofds) {
    EXPECT_TRUE(verifier.Holds(ofd)) << RenderOfd(ofd, s);
    for (AttrId b : ofd.lhs.ToVector()) {
      EXPECT_FALSE(verifier.Holds({ofd.lhs.Without(b), ofd.rhs, ofd.kind}))
          << "non-minimal: " << RenderOfd(ofd, s);
    }
  }
  // Level stats add up.
  int64_t total = 0;
  for (const auto& stats : result.level_stats) total += stats.ofds_found;
  EXPECT_EQ(total, static_cast<int64_t>(result.ofds.size()));
}

TEST(FastOfdTest, MaxLevelTruncatesSearch) {
  OfdInstance inst = RandomOfdInstance(31337, 5, 40);
  SynonymIndex index(inst.ontology, inst.rel.dict());
  FastOfdConfig cfg;
  cfg.max_level = 2;
  FastOfdResult truncated = FastOfd(inst.rel, index, cfg).Discover();
  for (const Ofd& ofd : truncated.ofds) {
    EXPECT_LE(ofd.lhs.size(), 1);  // Candidates at level l have |lhs| = l-1.
  }
  EXPECT_LE(truncated.level_stats.size(), 2u);
}

TEST(FastOfdTest, ApproximateDiscoveryIsMonotoneInSupport) {
  OfdInstance inst = RandomOfdInstance(4242, 4, 50);
  SynonymIndex index(inst.ontology, inst.rel.dict());
  FastOfdConfig exact;
  FastOfdConfig approx;
  approx.min_support = 0.8;
  SigmaSet exact_set = FastOfd(inst.rel, index, exact).Discover().ofds;
  SigmaSet approx_set = FastOfd(inst.rel, index, approx).Discover().ofds;
  // Every exact OFD is implied by some approximate OFD (same or smaller lhs).
  OfdVerifier verifier(inst.rel, index);
  for (const Ofd& ofd : exact_set) {
    bool covered = false;
    for (const Ofd& ap : approx_set) {
      if (ap.rhs == ofd.rhs && ap.lhs.IsSubsetOf(ofd.lhs)) covered = true;
    }
    EXPECT_TRUE(covered);
  }
  // Approximate OFDs meet the support threshold.
  for (const Ofd& ofd : approx_set) {
    StrippedPartition p = StrippedPartition::BuildForSet(inst.rel, ofd.lhs);
    EXPECT_GE(verifier.Support(ofd, p), 0.8);
  }
}

TEST(FastOfdTest, ProductRowsCounterBoundsRefinementWork) {
  OfdInstance inst = RandomOfdInstance(2024, 6, 120);
  SynonymIndex index(inst.ontology, inst.rel.dict());
  MetricsRegistry metrics;
  FastOfdConfig cfg;
  cfg.metrics = &metrics;
  FastOfdResult result = FastOfd(inst.rel, index, cfg).Discover();
  MetricsSnapshot snap = metrics.Snapshot();
  // Each product refines one parent, which holds at most every row.
  ASSERT_EQ(snap.counters.count("discover.products.rows"), 1u);
  const int64_t rows = snap.Counter("discover.products.rows");
  ASSERT_GT(result.partition_products, 0);
  EXPECT_GT(rows, 0);
  EXPECT_LE(rows, result.partition_products * inst.rel.num_rows());
  EXPECT_EQ(snap.Counter("discover.partition_products"), result.partition_products);
}

TEST(FastOfdTest, InheritanceDiscoveryRuns) {
  auto ont = ReadOntologyFile(std::string(FASTOFD_DATA_DIR) + "/drug_ontology.txt");
  ASSERT_TRUE(ont.ok());
  Relation rel(Schema({"G", "MED"}));
  rel.AppendRow({"g1", "tylenol"});
  rel.AppendRow({"g1", "analgesic"});
  rel.AppendRow({"g2", "ibuprofen"});
  rel.AppendRow({"g2", "naproxen"});
  SynonymIndex index(ont.value(), rel.dict());
  // At theta=2 every drug reaches the continuant_drug root, so the minimal
  // inheritance OFD is ∅ -> MED; at theta=0 the classes must share a direct
  // concept and G -> MED becomes the minimal discovery.
  FastOfdConfig loose;
  loose.kind = OfdKind::kInheritance;
  loose.theta = 2;
  FastOfdResult at2 = FastOfd(rel, index, loose, &ont.value()).Discover();
  Ofd empty_med{AttrSet(), 1, OfdKind::kInheritance};
  EXPECT_TRUE(std::find(at2.ofds.begin(), at2.ofds.end(), empty_med) !=
              at2.ofds.end());

  FastOfdConfig strict;
  strict.kind = OfdKind::kInheritance;
  strict.theta = 0;
  FastOfdResult at0 = FastOfd(rel, index, strict, &ont.value()).Discover();
  Ofd g_med{AttrSet::Single(0), 1, OfdKind::kInheritance};
  EXPECT_TRUE(std::find(at0.ofds.begin(), at0.ofds.end(), g_med) != at0.ofds.end());
  EXPECT_TRUE(std::find(at0.ofds.begin(), at0.ofds.end(), empty_med) ==
              at0.ofds.end());
}

}  // namespace
}  // namespace fastofd
