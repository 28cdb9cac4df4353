// Tests for the OFDClean stack: EMD, sense assignment, data/ontology
// repair, beam-node scoring, the end-to-end driver on the paper's running
// example, and the HoloCleanLite baseline.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "clean/beam_scorer.h"
#include "clean/emd.h"
#include "clean/holoclean_lite.h"
#include "clean/repair.h"
#include "clean/sense_assignment.h"
#include "datagen/datagen.h"
#include "exec/thread_pool.h"
#include "ofd/verifier.h"
#include "ontology/ontology.h"
#include "ontology/synonym_index.h"
#include "relation/relation.h"

namespace fastofd {
namespace {

// ---------------------------------------------------------------------------
// EMD.

TEST(EmdTest, IdenticalHistogramsHaveZeroDistance) {
  ValueHistogram p = {{1, 3}, {2, 5}};
  EXPECT_DOUBLE_EQ(CategoricalEmd(p, p), 0.0);
}

TEST(EmdTest, CategoricalKnownValues) {
  // p = {a:3}, q = {b:3}: move 3 units -> EMD 3.
  EXPECT_DOUBLE_EQ(CategoricalEmd({{1, 3}}, {{2, 3}}), 3.0);
  // p = {a:2, b:1}, q = {a:1, b:2}: move 1 unit.
  EXPECT_DOUBLE_EQ(CategoricalEmd({{1, 2}, {2, 1}}, {{1, 1}, {2, 2}}), 1.0);
}

TEST(EmdTest, CategoricalIsSymmetric) {
  ValueHistogram p = {{1, 4}, {2, 1}, {3, 2}};
  ValueHistogram q = {{1, 1}, {4, 6}};
  EXPECT_DOUBLE_EQ(CategoricalEmd(p, q), CategoricalEmd(q, p));
}

TEST(EmdTest, UnequalMassChargesSurplus) {
  // p has 5 units, q has 2 on the same bin: 3 surplus moves.
  EXPECT_DOUBLE_EQ(CategoricalEmd({{1, 5}}, {{1, 2}}), 3.0);
}

TEST(EmdTest, OrderedPrefixSumFormula) {
  // p = [1,0,0], q = [0,0,1]: one unit moved two bins -> 2.
  EXPECT_DOUBLE_EQ(OrderedEmd({1, 0, 0}, {0, 0, 1}), 2.0);
  EXPECT_DOUBLE_EQ(OrderedEmd({2, 2}, {2, 2}), 0.0);
  EXPECT_DOUBLE_EQ(OrderedEmd({0, 4}, {4, 0}), 4.0);
}

// ---------------------------------------------------------------------------
// Fixtures.

// Table 1 with updated (dirty) MED values and the merged ontology.
struct CleanFixture {
  Relation rel;
  Ontology ontology;

  static CleanFixture Make() {
    auto csv = ReadCsvFile(std::string(FASTOFD_DATA_DIR) + "/clinical_trials.csv");
    EXPECT_TRUE(csv.ok());
    CsvTable table = csv.value();
    table.header.erase(table.header.begin());
    for (auto& row : table.rows) row.erase(row.begin());
    auto rel = Relation::FromCsv(table);
    EXPECT_TRUE(rel.ok());
    std::string dir(FASTOFD_DATA_DIR);
    auto merged = ParseOntology(
        WriteOntology(ReadOntologyFile(dir + "/drug_ontology.txt").value()) +
        WriteOntology(ReadOntologyFile(dir + "/country_ontology.txt").value()));
    EXPECT_TRUE(merged.ok());
    return CleanFixture{std::move(rel).value(), std::move(merged).value()};
  }
};

// ---------------------------------------------------------------------------
// Initial sense assignment (Algorithm 5).

TEST(SenseAssignmentTest, PicksSenseWithMaxCoverage) {
  Relation rel(Schema({"X", "MED"}));
  // Class of 5 tuples: 3 covered by sense A only, 2 by sense B only.
  Ontology ont;
  SenseId sa = ont.AddSense("A");
  SenseId sb = ont.AddSense("B");
  ont.AddValue(sa, "a1");
  ont.AddValue(sa, "a2");
  ont.AddValue(sb, "b1");
  rel.AppendRow({"x", "a1"});
  rel.AppendRow({"x", "a1"});
  rel.AppendRow({"x", "a2"});
  rel.AppendRow({"x", "b1"});
  rel.AppendRow({"x", "b1"});
  SynonymIndex index(ont, rel.dict());
  const std::vector<RowId> rows = {0, 1, 2, 3, 4};
  SenseId got = SenseSelector::InitialAssignment(rel, index, rows, 1);
  EXPECT_EQ(got, sa);  // Covers 3 tuples vs 2.
}

TEST(SenseAssignmentTest, PrefersSenseCoveringMoreDistinctTopValues) {
  Relation rel(Schema({"X", "MED"}));
  Ontology ont;
  SenseId sa = ont.AddSense("A");
  SenseId sb = ont.AddSense("B");
  // Sense A covers both frequent values; B covers one frequent + one rare.
  ont.AddValue(sa, "v1");
  ont.AddValue(sa, "v2");
  ont.AddValue(sb, "v1");
  ont.AddValue(sb, "rare");
  for (int i = 0; i < 4; ++i) rel.AppendRow({"x", "v1"});
  for (int i = 0; i < 3; ++i) rel.AppendRow({"x", "v2"});
  rel.AppendRow({"x", "rare"});
  SynonymIndex index(ont, rel.dict());
  std::vector<RowId> rows;
  for (RowId r = 0; r < rel.num_rows(); ++r) rows.push_back(r);
  EXPECT_EQ(SenseSelector::InitialAssignment(rel, index, rows, 1), sa);
}

TEST(SenseAssignmentTest, AllValuesOutsideOntologyGivesInvalidSense) {
  Relation rel(Schema({"X", "MED"}));
  rel.AppendRow({"x", "u1"});
  rel.AppendRow({"x", "u2"});
  Ontology empty;
  SynonymIndex index(empty, rel.dict());
  const std::vector<RowId> rows = {0, 1};
  EXPECT_EQ(SenseSelector::InitialAssignment(rel, index, rows, 1), kInvalidSense);
}

TEST(SenseAssignmentTest, FallsBackWhenTopValueUncovered) {
  Relation rel(Schema({"X", "MED"}));
  Ontology ont;
  SenseId s = ont.AddSense("S");
  ont.AddValue(s, "known");
  // 'mystery' is the most frequent value but unknown to the ontology.
  rel.AppendRow({"x", "mystery"});
  rel.AppendRow({"x", "mystery"});
  rel.AppendRow({"x", "mystery"});
  rel.AppendRow({"x", "known"});
  SynonymIndex index(ont, rel.dict());
  const std::vector<RowId> rows = {0, 1, 2, 3};
  EXPECT_EQ(SenseSelector::InitialAssignment(rel, index, rows, 1), s);
}

TEST(SenseAssignmentTest, AccuracyHighOnCleanGeneratedData) {
  DataGenConfig cfg;
  cfg.num_rows = 500;
  cfg.num_antecedents = 2;
  cfg.num_consequents = 2;
  cfg.num_senses = 4;
  cfg.error_rate = 0.0;
  cfg.seed = 7;
  GeneratedData data = GenerateData(cfg);
  SynonymIndex index(data.ontology, data.rel.dict());
  SenseSelector selector(data.rel, index, data.sigma);
  SenseAssignmentResult result = selector.Run();

  int64_t correct = 0, total = 0;
  for (size_t i = 0; i < data.sigma.size(); ++i) {
    const auto& classes = result.partitions[i].classes();
    for (size_t c = 0; c < classes.size(); ++c) {
      // Recover the class's antecedent value to look up the true sense.
      AttrId lhs = data.sigma[i].lhs.First();
      std::string key = std::to_string(i) + ":" +
                        data.rel.StringAt(classes[c][0], lhs);
      auto it = data.true_senses.find(key);
      if (it == data.true_senses.end()) continue;
      ++total;
      SenseId assigned = result.senses[i][c];
      if (assigned == it->second) {
        ++correct;
      } else if (assigned != kInvalidSense) {
        // Also accept a sense that covers every tuple of the class (an
        // equally valid interpretation due to sense overlap).
        bool covers_all = true;
        for (RowId r : classes[c]) {
          covers_all &= index.SenseContains(assigned, data.rel.At(r, data.sigma[i].rhs));
        }
        if (covers_all) ++correct;
      }
    }
  }
  ASSERT_GT(total, 0);
  EXPECT_GE(static_cast<double>(correct) / static_cast<double>(total), 0.95);
}

// ---------------------------------------------------------------------------
// Data repair.

TEST(RepairDataTest, FixesSingleOutlierTuple) {
  Relation rel(Schema({"X", "MED"}));
  Ontology ont;
  SenseId s = ont.AddSense("S");
  ont.AddValue(s, "good1");
  ont.AddValue(s, "good2");
  rel.AppendRow({"x", "good1"});
  rel.AppendRow({"x", "good1"});
  rel.AppendRow({"x", "good2"});
  rel.AppendRow({"x", "bad"});
  SynonymIndex index(ont, rel.dict());
  SigmaSet sigma = {{AttrSet::Single(0), 1, OfdKind::kSynonym}};
  SenseSelector selector(rel, index, sigma);
  SenseAssignmentResult assignment = selector.Run();
  RepairResult result = RepairData(rel, index, sigma, assignment, 1000);
  EXPECT_TRUE(result.consistent);
  EXPECT_EQ(result.data_changes, 1);
  // The outlier was rewritten to the most frequent covered value.
  EXPECT_EQ(result.repaired.StringAt(3, 1), "good1");
  // Synonym variation among good1/good2 was NOT "repaired".
  EXPECT_EQ(result.repaired.StringAt(2, 1), "good2");
}

TEST(RepairDataTest, MajorityRepairWithoutOntology) {
  Relation rel(Schema({"X", "Y"}));
  rel.AppendRow({"x", "a"});
  rel.AppendRow({"x", "a"});
  rel.AppendRow({"x", "b"});
  Ontology empty;
  SynonymIndex index(empty, rel.dict());
  SigmaSet sigma = {{AttrSet::Single(0), 1, OfdKind::kSynonym}};
  SenseSelector selector(rel, index, sigma);
  SenseAssignmentResult assignment = selector.Run();
  RepairResult result = RepairData(rel, index, sigma, assignment, 1000);
  EXPECT_TRUE(result.consistent);
  EXPECT_EQ(result.data_changes, 1);
  EXPECT_EQ(result.repaired.StringAt(2, 1), "a");
}

TEST(RepairDataTest, BudgetExhaustionFlagsInfeasible) {
  Relation rel(Schema({"X", "Y"}));
  for (int i = 0; i < 10; ++i) {
    rel.AppendRow({"x", "v" + std::to_string(i)});
  }
  Ontology empty;
  SynonymIndex index(empty, rel.dict());
  SigmaSet sigma = {{AttrSet::Single(0), 1, OfdKind::kSynonym}};
  SenseSelector selector(rel, index, sigma);
  SenseAssignmentResult assignment = selector.Run();
  RepairResult result = RepairData(rel, index, sigma, assignment, /*max_changes=*/2);
  EXPECT_FALSE(result.tau_feasible);
  EXPECT_FALSE(result.consistent);
}

TEST(RepairDataTest, CleanInstanceNeedsNoChanges) {
  CleanFixture f = CleanFixture::Make();
  // Restore the original (clean) MED values.
  f.rel.Set(8, f.rel.schema().Find("MED"), "tiazac");
  f.rel.Set(10, f.rel.schema().Find("MED"), "tiazac");
  SynonymIndex index(f.ontology, f.rel.dict());
  const Schema& s = f.rel.schema();
  SigmaSet sigma = {
      {AttrSet::Single(s.Find("CC")), s.Find("CTRY"), OfdKind::kSynonym},
      {AttrSet::Of({s.Find("SYMP"), s.Find("DIAG")}), s.Find("MED"),
       OfdKind::kSynonym}};
  SenseSelector selector(f.rel, index, sigma);
  SenseAssignmentResult assignment = selector.Run();
  RepairResult result = RepairData(f.rel, index, sigma, assignment, 1000);
  EXPECT_TRUE(result.consistent);
  EXPECT_EQ(result.data_changes, 0);
}

// ---------------------------------------------------------------------------
// Beam-node scoring. These run in every build (not only under
// FASTOFD_AUDIT): incremental scoring, full scoring, and a from-scratch
// RepairData on a materialized index copy must report the same count.

// Repairs RepairData makes with the picks' insertions applied to a copy of
// the index.
int64_t RepairCount(const Relation& rel, const SynonymIndex& index,
                    const SigmaSet& sigma, const SenseAssignmentResult& assignment,
                    const std::vector<OntologyAddition>& candidates,
                    const std::vector<int>& picks) {
  SynonymIndex materialized = index;
  for (int p : picks) {
    materialized.AddValue(candidates[static_cast<size_t>(p)].sense,
                          candidates[static_cast<size_t>(p)].value);
  }
  return RepairData(rel, materialized, sigma, assignment,
                    std::numeric_limits<int64_t>::max())
      .data_changes;
}

// Cand(S) as OfdClean collects it: every (assigned sense, value) pair whose
// value occurs in the class but is missing from the sense, with the
// flattened indices of the classes it occurs in.
void CollectCandidates(const Relation& rel, const SynonymIndex& index,
                       const SigmaSet& sigma, const SenseAssignmentResult& assignment,
                       std::vector<OntologyAddition>* candidates,
                       std::vector<std::vector<uint32_t>>* affected) {
  std::map<std::pair<SenseId, ValueId>, size_t> pos;
  uint32_t item = 0;
  for (size_t i = 0; i < sigma.size(); ++i) {
    const auto& classes = assignment.partitions[i].classes();
    for (size_t c = 0; c < classes.size(); ++c, ++item) {
      SenseId sense = assignment.senses[i][c];
      if (sense == kInvalidSense) continue;
      for (RowId r : classes[c]) {
        ValueId v = rel.At(r, sigma[i].rhs);
        if (index.SenseContains(sense, v)) continue;
        auto [it, inserted] = pos.try_emplace({sense, v}, candidates->size());
        if (inserted) {
          candidates->push_back(OntologyAddition{sense, v});
          affected->emplace_back();
        }
        std::vector<uint32_t>& list = (*affected)[it->second];
        if (list.empty() || list.back() != item) list.push_back(item);
      }
    }
  }
}

// Flattened index of the class (of the first OFD) holding `row`.
uint32_t ClassOfRow(const SenseAssignmentResult& assignment, RowId row) {
  const auto& classes = assignment.partitions[0].classes();
  for (size_t c = 0; c < classes.size(); ++c) {
    for (RowId r : classes[c]) {
      if (r == row) return static_cast<uint32_t>(c);
    }
  }
  ADD_FAILURE() << "row " << row << " is in no class";
  return 0;
}

// Expects incremental == full == RepairData == `expected` for the picks.
void ExpectScores(const BeamScorer& scorer, const Relation& rel,
                  const SynonymIndex& index, const SigmaSet& sigma,
                  const SenseAssignmentResult& assignment,
                  const std::vector<OntologyAddition>& candidates,
                  const std::vector<int>& picks, int64_t expected) {
  EXPECT_EQ(scorer.ScoreIncremental(picks).data_changes, expected);
  EXPECT_EQ(scorer.ScoreFull(picks).data_changes, expected);
  EXPECT_EQ(RepairCount(rel, index, sigma, assignment, candidates, picks), expected);
}

TEST(BeamScorerTest, IncrementalEqualsFullEqualsRepairDataOnRandomPicks) {
  for (uint64_t seed : {3u, 17u, 29u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    DataGenConfig dg;
    dg.num_rows = 400;
    // One antecedent: the OFDs have distinct consequents and no
    // antecedent/consequent overlap, so repair costs are per-class
    // independent and RepairData's count is exact.
    dg.num_antecedents = 1;
    dg.num_consequents = 2;
    dg.num_senses = 4;
    dg.error_rate = 0.06;
    dg.incompleteness_rate = 0.15;
    dg.seed = seed;
    GeneratedData data = GenerateData(dg);
    SynonymIndex index(data.ontology, data.rel.dict());
    SenseSelector selector(data.rel, index, data.sigma);
    SenseAssignmentResult assignment = selector.Run();
    std::vector<OntologyAddition> candidates;
    std::vector<std::vector<uint32_t>> affected;
    CollectCandidates(data.rel, index, data.sigma, assignment, &candidates, &affected);
    ASSERT_GE(candidates.size(), 4u);

    ThreadPool pool(2);
    BeamScorer scorer(data.rel, index, data.sigma, assignment, &pool);
    scorer.SetCandidates(candidates, affected);
    const int64_t base = RepairCount(data.rel, index, data.sigma, assignment,
                                     candidates, {});
    EXPECT_GT(base, 0);
    EXPECT_EQ(scorer.base_cost(), base);
    EXPECT_EQ(scorer.ScoreFull({}).data_changes, base);
    EXPECT_EQ(scorer.ScoreIncremental({}).data_changes, base);

    std::mt19937 rng(static_cast<uint32_t>(seed));
    BeamScorer::ScoreScratch scratch(index);  // Reused warm across nodes.
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<int> all(candidates.size());
      for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
      std::shuffle(all.begin(), all.end(), rng);
      const size_t k = 1 + rng() % std::min<size_t>(6, all.size());
      std::vector<int> picks(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k));
      std::sort(picks.begin(), picks.end());
      BeamScorer::NodeScore inc = scorer.ScoreIncremental(picks, &scratch);
      BeamScorer::NodeScore full = scorer.ScoreFull(picks);
      EXPECT_EQ(inc.data_changes, full.data_changes);
      EXPECT_EQ(inc.data_changes, RepairCount(data.rel, index, data.sigma,
                                              assignment, candidates, picks));
      EXPECT_EQ(full.classes_rescored, static_cast<int64_t>(scorer.num_classes()));
      // The rescored classes are exactly the union of the affected lists.
      std::vector<uint32_t> uni;
      for (int p : picks) {
        const auto& list = affected[static_cast<size_t>(p)];
        uni.insert(uni.end(), list.begin(), list.end());
      }
      std::sort(uni.begin(), uni.end());
      uni.erase(std::unique(uni.begin(), uni.end()), uni.end());
      EXPECT_EQ(inc.classes_rescored, static_cast<int64_t>(uni.size()));
    }
  }
}

TEST(BeamScorerTest, EdgeCasesMatchRepairData) {
  // Class x1: good ×3, bad1 ×2, bad2 ×1 under sense S (covers good).
  // Class x2: a ×2, b ×1 — outside the ontology (kInvalidSense).
  // Class x3: good ×2 — a single-value class.
  // Class x4: p ×2, q ×1, hand-assigned to sense E, whose only ontology
  //           value is not in the relation (no dictionary-present values).
  // Class x5: r ×2 — puts 'r', the value E gains below, in the dictionary.
  Relation rel(Schema({"X", "MED"}));
  Ontology ont;
  SenseId s = ont.AddSense("S");
  ont.AddValue(s, "good");
  SenseId e = ont.AddSense("E");
  ont.AddValue(e, "absent");
  for (const char* v : {"good", "good", "good", "bad1", "bad1", "bad2"}) {
    rel.AppendRow({"x1", v});
  }
  for (const char* v : {"a", "a", "b"}) rel.AppendRow({"x2", v});
  for (const char* v : {"good", "good"}) rel.AppendRow({"x3", v});
  for (const char* v : {"p", "p", "q"}) rel.AppendRow({"x4", v});
  for (const char* v : {"r", "r"}) rel.AppendRow({"x5", v});
  SynonymIndex index(ont, rel.dict());
  ASSERT_TRUE(index.SenseValues(e).empty());
  SigmaSet sigma = {{AttrSet::Single(0), 1, OfdKind::kSynonym}};
  SenseSelector selector(rel, index, sigma);
  SenseAssignmentResult assignment = selector.Run();
  const uint32_t x1 = ClassOfRow(assignment, 0);
  const uint32_t x2 = ClassOfRow(assignment, 6);
  const uint32_t x3 = ClassOfRow(assignment, 9);
  const uint32_t x4 = ClassOfRow(assignment, 11);
  ASSERT_EQ(assignment.senses[0][x1], s);
  ASSERT_EQ(assignment.senses[0][x2], kInvalidSense);
  assignment.senses[0][x4] = e;

  auto id = [&](const char* v) { return rel.dict().Lookup(v); };
  const std::vector<OntologyAddition> candidates = {
      {s, id("good")},  // 0: already base-covered.
      {s, id("bad1")},  // 1
      {s, id("bad2")},  // 2
      {e, id("r")},     // 3: E gains a value absent from x4.
      {s, id("a")},     // 4: S is not x2's sense.
  };
  // Lists may name more classes than an insertion can affect; x4 is named
  // through candidate 3 so its cost is re-costed.
  const std::vector<std::vector<uint32_t>> affected = {
      {x1, x3}, {x1}, {x1}, {x4}, {x2}};
  BeamScorer scorer(rel, index, sigma, assignment);
  scorer.SetCandidates(candidates, affected);
  auto expect = [&](const std::vector<int>& picks, int64_t expected) {
    SCOPED_TRACE(::testing::PrintToString(picks));
    ExpectScores(scorer, rel, index, sigma, assignment, candidates, picks, expected);
  };

  // Level 0: x1 rewrites its 3 uncovered tuples; x2 keeps its majority (1
  // change); x3 is single-valued; x4's sense has no values, so its
  // majority survives (1 change); x5 is single-valued.
  expect({}, 3 + 1 + 0 + 1 + 0);
  // A pick already in the base changes nothing.
  expect({0}, 5);
  // One flip in x1 leaves bad2's one occurrence; two flips clear x1.
  expect({1}, 1 + 1 + 1);
  expect({1, 2}, 0 + 1 + 1);
  expect({0, 1, 2}, 0 + 1 + 1);
  // E gains 'r', absent from x4: x4's repair target becomes E's value, so
  // all 3 of its tuples change (size − majority → size).
  expect({3}, 3 + 1 + 3);
  expect({1, 2, 3}, 0 + 1 + 3);
  // A pick under another sense leaves the kInvalidSense class x2 alone.
  expect({4}, 5);
}

// ---------------------------------------------------------------------------
// OFDClean end to end.

TEST(OfdCleanTest, ResolvesPaperExample12) {
  CleanFixture f = CleanFixture::Make();
  const Schema& s = f.rel.schema();
  SigmaSet sigma = {
      {AttrSet::Single(s.Find("CC")), s.Find("CTRY"), OfdKind::kSynonym},
      {AttrSet::Of({s.Find("SYMP"), s.Find("DIAG")}), s.Find("MED"),
       OfdKind::kSynonym}};
  OfdCleanConfig cfg;
  cfg.beam_size = 3;
  OfdClean cleaner(f.rel, f.ontology, sigma, cfg);
  OfdCleanResult result = cleaner.Run();

  // The headache class is interpreted under one sense (MoH or FDA); the two
  // values outside that sense are the ontology-repair candidates (paper
  // §7.1: values not in S *under the chosen sense* — e.g. {tiazac, adizem}
  // under MoH, matching Table 5's ASA-under-FDA style candidates).
  EXPECT_EQ(result.num_candidates, 2);
  EXPECT_TRUE(result.best.consistent);
  // The Pareto frontier offers the pure-data repair (k=0) and, if it saves
  // data changes, the ontology-assisted repair (k=1).
  ASSERT_FALSE(result.pareto.empty());
  EXPECT_EQ(result.pareto.front().ontology_changes, 0);
  for (size_t i = 1; i < result.pareto.size(); ++i) {
    EXPECT_GT(result.pareto[i].ontology_changes,
              result.pareto[i - 1].ontology_changes);
    EXPECT_LT(result.pareto[i].data_changes, result.pareto[i - 1].data_changes);
  }
  // Repaired instance satisfies Σ w.r.t. the repaired ontology.
  SynonymIndex repaired_index(f.ontology, f.rel.dict());
  for (const OntologyAddition& add : result.best.ontology_additions) {
    repaired_index.AddValue(add.sense, add.value);
  }
  OfdVerifier verifier(result.best.repaired, repaired_index);
  for (const Ofd& ofd : sigma) {
    EXPECT_TRUE(verifier.Holds(ofd));
  }
}

TEST(OfdCleanTest, ReproducesTable5RepairStaircase) {
  // Paper Tables 4/5: the four-tuple subset t8..t11 with t11[CTRY] updated
  // to 'Uni. States'. Candidate ontology repairs trade off against data
  // repairs one-for-one, producing the staircase Pareto frontier of
  // Table 5: 0 insertions -> 3 data repairs, ... , 3 insertions -> 0.
  Relation rel(Schema({"CC", "CTRY", "SYMP", "DIAG", "MED"}));
  rel.AppendRow({"US", "USA", "headache", "hypertension", "cartia"});
  rel.AppendRow({"US", "USA", "headache", "hypertension", "ASA"});
  rel.AppendRow({"US", "America", "headache", "hypertension", "tiazac"});
  rel.AppendRow({"US", "Uni. States", "headache", "hypertension", "adizem"});
  std::string dir(FASTOFD_DATA_DIR);
  Ontology ontology =
      ParseOntology(
          WriteOntology(ReadOntologyFile(dir + "/drug_ontology.txt").value()) +
          WriteOntology(ReadOntologyFile(dir + "/country_ontology.txt").value()))
          .value();
  const Schema& s = rel.schema();
  SigmaSet sigma = {
      {AttrSet::Single(s.Find("CC")), s.Find("CTRY"), OfdKind::kSynonym},
      {AttrSet::Of({s.Find("SYMP"), s.Find("DIAG")}), s.Find("MED"),
       OfdKind::kSynonym}};
  OfdCleanConfig cfg;
  cfg.beam_size = 4;
  OfdClean cleaner(rel, ontology, sigma, cfg);
  OfdCleanResult result = cleaner.Run();

  // Candidates: 'Uni. States' under the country sense, plus the two MED
  // values outside the class's chosen drug sense.
  EXPECT_EQ(result.num_candidates, 3);
  // Staircase: each insertion saves exactly one data repair.
  ASSERT_EQ(result.pareto.size(), 4u);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(result.pareto[static_cast<size_t>(k)].ontology_changes, k);
    EXPECT_EQ(result.pareto[static_cast<size_t>(k)].data_changes, 3 - k);
  }
  EXPECT_TRUE(result.best.consistent);
}

TEST(OfdCleanTest, CleanDataNeedsNoRepairs) {
  DataGenConfig cfg;
  cfg.num_rows = 200;
  cfg.error_rate = 0.0;
  cfg.seed = 3;
  GeneratedData data = GenerateData(cfg);
  OfdClean cleaner(data.rel, data.ontology, data.sigma);
  OfdCleanResult result = cleaner.Run();
  EXPECT_TRUE(result.best.consistent);
  EXPECT_EQ(result.best.data_changes, 0);
  EXPECT_TRUE(result.best.ontology_additions.empty());
}

TEST(OfdCleanTest, RepairsInjectedErrorsWithGoodAccuracy) {
  DataGenConfig cfg;
  cfg.num_rows = 400;
  cfg.num_senses = 4;
  cfg.error_rate = 0.05;
  cfg.seed = 11;
  GeneratedData data = GenerateData(cfg);
  OfdClean cleaner(data.rel, data.ontology, data.sigma);
  OfdCleanResult result = cleaner.Run();
  EXPECT_TRUE(result.best.consistent);
  RepairScore score = ScoreRepair(data, result.best.repaired);
  EXPECT_GT(score.precision(), 0.6);
  EXPECT_GT(score.recall(), 0.4);
}

TEST(OfdCleanTest, IncompletenessTriggersOntologyRepairs) {
  DataGenConfig cfg;
  cfg.num_rows = 300;
  cfg.error_rate = 0.0;
  cfg.incompleteness_rate = 0.15;
  cfg.seed = 13;
  GeneratedData data = GenerateData(cfg);
  OfdCleanConfig ccfg;
  ccfg.max_repair_size = 16;
  OfdClean cleaner(data.rel, data.ontology, data.sigma, ccfg);
  OfdCleanResult result = cleaner.Run();
  EXPECT_GT(result.num_candidates, 0);
  EXPECT_FALSE(result.best.ontology_additions.empty());
  // Ontology repairs re-add removed values to correct senses: check that
  // most additions target values the generator removed.
  int64_t removed_hits = 0;
  for (const OntologyAddition& add : result.best.ontology_additions) {
    const std::string& v = data.rel.dict().String(add.value);
    if (std::find(data.removed_values.begin(), data.removed_values.end(), v) !=
        data.removed_values.end()) {
      ++removed_hits;
    }
  }
  EXPECT_GT(removed_hits, 0);
}

TEST(OfdCleanTest, TauInfeasibleInstanceYieldsEmptyPareto) {
  // Six all-distinct values in one class and an empty ontology: any repair
  // needs 5 changes while τ = 0.1 allows ⌊0.6⌋ = 0. Every beam node is
  // infeasible, so the frontier stays empty — the old accounting pushed the
  // budget-truncated change count as a bogus k=0 Pareto point.
  Relation rel(Schema({"X", "Y"}));
  for (int i = 0; i < 6; ++i) rel.AppendRow({"x", "v" + std::to_string(i)});
  Ontology empty;
  SigmaSet sigma = {{AttrSet::Single(0), 1, OfdKind::kSynonym}};
  OfdCleanConfig cfg;
  cfg.tau = 0.1;
  OfdClean cleaner(rel, empty, sigma, cfg);
  OfdCleanResult result = cleaner.Run();
  EXPECT_TRUE(result.pareto.empty());
  EXPECT_FALSE(result.best.tau_feasible);
  EXPECT_EQ(result.num_candidates, 0);
}

TEST(OfdCleanTest, InfeasibleLevelsAreSkippedNotTruncated) {
  // One class: three tuples covered by the sense, three sharing the
  // uncovered value 'bad'. Level 0 needs 3 repairs but τ = 0.2 allows only
  // 1, so k=0 yields no Pareto point. The infeasible node must still be
  // expanded — inserting 'bad' (k=1) repairs everything and becomes the
  // frontier's only point. The old truncated accounting instead reported a
  // k=0 point of 2 changes and exited early on it.
  Relation rel(Schema({"X", "MED"}));
  Ontology ont;
  SenseId s = ont.AddSense("S");
  ont.AddValue(s, "good");
  for (int i = 0; i < 3; ++i) rel.AppendRow({"x", "good"});
  for (int i = 0; i < 3; ++i) rel.AppendRow({"x", "bad"});
  SigmaSet sigma = {{AttrSet::Single(0), 1, OfdKind::kSynonym}};
  OfdCleanConfig cfg;
  cfg.tau = 0.2;  // Budget ⌊0.2 · 6⌋ = 1.
  OfdClean cleaner(rel, ont, sigma, cfg);
  OfdCleanResult result = cleaner.Run();
  ASSERT_EQ(result.pareto.size(), 1u);
  EXPECT_EQ(result.pareto[0].ontology_changes, 1);
  EXPECT_EQ(result.pareto[0].data_changes, 0);
  EXPECT_TRUE(result.best.tau_feasible);
  EXPECT_TRUE(result.best.consistent);
  EXPECT_EQ(result.best.data_changes, 0);
  ASSERT_EQ(result.best.ontology_additions.size(), 1u);
  EXPECT_EQ(rel.dict().String(result.best.ontology_additions[0].value), "bad");
}

TEST(OfdCleanTest, CandidatesRankedByOccurrenceAcrossClasses) {
  // 'oops' occurs in two classes (3 occurrences total), 'rare' in one (1).
  // Collection must dedup candidates across classes, count every occurrence,
  // and rank by total count when truncating to max_candidates.
  Relation rel(Schema({"X", "MED"}));
  Ontology ont;
  SenseId s = ont.AddSense("S");
  ont.AddValue(s, "good");
  rel.AppendRow({"x1", "good"});
  rel.AppendRow({"x1", "good"});
  rel.AppendRow({"x1", "oops"});
  rel.AppendRow({"x1", "oops"});
  rel.AppendRow({"x2", "good"});
  rel.AppendRow({"x2", "good"});
  rel.AppendRow({"x2", "oops"});
  rel.AppendRow({"x2", "rare"});
  SigmaSet sigma = {{AttrSet::Single(0), 1, OfdKind::kSynonym}};
  OfdCleanConfig cfg;
  cfg.max_candidates = 1;  // Keep only the top-count candidate.
  OfdClean cleaner(rel, ont, sigma, cfg);
  OfdCleanResult result = cleaner.Run();
  EXPECT_EQ(result.num_candidates, 2);  // Pre-truncation |Cand(S)|.
  EXPECT_EQ(result.pareto.size(), 2u);
  // Only the 'oops' insertion was explored; it saves 3 of the 4 repairs.
  ASSERT_EQ(result.best.ontology_additions.size(), 1u);
  EXPECT_EQ(rel.dict().String(result.best.ontology_additions[0].value), "oops");
  EXPECT_EQ(result.best.data_changes, 1);

  // The class-support filter drops the single-class 'rare' before counting.
  OfdCleanConfig filtered = cfg;
  filtered.min_candidate_classes = 2;
  OfdClean cleaner2(rel, ont, sigma, filtered);
  EXPECT_EQ(cleaner2.Run().num_candidates, 1);
}

TEST(OfdCleanTest, BeamResultsIdenticalAcrossScoringModesAndThreads) {
  // The incremental + parallel beam search must be byte-identical to the
  // full-rescore serial reference: same candidates, node counts, frontier,
  // chosen insertions, and repaired cells, for any thread count.
  DataGenConfig dg;
  dg.num_rows = 400;
  dg.num_senses = 4;
  dg.error_rate = 0.04;
  dg.incompleteness_rate = 0.12;
  dg.seed = 23;
  GeneratedData data = GenerateData(dg);

  auto run = [&](bool incremental, int threads) {
    ThreadPool pool(threads);
    OfdCleanConfig cfg;
    cfg.incremental_scoring = incremental;
    cfg.pool = &pool;
    cfg.max_repair_size = 16;
    OfdClean cleaner(data.rel, data.ontology, data.sigma, cfg);
    return cleaner.Run();
  };
  OfdCleanResult reference = run(/*incremental=*/false, /*threads=*/1);
  EXPECT_GT(reference.num_candidates, 0);
  EXPECT_FALSE(reference.pareto.empty());

  const std::vector<std::pair<bool, int>> variants = {
      {true, 1}, {true, 2}, {true, 8}, {false, 8}};
  for (const auto& [incremental, threads] : variants) {
    SCOPED_TRACE("incremental=" + std::to_string(incremental) +
                 " threads=" + std::to_string(threads));
    OfdCleanResult got = run(incremental, threads);
    EXPECT_EQ(got.num_candidates, reference.num_candidates);
    EXPECT_EQ(got.nodes_evaluated, reference.nodes_evaluated);
    ASSERT_EQ(got.pareto.size(), reference.pareto.size());
    for (size_t i = 0; i < reference.pareto.size(); ++i) {
      EXPECT_EQ(got.pareto[i].ontology_changes, reference.pareto[i].ontology_changes);
      EXPECT_EQ(got.pareto[i].data_changes, reference.pareto[i].data_changes);
    }
    EXPECT_EQ(got.best.data_changes, reference.best.data_changes);
    EXPECT_EQ(got.best.consistent, reference.best.consistent);
    EXPECT_TRUE(got.best.ontology_additions == reference.best.ontology_additions);
    ASSERT_EQ(got.best.repaired.num_rows(), reference.best.repaired.num_rows());
    for (RowId r = 0; r < reference.best.repaired.num_rows(); ++r) {
      for (int a = 0; a < reference.best.repaired.num_attrs(); ++a) {
        EXPECT_EQ(got.best.repaired.StringAt(r, a),
                  reference.best.repaired.StringAt(r, a));
      }
    }
  }
}

TEST(OfdCleanTest, RejectsOverlappingAntecedentConsequent) {
  Relation rel(Schema({"A", "B", "C"}));
  rel.AppendRow({"1", "2", "3"});
  Ontology ont;
  // B is consequent of the first OFD and antecedent of the second.
  SigmaSet sigma = {{AttrSet::Single(0), 1, OfdKind::kSynonym},
                    {AttrSet::Single(1), 2, OfdKind::kSynonym}};
  EXPECT_DEATH(OfdClean(rel, ont, sigma), "CHECK failed");
}

// ---------------------------------------------------------------------------
// HoloCleanLite.

TEST(HoloCleanLiteTest, RepairsLowConfidenceCellToMajorityValue) {
  Relation rel(Schema({"X", "Y"}));
  for (int i = 0; i < 5; ++i) rel.AppendRow({"x", "a"});
  rel.AppendRow({"x", "b"});
  Ontology dict;
  SigmaSet sigma = {{AttrSet::Single(0), 1, OfdKind::kSynonym}};
  HoloCleanLiteResult result = HoloCleanLite(rel, dict, sigma);
  EXPECT_EQ(result.cells_changed, 1);
  EXPECT_EQ(result.repaired.StringAt(5, 1), "a");
}

TEST(HoloCleanLiteTest, ConfidenceMarginKeepsCompetitiveValues) {
  // A near-balanced class is left alone: neither value dominates by the
  // posterior margin (this is what keeps real HoloClean's precision up).
  Relation rel(Schema({"X", "Y"}));
  rel.AppendRow({"x", "a"});
  rel.AppendRow({"x", "a"});
  rel.AppendRow({"x", "b"});
  Ontology dict;
  SigmaSet sigma = {{AttrSet::Single(0), 1, OfdKind::kSynonym}};
  HoloCleanLiteResult result = HoloCleanLite(rel, dict, sigma);
  EXPECT_EQ(result.cells_changed, 0);
  EXPECT_GT(result.cells_flagged, 0);
}

TEST(HoloCleanLiteTest, DictionaryBoostBreaksTies) {
  Relation rel(Schema({"X", "Y"}));
  rel.AppendRow({"x", "indict"});
  rel.AppendRow({"x", "outdict"});
  Ontology dict;
  SenseId s = dict.AddSense("s");
  dict.AddValue(s, "indict");
  SigmaSet sigma = {{AttrSet::Single(0), 1, OfdKind::kSynonym}};
  HoloCleanLiteConfig cfg;
  cfg.repair_margin = 1.5;  // Low margin: let the dictionary signal decide.
  HoloCleanLiteResult result = HoloCleanLite(rel, dict, sigma, cfg);
  EXPECT_EQ(result.repaired.StringAt(1, 1), "indict");
}

TEST(HoloCleanLiteTest, FlagsSynonymVariationAsErrors) {
  // The defining difference vs OFDClean: on a *clean* instance whose classes
  // contain synonyms, HoloCleanLite makes (false-positive) changes while
  // OFDClean changes nothing.
  DataGenConfig cfg;
  cfg.num_rows = 300;
  cfg.error_rate = 0.0;
  cfg.seed = 17;
  GeneratedData data = GenerateData(cfg);
  HoloCleanLiteResult hc = HoloCleanLite(data.rel, data.ontology, data.sigma);
  EXPECT_GT(hc.cells_changed, 0);
  RepairScore hc_score = ScoreRepair(data, hc.repaired);
  EXPECT_LT(hc_score.precision(), 0.5);  // All changes are false positives.

  OfdClean cleaner(data.rel, data.ontology, data.sigma);
  OfdCleanResult oc = cleaner.Run();
  EXPECT_EQ(oc.best.data_changes, 0);
}

}  // namespace
}  // namespace fastofd
