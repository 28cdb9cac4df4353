// Tests for OFD data verification (Definition 2.1), including the paper's
// Table 1 / Table 2 examples, approximate support, inheritance checks, and
// the synonym coverage pass pinned to a naive per-class reference, serially
// and under a shared verifier on a thread pool.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/thread_pool.h"
#include "ofd/ofd.h"
#include "ofd/verifier.h"
#include "ontology/ontology.h"
#include "ontology/synonym_index.h"
#include "relation/partition.h"
#include "relation/relation.h"

namespace fastofd {
namespace {

// Table 1 (original values) plus the combined drug+country ontology.
struct Fixture {
  Relation rel;
  Ontology ontology;
  SynonymIndex index;
  OfdVerifier verifier;

  static Fixture Make(bool updated_meds) {
    auto csv = ReadCsvFile(std::string(FASTOFD_DATA_DIR) + "/clinical_trials.csv");
    EXPECT_TRUE(csv.ok());
    auto rel = Relation::FromCsv(csv.value());
    EXPECT_TRUE(rel.ok());
    Relation relation = std::move(rel).value();
    if (!updated_meds) {
      // data file ships the *updated* Table 1 (t9=ASA, t11=adizem);
      // restore the original values for the "clean" fixture.
      relation.Set(8, relation.schema().Find("MED"), "tiazac");
      relation.Set(10, relation.schema().Find("MED"), "tiazac");
    }
    // Merge the two ontology files (names are disjoint).
    std::string dir(FASTOFD_DATA_DIR);
    auto drug = ReadOntologyFile(dir + "/drug_ontology.txt");
    auto country = ReadOntologyFile(dir + "/country_ontology.txt");
    EXPECT_TRUE(drug.ok());
    EXPECT_TRUE(country.ok());
    std::string merged = WriteOntology(drug.value()) + WriteOntology(country.value());
    auto ont = ParseOntology(merged);
    EXPECT_TRUE(ont.ok());
    return Fixture(std::move(relation), std::move(ont).value());
  }

 private:
  Fixture(Relation r, Ontology o)
      : rel(std::move(r)),
        ontology(std::move(o)),
        index(ontology, rel.dict()),
        verifier(rel, index, &ontology, /*theta=*/3) {}
};

Ofd MakeOfd(const Schema& s, std::initializer_list<const char*> lhs, const char* rhs,
            OfdKind kind = OfdKind::kSynonym) {
  AttrSet l;
  for (const char* a : lhs) l = l.With(s.Find(a));
  return Ofd{l, s.Find(rhs), kind};
}

TEST(OfdVerifierTest, CcToCtryHoldsAsSynonymOfd) {
  Fixture f = Fixture::Make(/*updated_meds=*/false);
  Ofd ofd = MakeOfd(f.rel.schema(), {"CC"}, "CTRY");
  // The FD fails (USA vs America), but the OFD holds (Example 2.2).
  StrippedPartition cc = StrippedPartition::BuildForSet(f.rel, ofd.lhs);
  StrippedPartition cc_ctry = StrippedPartition::BuildForSet(
      f.rel, ofd.lhs.With(ofd.rhs));
  EXPECT_FALSE(FdHolds(cc, cc_ctry));
  EXPECT_TRUE(f.verifier.Holds(ofd));
}

TEST(OfdVerifierTest, SympDiagToMedHoldsOnOriginalTable) {
  Fixture f = Fixture::Make(/*updated_meds=*/false);
  Ofd ofd = MakeOfd(f.rel.schema(), {"SYMP", "DIAG"}, "MED");
  EXPECT_TRUE(f.verifier.Holds(ofd));
}

TEST(OfdVerifierTest, SympDiagToMedFailsOnUpdatedTable) {
  // Example 1.2: with t9[MED]=ASA and t11[MED]=adizem there is no sense
  // under which {cartia, ASA, tiazac, adizem} are all synonyms.
  Fixture f = Fixture::Make(/*updated_meds=*/true);
  Ofd ofd = MakeOfd(f.rel.schema(), {"SYMP", "DIAG"}, "MED");
  EXPECT_FALSE(f.verifier.Holds(ofd));
}

TEST(OfdVerifierTest, OntologyRepairRestoresSatisfaction) {
  Fixture f = Fixture::Make(/*updated_meds=*/true);
  Ofd ofd = MakeOfd(f.rel.schema(), {"SYMP", "DIAG"}, "MED");
  SenseId fda = f.ontology.FindSense("fda_diltiazem");
  ASSERT_NE(fda, kInvalidSense);
  // Paper resolution (1): add ASA and adizem under the FDA sense.
  f.index.AddValue(fda, f.rel.dict().Lookup("ASA"));
  f.index.AddValue(fda, f.rel.dict().Lookup("adizem"));
  EXPECT_TRUE(f.verifier.Holds(ofd));
}

TEST(OfdVerifierTest, PairwiseSharedSensesAreNotEnough) {
  // Paper Table 2: v,w,z share senses pairwise but the triple intersection
  // is empty, so the OFD must fail — tuple-pair verification is unsound.
  Relation rel(Schema({"X", "Y"}));
  rel.AppendRow({"u", "v"});
  rel.AppendRow({"u", "w"});
  rel.AppendRow({"u", "z"});
  Ontology ont;
  SenseId c = ont.AddSense("C");
  SenseId d = ont.AddSense("D");
  SenseId fsense = ont.AddSense("F");
  SenseId g = ont.AddSense("G");
  // names(v)={C,D}, names(w)={D,F}, names(z)={C,F,G}.
  ont.AddValue(c, "v");
  ont.AddValue(d, "v");
  ont.AddValue(d, "w");
  ont.AddValue(fsense, "w");
  ont.AddValue(c, "z");
  ont.AddValue(fsense, "z");
  ont.AddValue(g, "z");
  SynonymIndex index(ont, rel.dict());
  OfdVerifier verifier(rel, index);
  Ofd ofd{AttrSet::Of({0}), 1, OfdKind::kSynonym};

  // Every pair of rows satisfies the OFD...
  for (RowId a = 0; a < 3; ++a) {
    for (RowId b = a + 1; b < 3; ++b) {
      const std::vector<RowId> pair = {a, b};
      EXPECT_TRUE(verifier.HoldsInClass(pair, 1, OfdKind::kSynonym));
    }
  }
  // ...but the whole class does not.
  EXPECT_FALSE(verifier.Holds(ofd));
}

TEST(OfdVerifierTest, TransitivityDoesNotHoldForOfds) {
  // Paper §3.1: R(A,B,C) = {(a,b,d),(a,c,e),(a,b,d)}, b syn c, d !syn e.
  // A->B and B->C hold, but A->C fails.
  Relation rel(Schema({"A", "B", "C"}));
  rel.AppendRow({"a", "b", "d"});
  rel.AppendRow({"a", "c", "e"});
  rel.AppendRow({"a", "b", "d"});
  Ontology ont;
  SenseId s = ont.AddSense("bc");
  ont.AddValue(s, "b");
  ont.AddValue(s, "c");
  SynonymIndex index(ont, rel.dict());
  OfdVerifier verifier(rel, index);
  EXPECT_TRUE(verifier.Holds({AttrSet::Of({0}), 1, OfdKind::kSynonym}));
  EXPECT_TRUE(verifier.Holds({AttrSet::Of({1}), 2, OfdKind::kSynonym}));
  EXPECT_FALSE(verifier.Holds({AttrSet::Of({0}), 2, OfdKind::kSynonym}));
}

TEST(OfdVerifierTest, ValueOutsideOntologyOnlySatisfiedByEquality) {
  Relation rel(Schema({"X", "Y"}));
  rel.AppendRow({"u", "mystery"});
  rel.AppendRow({"u", "mystery"});
  rel.AppendRow({"w", "mystery"});
  rel.AppendRow({"w", "other"});
  Ontology ont;  // Empty ontology: plain FD semantics.
  SynonymIndex index(ont, rel.dict());
  OfdVerifier verifier(rel, index);
  // Class u: equal values -> holds. Class w: distinct, no senses -> fails.
  const std::vector<RowId> class_u = {0, 1};
  const std::vector<RowId> class_w = {2, 3};
  EXPECT_TRUE(verifier.HoldsInClass(class_u, 1, OfdKind::kSynonym));
  EXPECT_FALSE(verifier.HoldsInClass(class_w, 1, OfdKind::kSynonym));
  EXPECT_FALSE(verifier.Holds({AttrSet::Of({0}), 1, OfdKind::kSynonym}));
}

TEST(OfdVerifierTest, SupportIsOneIffExactHolds) {
  Fixture clean = Fixture::Make(false);
  Fixture dirty = Fixture::Make(true);
  Ofd ofd = MakeOfd(clean.rel.schema(), {"SYMP", "DIAG"}, "MED");
  StrippedPartition p_clean = StrippedPartition::BuildForSet(clean.rel, ofd.lhs);
  StrippedPartition p_dirty = StrippedPartition::BuildForSet(dirty.rel, ofd.lhs);
  EXPECT_DOUBLE_EQ(clean.verifier.Support(ofd, p_clean), 1.0);
  EXPECT_LT(dirty.verifier.Support(ofd, p_dirty), 1.0);
  // Updated table: headache/hypertension class {t8..t11} = {cartia, ASA,
  // tiazac, adizem}; best sense covers 2 of 4 tuples (cartia+tiazac under
  // FDA or cartia+ASA under MoH). Other classes are satisfied.
  // => support = (11 - 4 + 2) / 11 = 9/11.
  EXPECT_NEAR(dirty.verifier.Support(ofd, p_dirty), 9.0 / 11.0, 1e-9);
}

TEST(OfdVerifierTest, SupportPropertyOnRandomInstances) {
  Rng rng(4242);
  for (int trial = 0; trial < 10; ++trial) {
    Relation rel(Schema({"X", "Y"}));
    Ontology ont;
    SenseId s0 = ont.AddSense("s0");
    SenseId s1 = ont.AddSense("s1");
    for (int i = 0; i < 4; ++i) ont.AddValue(s0, "a" + std::to_string(i));
    for (int i = 0; i < 4; ++i) ont.AddValue(s1, "b" + std::to_string(i));
    for (int r = 0; r < 60; ++r) {
      std::string x = "x" + std::to_string(rng.NextUint(6));
      std::string pool = rng.NextBernoulli(0.5) ? "a" : "b";
      std::string y = pool + std::to_string(rng.NextUint(4));
      rel.AppendRow({x, y});
    }
    SynonymIndex index(ont, rel.dict());
    OfdVerifier verifier(rel, index);
    Ofd ofd{AttrSet::Of({0}), 1, OfdKind::kSynonym};
    StrippedPartition p = StrippedPartition::BuildForSet(rel, ofd.lhs);
    double support = verifier.Support(ofd, p);
    EXPECT_GE(support, 0.0);
    EXPECT_LE(support, 1.0);
    EXPECT_EQ(verifier.Holds(ofd, p), support == 1.0);
  }
}

TEST(OfdVerifierTest, SavingsCountsSynonymClasses) {
  Fixture f = Fixture::Make(false);
  Ofd ofd = MakeOfd(f.rel.schema(), {"CC"}, "CTRY");
  StrippedPartition p = StrippedPartition::BuildForSet(f.rel, ofd.lhs);
  SynonymSavings savings = f.verifier.Savings(ofd, p);
  // Π*_CC = {US-class (7 tuples), IN-class (3 tuples)}; both contain
  // syntactically distinct but synonymous CTRY values.
  EXPECT_EQ(savings.classes, 2);
  EXPECT_EQ(savings.synonym_classes, 2);
  EXPECT_EQ(savings.saved_tuples, 10);
  EXPECT_EQ(savings.class_tuples, 10);
}

TEST(OfdVerifierTest, InheritanceOfdViaCommonAncestor) {
  Fixture f = Fixture::Make(false);
  // tylenol (acetaminophen family) and ibuprofen (nsaid family) share the
  // ancestor 'continuant_drug' within 3 hops, but not within 1.
  Relation rel(Schema({"G", "MED"}));
  rel.AppendRow({"g", "tylenol"});
  rel.AppendRow({"g", "ibuprofen"});
  SynonymIndex index(f.ontology, rel.dict());
  OfdVerifier loose(rel, index, &f.ontology, /*theta=*/3);
  OfdVerifier strict(rel, index, &f.ontology, /*theta=*/0);
  Ofd inh{AttrSet::Of({0}), 1, OfdKind::kInheritance};
  EXPECT_TRUE(loose.Holds(inh));
  EXPECT_FALSE(strict.Holds(inh));
}

TEST(OfdVerifierTest, SynonymOfdImpliesInheritanceOfdAtSameClass) {
  // Values synonymous under one sense share that sense's concept trivially.
  Fixture f = Fixture::Make(false);
  Relation rel(Schema({"G", "MED"}));
  rel.AppendRow({"g", "cartia"});
  rel.AppendRow({"g", "tiazac"});
  SynonymIndex index(f.ontology, rel.dict());
  OfdVerifier verifier(rel, index, &f.ontology, /*theta=*/0);
  EXPECT_TRUE(verifier.Holds({AttrSet::Of({0}), 1, OfdKind::kSynonym}));
  EXPECT_TRUE(verifier.Holds({AttrSet::Of({0}), 1, OfdKind::kInheritance}));
}

// Reference for the synonym checks: the verifier's earlier per-class
// algorithm. Exact satisfaction sorts the class's distinct values and counts
// them per sense in a hash map; support counts the class's tuples per
// literal and per sense in two hash maps and keeps the best count.
std::vector<ValueId> NaiveDistinct(const Relation& rel, RowSpan rows, AttrId rhs) {
  std::vector<ValueId> vals;
  for (RowId r : rows) vals.push_back(rel.At(r, rhs));
  std::sort(vals.begin(), vals.end());
  vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
  return vals;
}

bool NaiveClassHolds(const Relation& rel, const SynonymIndex& index, RowSpan rows,
                     AttrId rhs) {
  std::vector<ValueId> distinct = NaiveDistinct(rel, rows, rhs);
  if (distinct.size() <= 1) return true;
  std::unordered_map<SenseId, size_t> counts;
  for (ValueId v : distinct) {
    const std::vector<SenseId>& senses = index.Senses(v);
    if (senses.empty()) return false;
    for (SenseId sense : senses) ++counts[sense];
  }
  for (const auto& [sense, count] : counts) {
    if (count == distinct.size()) return true;
  }
  return false;
}

int64_t NaiveClassBest(const Relation& rel, const SynonymIndex& index, RowSpan rows,
                       AttrId rhs) {
  std::unordered_map<SenseId, int64_t> sense_tuples;
  std::unordered_map<ValueId, int64_t> literal_tuples;
  for (RowId r : rows) {
    ValueId v = rel.At(r, rhs);
    ++literal_tuples[v];
    for (SenseId sense : index.Senses(v)) ++sense_tuples[sense];
  }
  int64_t best = 0;
  for (const auto& [_, n] : literal_tuples) best = std::max(best, n);
  for (const auto& [_, n] : sense_tuples) best = std::max(best, n);
  return best;
}

struct NaiveResult {
  bool holds = true;
  int64_t satisfied = 0;
  double support = 1.0;
  SynonymSavings savings;
};

NaiveResult NaiveVerify(const Relation& rel, const SynonymIndex& index,
                        const Ofd& ofd, const StrippedPartition& p) {
  NaiveResult out;
  out.satisfied = p.num_rows() - p.sum_sizes();
  for (RowSpan cls : p.classes()) {
    const bool holds = NaiveClassHolds(rel, index, cls, ofd.rhs);
    out.holds = out.holds && holds;
    out.satisfied += NaiveClassBest(rel, index, cls, ofd.rhs);
    ++out.savings.classes;
    out.savings.class_tuples += static_cast<int64_t>(cls.size());
    if (NaiveDistinct(rel, cls, ofd.rhs).size() > 1 && holds) {
      ++out.savings.synonym_classes;
      out.savings.saved_tuples += static_cast<int64_t>(cls.size());
    }
  }
  if (rel.num_rows() != 0) {
    out.support = static_cast<double>(out.satisfied) /
                  static_cast<double>(rel.num_rows());
  }
  return out;
}

// A random instance over antecedent attributes A, B, E and consequents C
// (a narrow per-instance value pool, so some classes hold) and D (every
// value). Values c0..c7 sit in random senses, often several; c8 and c9 are
// outside the ontology; late0 (an ontology value) and late1 are interned
// only after the index is built, so the index knows neither.
struct RandomInstance {
  Relation rel{Schema({"A", "B", "E", "C", "D"})};
  Ontology ont;
  std::optional<SynonymIndex> index;
};

void MakeRandomInstance(uint64_t seed, int rows, RandomInstance* inst) {
  Rng rng(seed);
  const int num_senses = 1 + static_cast<int>(rng.NextUint(5));
  std::vector<SenseId> senses;
  for (int i = 0; i < num_senses; ++i) {
    senses.push_back(inst->ont.AddSense("s" + std::to_string(i)));
  }
  for (int v = 0; v < 8; ++v) {
    for (SenseId sense : senses) {
      if (rng.NextBernoulli(0.4)) inst->ont.AddValue(sense, "c" + std::to_string(v));
    }
  }
  inst->ont.AddValue(senses[0], "late0");
  std::vector<std::string> narrow;
  const uint64_t narrow_size = 2 + rng.NextUint(3);
  for (uint64_t i = 0; i < narrow_size; ++i) {
    narrow.push_back("c" + std::to_string(rng.NextUint(10)));
  }
  const uint64_t card_a = 1 + rng.NextUint(6);
  const uint64_t card_b = 1 + rng.NextUint(6);
  const uint64_t card_e = 1 + rng.NextUint(3);
  for (int r = 0; r < rows; ++r) {
    inst->rel.AppendRow({"a" + std::to_string(rng.NextUint(card_a)),
                         "b" + std::to_string(rng.NextUint(card_b)),
                         "e" + std::to_string(rng.NextUint(card_e)),
                         narrow[rng.NextUint(narrow.size())],
                         "c" + std::to_string(rng.NextUint(10))});
  }
  inst->index.emplace(inst->ont, inst->rel.dict());
  for (RowId r = 0; r < rows; ++r) {
    if (rng.NextBernoulli(0.05)) {
      inst->rel.Set(r, static_cast<AttrId>(3 + rng.NextUint(2)),
                    "late" + std::to_string(rng.NextUint(2)));
    }
  }
}

// Every antecedent over {A, B, E} (the empty one included) with each
// consequent.
std::vector<Ofd> AllSynonymOfds() {
  std::vector<Ofd> ofds;
  for (uint32_t mask = 0; mask < 8; ++mask) {
    AttrSet lhs;
    for (AttrId a = 0; a < 3; ++a) {
      if (mask & (1u << a)) lhs = lhs.With(a);
    }
    ofds.push_back({lhs, 3, OfdKind::kSynonym});
    ofds.push_back({lhs, 4, OfdKind::kSynonym});
  }
  return ofds;
}

TEST(OfdVerifierTest, CoverageMatchesNaiveReferenceOnRandomInstances) {
  const double kKappas[] = {0.5, 0.9, 0.999, 1.0};
  // Outcomes the generator must reach for the comparison to mean anything.
  int holding = 0;
  int violated = 0;
  int64_t synonym_classes = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    RandomInstance inst;
    MakeRandomInstance(seed, 10 + static_cast<int>(seed % 7) * 15, &inst);
    OfdVerifier verifier(inst.rel, *inst.index, &inst.ont);
    for (const Ofd& ofd : AllSynonymOfds()) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " rhs " +
                   std::to_string(ofd.rhs) + " lhs size " +
                   std::to_string(ofd.lhs.size()));
      StrippedPartition p = StrippedPartition::BuildForSet(inst.rel, ofd.lhs);
      const NaiveResult want = NaiveVerify(inst.rel, *inst.index, ofd, p);
      (want.holds ? holding : violated) += 1;
      synonym_classes += want.savings.synonym_classes;
      EXPECT_EQ(verifier.Holds(ofd, p), want.holds);
      EXPECT_EQ(verifier.Holds(ofd), want.holds);
      EXPECT_EQ(verifier.SatisfiedTuples(ofd, p), want.satisfied);
      EXPECT_EQ(verifier.Support(ofd, p), want.support);  // Bit-equal.
      for (double kappa : kKappas) {
        EXPECT_EQ(verifier.SupportAtLeast(ofd, p, kappa), want.support >= kappa)
            << "kappa " << kappa;
      }
      for (RowSpan cls : p.classes()) {
        EXPECT_EQ(verifier.HoldsInClass(cls, ofd.rhs, OfdKind::kSynonym),
                  NaiveClassHolds(inst.rel, *inst.index, cls, ofd.rhs));
      }
      const SynonymSavings got = verifier.Savings(ofd, p);
      EXPECT_EQ(got.classes, want.savings.classes);
      EXPECT_EQ(got.synonym_classes, want.savings.synonym_classes);
      EXPECT_EQ(got.saved_tuples, want.savings.saved_tuples);
      EXPECT_EQ(got.class_tuples, want.savings.class_tuples);
    }
  }
  EXPECT_GT(holding, 0);
  EXPECT_GT(violated, 0);
  EXPECT_GT(synonym_classes, 0);
}

// One verifier shared by pool workers: each thread's coverage counters are
// its own, so concurrent checks agree with a serial run.
TEST(OfdVerifierTest, SharedVerifierOnThreadPoolMatchesSerial) {
  RandomInstance inst;
  MakeRandomInstance(/*seed=*/77, /*rows=*/3000, &inst);
  OfdVerifier verifier(inst.rel, *inst.index, &inst.ont);
  const std::vector<Ofd> ofds = AllSynonymOfds();
  std::vector<StrippedPartition> partitions;
  for (const Ofd& ofd : ofds) {
    partitions.push_back(StrippedPartition::BuildForSet(inst.rel, ofd.lhs));
  }
  struct Check {
    bool holds = false;
    int64_t satisfied = 0;
    bool at_least = false;
    int64_t synonym_classes = 0;
    bool operator==(const Check& o) const {
      return holds == o.holds && satisfied == o.satisfied &&
             at_least == o.at_least && synonym_classes == o.synonym_classes;
    }
  };
  auto run = [&](size_t job) {
    const size_t i = job % ofds.size();
    Check c;
    c.holds = verifier.Holds(ofds[i], partitions[i]);
    c.satisfied = verifier.SatisfiedTuples(ofds[i], partitions[i]);
    c.at_least = verifier.SupportAtLeast(ofds[i], partitions[i], 0.9);
    c.synonym_classes = verifier.Savings(ofds[i], partitions[i]).synonym_classes;
    return c;
  };
  const size_t jobs = ofds.size() * 8;
  std::vector<Check> serial(jobs);
  for (size_t j = 0; j < jobs; ++j) serial[j] = run(j);
  std::vector<Check> parallel(jobs);
  ThreadPool pool(4);
  pool.ParallelFor(jobs, [&](size_t j, int) { parallel[j] = run(j); });
  for (size_t j = 0; j < jobs; ++j) {
    EXPECT_TRUE(parallel[j] == serial[j]) << "job " << j;
  }
}

}  // namespace
}  // namespace fastofd
