#include "ofd/verifier.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"

namespace fastofd {

namespace {

// Distinct values of `attr` among `rows` (sorted).
std::vector<ValueId> DistinctValues(const Relation& rel, RowSpan rows,
                                    AttrId attr) {
  std::vector<ValueId> vals;
  vals.reserve(rows.size());
  for (RowId r : rows) vals.push_back(rel.At(r, attr));
  std::sort(vals.begin(), vals.end());
  vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
  return vals;
}

// Per-thread counters for the coverage pass, lazily grown and reset by
// their touched lists, so a class costs O(|class| + its senses) and never an
// O(capacity) clear.
//   value_count   tuples per consequent value in the current class.
//   sense_count   tuples per sense in the current class.
struct CoverageScratch {
  std::vector<int32_t> value_count;
  std::vector<int32_t> sense_count;
  std::vector<ValueId> touched_values;
  std::vector<SenseId> touched_senses;
};

CoverageScratch& ThreadCoverageScratch() {
  static thread_local CoverageScratch scratch;
  return scratch;
}

}  // namespace

// Pass 1 counts the class's tuples per value; pass 2 adds each touched
// value's count to each of its senses. A sense's count is then exactly the
// tuples whose value it contains, because Senses(v) is duplicate-free, so
// the class satisfies the OFD iff the best count is the whole class (some
// sense holds every value, or there is only one value). A value outside the
// ontology — or interned after the index was built — adds to no sense.
OfdVerifier::ClassCoverage OfdVerifier::Coverage(RowSpan rows, AttrId rhs) const {
  CoverageScratch& s = ThreadCoverageScratch();
  const size_t num_values = rel_.dict().size();
  if (s.value_count.size() < num_values) s.value_count.resize(num_values, 0);
  const size_t num_senses = static_cast<size_t>(index_.num_senses());
  if (s.sense_count.size() < num_senses) s.sense_count.resize(num_senses, 0);
  const std::vector<ValueId>& column = rel_.Column(rhs);
  for (RowId r : rows) {
    const ValueId v = column[static_cast<size_t>(r)];
    if (s.value_count[static_cast<size_t>(v)]++ == 0) s.touched_values.push_back(v);
  }
  ClassCoverage cov;
  cov.distinct = static_cast<int64_t>(s.touched_values.size());
  int32_t best = 0;
  for (ValueId v : s.touched_values) {
    int32_t& count = s.value_count[static_cast<size_t>(v)];
    best = std::max(best, count);
    // One value covers the whole class (FD reduction): no sense can do
    // better, so skip the sense pass.
    if (cov.distinct > 1) {
      for (SenseId sense : index_.Senses(v)) {
        int32_t& n = s.sense_count[static_cast<size_t>(sense)];
        if (n == 0) s.touched_senses.push_back(sense);
        n += count;
      }
    }
    count = 0;
  }
  for (SenseId sense : s.touched_senses) {
    int32_t& n = s.sense_count[static_cast<size_t>(sense)];
    best = std::max(best, n);
    n = 0;
  }
  s.touched_values.clear();
  s.touched_senses.clear();
  cov.best = best;
  return cov;
}

bool OfdVerifier::InheritanceClassHolds(const std::vector<ValueId>& distinct) const {
  if (distinct.size() <= 1) return true;
  FASTOFD_CHECK(ontology_ != nullptr);
  // Each value reaches the concepts of its senses plus up to theta ancestors;
  // the class satisfies iff some concept is reachable from every value.
  std::unordered_map<ConceptId, size_t> counts;
  for (ValueId v : distinct) {
    const std::vector<SenseId>& senses = index_.Senses(v);
    if (senses.empty()) return false;
    // Collect this value's reachable concepts (dedup before counting).
    std::vector<ConceptId> reach;
    for (SenseId s : senses) {
      ConceptId c = ontology_->sense_concept(s);
      for (int hop = 0; hop <= theta_ && c != kInvalidConcept; ++hop) {
        reach.push_back(c);
        c = ontology_->parent(c);
      }
    }
    std::sort(reach.begin(), reach.end());
    reach.erase(std::unique(reach.begin(), reach.end()), reach.end());
    for (ConceptId c : reach) ++counts[c];
  }
  for (const auto& [c, count] : counts) {
    if (count == distinct.size()) return true;
  }
  return false;
}

bool OfdVerifier::HoldsInClass(RowSpan rows, AttrId rhs, OfdKind kind) const {
  if (kind == OfdKind::kSynonym) {
    return Coverage(rows, rhs).best == static_cast<int64_t>(rows.size());
  }
  return InheritanceClassHolds(DistinctValues(rel_, rows, rhs));
}

bool OfdVerifier::Holds(const Ofd& ofd) const {
  return Holds(ofd, StrippedPartition::BuildForSet(rel_, ofd.lhs));
}

bool OfdVerifier::Holds(const Ofd& ofd, const StrippedPartition& lhs_partition) const {
  for (RowSpan cls : lhs_partition.classes()) {
    if (!HoldsInClass(cls, ofd.rhs, ofd.kind)) return false;
  }
  return true;
}

int64_t OfdVerifier::SatisfiedTuples(const Ofd& ofd,
                                     const StrippedPartition& lhs_partition) const {
  FASTOFD_CHECK(ofd.kind == OfdKind::kSynonym);
  // Singleton classes (stripped away) are trivially satisfied.
  int64_t satisfied = lhs_partition.num_rows() - lhs_partition.sum_sizes();
  for (RowSpan cls : lhs_partition.classes()) {
    satisfied += Coverage(cls, ofd.rhs).best;
  }
  return satisfied;
}

double OfdVerifier::Support(const Ofd& ofd,
                            const StrippedPartition& lhs_partition) const {
  return SupportFor(SatisfiedTuples(ofd, lhs_partition));
}

bool OfdVerifier::SupportAtLeast(const Ofd& ofd,
                                 const StrippedPartition& lhs_partition,
                                 double kappa) const {
  FASTOFD_CHECK(ofd.kind == OfdKind::kSynonym);
  if (rel_.num_rows() == 0) return 1.0 >= kappa;
  const double num_rows = static_cast<double>(rel_.num_rows());
  int64_t satisfied = lhs_partition.num_rows() - lhs_partition.sum_sizes();
  // Tuples in classes not yet scanned; even if every one of them were
  // satisfiable, support tops out at (satisfied + remaining) / |I|.
  int64_t remaining = lhs_partition.sum_sizes();
  for (RowSpan cls : lhs_partition.classes()) {
    satisfied += Coverage(cls, ofd.rhs).best;
    remaining -= static_cast<int64_t>(cls.size());
    if (static_cast<double>(satisfied + remaining) / num_rows < kappa) {
      return false;  // Error budget exceeded: no later class can recover.
    }
  }
  // No early exit: identical comparison to Support(...) >= kappa.
  return static_cast<double>(satisfied) / num_rows >= kappa;
}

SynonymSavings OfdVerifier::Savings(const Ofd& ofd,
                                    const StrippedPartition& lhs_partition) const {
  SynonymSavings stats;
  for (RowSpan cls : lhs_partition.classes()) {
    ++stats.classes;
    const int64_t size = static_cast<int64_t>(cls.size());
    stats.class_tuples += size;
    bool holds = false;
    if (ofd.kind == OfdKind::kSynonym) {
      const ClassCoverage cov = Coverage(cls, ofd.rhs);
      if (cov.distinct <= 1) continue;  // Syntactically clean class.
      holds = cov.best == size;
    } else {
      std::vector<ValueId> distinct = DistinctValues(rel_, cls, ofd.rhs);
      if (distinct.size() <= 1) continue;
      holds = InheritanceClassHolds(distinct);
    }
    if (holds) {
      ++stats.synonym_classes;
      stats.saved_tuples += size;
    }
  }
  return stats;
}

}  // namespace fastofd
