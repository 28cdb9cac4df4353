// Data verification of OFDs (paper Definition 2.1 and §4.3).
//
// Unlike FDs, OFDs cannot be checked on tuple pairs: a class may satisfy the
// dependency pairwise while the intersection of all senses is empty (paper
// Table 2). Verification therefore scans each equivalence class of Π*_X and
// checks for a sense covering *all* of the class's consequent values.
//
// Every synonym check — exact satisfaction, support, the support cutoff and
// the Exp-5 savings — runs one coverage pass per class: count the class's
// tuples per consequent value in a per-thread flat array indexed by ValueId,
// then add each touched value's count to each of its senses in a second flat
// array indexed by SenseId. The class's best coverage is the largest literal
// or sense count, and the class satisfies the OFD iff that coverage is the
// whole class. Linear in the class size under the indexed-ontology
// assumption, with no hashing, sorting or allocation in steady state.

#ifndef FASTOFD_OFD_VERIFIER_H_
#define FASTOFD_OFD_VERIFIER_H_

#include <cstdint>
#include <vector>

#include "ofd/ofd.h"
#include "ontology/ontology.h"
#include "ontology/synonym_index.h"
#include "relation/partition.h"
#include "relation/relation.h"

namespace fastofd {

/// Statistics for the paper's Exp-5 ("eliminating false-positive errors"):
/// how many tuples satisfy an OFD only thanks to synonyms (a pure-FD cleaner
/// would flag them as errors).
struct SynonymSavings {
  /// Classes of Π*_X examined (non-singleton).
  int64_t classes = 0;
  /// Classes whose consequent values are NOT all syntactically equal but
  /// which still satisfy the OFD via a shared sense.
  int64_t synonym_classes = 0;
  /// Tuples inside those synonym_classes — the false positives saved.
  int64_t saved_tuples = 0;
  /// Tuples in all examined classes.
  int64_t class_tuples = 0;
};

/// Verifies synonym (and, as an extension, inheritance) OFDs over a relation.
class OfdVerifier {
 public:
  /// `ontology` may be null; it is only needed for inheritance OFDs.
  /// `theta` bounds the ancestor distance for inheritance checks.
  OfdVerifier(const Relation& rel, const SynonymIndex& index,
              const Ontology* ontology = nullptr, int theta = 2)
      : rel_(rel), index_(index), ontology_(ontology), theta_(theta) {}

  /// Exact satisfaction check; computes Π*_lhs internally.
  bool Holds(const Ofd& ofd) const;

  /// Exact satisfaction check against a precomputed Π*_lhs (discovery path).
  bool Holds(const Ofd& ofd, const StrippedPartition& lhs_partition) const;

  /// Satisfaction within one equivalence class (rows of the class).
  bool HoldsInClass(RowSpan rows, AttrId rhs, OfdKind kind) const;

  /// Tuples of the relation a synonym OFD can keep: the singleton rows
  /// stripped from Π*_lhs plus, per class, the best of (a) the most
  /// frequent sense's tuple coverage and (b) the most frequent single
  /// literal value. One coverage pass per class; the OFD holds iff this
  /// equals num_rows(), and Support is this divided by |I|.
  int64_t SatisfiedTuples(const Ofd& ofd, const StrippedPartition& lhs_partition) const;

  /// Approximate-OFD support s(φ)/|I| (paper §4): the max fraction of tuples
  /// retaining which the OFD holds, SupportFor(SatisfiedTuples(...)).
  double Support(const Ofd& ofd, const StrippedPartition& lhs_partition) const;

  /// Support of a SatisfiedTuples count: satisfied / |I|, and 1 on an empty
  /// relation. Callers that need both holds and support run one pass and
  /// derive each from the count.
  double SupportFor(int64_t satisfied) const {
    if (rel_.num_rows() == 0) return 1.0;
    return static_cast<double>(satisfied) / static_cast<double>(rel_.num_rows());
  }

  /// Early-exit form of Support for the discovery hot path: returns
  /// Support(...) >= kappa, but stops scanning classes as soon as the
  /// tuples already lost exceed the (1 - kappa) * |I| error budget — the
  /// e(X->A) > threshold cutoff for approximate verification. Agrees with
  /// Support on the boundary (same final comparison when no early exit
  /// fires).
  bool SupportAtLeast(const Ofd& ofd, const StrippedPartition& lhs_partition,
                      double kappa) const;

  /// Exp-5 statistic for a (presumably satisfied) OFD.
  SynonymSavings Savings(const Ofd& ofd, const StrippedPartition& lhs_partition) const;

  const Relation& relation() const { return rel_; }
  const SynonymIndex& index() const { return index_; }

 private:
  // One synonym coverage pass over a class (see the file comment).
  struct ClassCoverage {
    int64_t best = 0;      // Largest literal or sense tuple count.
    int64_t distinct = 0;  // Distinct consequent values.
  };
  ClassCoverage Coverage(RowSpan rows, AttrId rhs) const;

  bool InheritanceClassHolds(const std::vector<ValueId>& distinct) const;

  const Relation& rel_;
  const SynonymIndex& index_;
  const Ontology* ontology_;
  int theta_;
};

}  // namespace fastofd

#endif  // FASTOFD_OFD_VERIFIER_H_
