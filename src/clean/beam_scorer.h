// Incremental, side-effect-free scoring for the OFDClean ontology-repair
// beam search (paper §7.1).
//
// A beam node is a set of candidate insertions (sense, value); its score is
// the number of data repairs RepairData would still need with those
// insertions applied. Four observations make scoring cheap and parallel:
//
//   1. Per-class independence. With each OFD repairing its own consequent
//      column and classes of one partition disjoint, the repair count
//      decomposes into a sum of per-class costs, each a function of only the
//      class's consequent histogram, its assigned sense λ, and the synonym
//      view.
//   2. Histograms are node-independent. A class's (value, count) histogram
//      depends only on the class and the relation, so construction counts
//      each class once — flat thread-local counters and a touched list, as
//      the verifier's coverage pass does — and keeps its distinct values
//      (ascending, each with its count and whether λ covers it in the base
//      index) plus a level-0 summary: size, uncovered occurrences, whether
//      some value is covered, the majority count, and whether λ has base
//      values. No row is read after construction.
//   3. Insertions flip values. Adding (λ, v) can change the cost of class x
//      only when λ_x = λ and v occurs among x's consequent values: it flips
//      v's occurrences from uncovered to covered (and gives λ a value). So
//      each candidate carries the list of classes it can affect; a node is
//      re-costed over the union of its picks' lists (stamp-marked, no sort),
//      and each affected class is costed from its summary plus one histogram
//      lookup per pick with the class's sense — O(picks) per class. The
//      memoized level-0 cost stands in for every unaffected class.
//   4. No shared mutable state. Full scoring layers a node's insertions over
//      the shared base index with a SynonymIndexOverlay instead of
//      AddValue/RemoveValue, and every per-node buffer lives in a
//      per-worker ScoreScratch, so a level's expansions can be scored
//      concurrently with ThreadPool::ParallelFor.
//
// ScoreFull (every class's histogram re-costed under the node's overlay) is
// the reference path and ScoreIncremental computes the same function; audit
// mode additionally cross-checks both against a from-scratch RepairData on a
// materialized index copy. A class's cost depends on which values are
// covered and how often they occur, never on which covered value RepairData
// would pick (its tie-breaks — max count, then min value id — choose the
// target, not the number of rewrites), so no summary field needs them.

#ifndef FASTOFD_CLEAN_BEAM_SCORER_H_
#define FASTOFD_CLEAN_BEAM_SCORER_H_

#include <cstdint>
#include <vector>

#include "clean/repair.h"
#include "clean/sense_assignment.h"
#include "common/status.h"
#include "ofd/ofd.h"
#include "ontology/synonym_index.h"
#include "relation/relation.h"

namespace fastofd {

class ThreadPool;  // exec/thread_pool.h

/// Scores ontology-repair beam nodes against a fixed sense assignment.
/// Construction counts every class's consequent histogram once and memoizes
/// its level-0 (no insertions) cost; const thereafter, so one instance is
/// safely shared by concurrent node evaluations.
class BeamScorer {
 public:
  /// Builds the per-class histograms and summaries (on `pool` when provided;
  /// they are byte-identical for any thread count).
  BeamScorer(const Relation& rel, const SynonymIndex& index, const SigmaSet& sigma,
             const SenseAssignmentResult& assignment, ThreadPool* pool = nullptr);

  /// Registers the candidate set; the (sense, value) pairs must be distinct.
  /// `affected[i]` lists the flattened class indices (OFDs in Σ order,
  /// classes in partition order) whose cost can change when candidates[i]
  /// is inserted — at least every class whose assigned sense matches and
  /// whose consequent values contain the value. Listing more classes only
  /// costs time.
  void SetCandidates(std::vector<OntologyAddition> candidates,
                     std::vector<std::vector<uint32_t>> affected);

  struct NodeScore {
    /// Data repairs still required with the node's insertions applied.
    int64_t data_changes = 0;
    /// Classes whose cost was recomputed for this node.
    int64_t classes_rescored = 0;
  };

  /// Reusable per-worker scoring state: the overlay full scoring layers the
  /// node's insertions into, and the stamps incremental scoring marks the
  /// affected-class union with. One instance per worker, reused across every
  /// node that worker scores, so scoring a node allocates nothing. Scores
  /// are independent of which scratch (or how warm) is used.
  class ScoreScratch {
   public:
    explicit ScoreScratch(const SynonymIndex& base) : overlay_(base) {}

   private:
    friend class BeamScorer;
    SynonymIndexOverlay overlay_;
    std::vector<uint32_t> stamp_;  // Per class: the epoch that last marked it.
    uint32_t epoch_ = 0;
  };

  /// Scores a node (candidate indices into the registered set) by
  /// re-costing every class's histogram under the node's overlay.
  NodeScore ScoreFull(const std::vector<int>& picks) const;
  NodeScore ScoreFull(const std::vector<int>& picks, ScoreScratch* scratch) const;

  /// Scores a node by re-costing only the classes its picks can affect, each
  /// from its summary plus the picks' flips; returns exactly ScoreFull's
  /// data_changes.
  NodeScore ScoreIncremental(const std::vector<int>& picks) const;
  NodeScore ScoreIncremental(const std::vector<int>& picks,
                             ScoreScratch* scratch) const;

  /// Σ of the memoized level-0 per-class costs (== ScoreFull({})).
  int64_t base_cost() const { return base_cost_; }

  /// Flattened class count across all OFDs.
  size_t num_classes() const { return classes_.size(); }

  /// Deep audit for one scored node: the overlay invariants hold
  /// (AuditSynonymIndexOverlay), incremental and full scoring agree on
  /// `data_changes`, and — when the instance is small enough
  /// (audit::kDeepAuditMaxRows) and the OFDs' attribute sets are disjoint
  /// enough for per-class independence (distinct consequents, no
  /// antecedent/consequent overlap) — a from-scratch RepairData over a
  /// materialized index copy reports the same repair count.
  Status AuditNodeScore(const std::vector<int>& picks, int64_t data_changes) const;

 private:
  /// One distinct consequent value of a class.
  struct Entry {
    ValueId value = kInvalidValue;
    int32_t count = 0;
    /// The class's sense contains the value in the base index.
    bool base_covered = false;
  };

  /// A class's level-0 state; its entries are entries_[begin, end),
  /// ascending by value.
  struct ClassSummary {
    size_t begin = 0;
    size_t end = 0;
    SenseId sense = kInvalidSense;
    int64_t size = 0;
    /// Occurrences of values the sense does not cover in the base index.
    int64_t uncovered = 0;
    int64_t majority_count = 0;
    /// Some value of the class is base-covered.
    bool any_covered = false;
    /// The sense has at least one (dictionary-present) base value.
    bool sense_has_values = false;
  };

  /// Repair cost of a class with `uncovered` uncovered occurrences, given
  /// whether some value is covered and whether the sense has any value.
  static int64_t Cost(const ClassSummary& c, int64_t uncovered, bool any_covered,
                      bool sense_has_values);

  /// Repair cost of one class, re-costed from its histogram under the view
  /// (null = base index).
  int64_t ClassCost(size_t item, const SynonymIndexOverlay* overlay) const;

  /// Repair cost of one class with the picks' insertions applied, from its
  /// summary plus one histogram lookup per pick with the class's sense.
  int64_t FlippedCost(size_t item, const std::vector<int>& picks) const;

  SynonymIndexOverlay MakeOverlay(const std::vector<int>& picks) const;

  const Relation& rel_;
  const SynonymIndex& index_;
  const SigmaSet& sigma_;
  const SenseAssignmentResult& assignment_;
  std::vector<ClassSummary> classes_;
  std::vector<Entry> entries_;
  std::vector<int64_t> level0_cost_;
  int64_t base_cost_ = 0;
  std::vector<OntologyAddition> candidates_;
  std::vector<std::vector<uint32_t>> affected_;
};

}  // namespace fastofd

#endif  // FASTOFD_CLEAN_BEAM_SCORER_H_
