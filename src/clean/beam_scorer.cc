#include "clean/beam_scorer.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/audit.h"
#include "common/check.h"
#include "exec/thread_pool.h"
#include "relation/attr_set.h"

namespace fastofd {

namespace {

// Per-thread counters for the histogram pass, lazily grown and reset by the
// touched list, so a class costs O(|class| + d log d) for its d distinct
// values and never an O(dictionary) clear.
struct HistogramScratch {
  std::vector<int32_t> value_count;
  std::vector<ValueId> touched_values;
};

HistogramScratch& ThreadHistogramScratch() {
  static thread_local HistogramScratch scratch;
  return scratch;
}

}  // namespace

BeamScorer::BeamScorer(const Relation& rel, const SynonymIndex& index,
                       const SigmaSet& sigma, const SenseAssignmentResult& assignment,
                       ThreadPool* pool)
    : rel_(rel), index_(index), sigma_(sigma), assignment_(assignment) {
  std::vector<std::pair<size_t, size_t>> items;  // (OFD index, class index).
  for (size_t i = 0; i < sigma_.size(); ++i) {
    const auto& classes = assignment_.partitions[i].classes();
    for (size_t c = 0; c < classes.size(); ++c) {
      items.emplace_back(i, c);
      ClassSummary summary;
      summary.sense = assignment_.senses[i][c];
      summary.size = static_cast<int64_t>(classes[c].size());
      summary.sense_has_values = summary.sense != kInvalidSense &&
                                 !index_.SenseValues(summary.sense).empty();
      classes_.push_back(summary);
    }
  }
  // Each class's histogram goes into its own slot (race-free on the pool),
  // then the slots are concatenated in class order.
  std::vector<std::vector<Entry>> histograms(classes_.size());
  const size_t num_values = rel_.dict().size();
  auto count = [&](size_t item) {
    const auto [i, c] = items[item];
    const std::vector<ValueId>& column = rel_.Column(sigma_[i].rhs);
    HistogramScratch& s = ThreadHistogramScratch();
    if (s.value_count.size() < num_values) s.value_count.resize(num_values, 0);
    for (RowId r : assignment_.partitions[i].classes()[c]) {
      const ValueId v = column[static_cast<size_t>(r)];
      if (s.value_count[static_cast<size_t>(v)]++ == 0) s.touched_values.push_back(v);
    }
    std::sort(s.touched_values.begin(), s.touched_values.end());
    ClassSummary& summary = classes_[item];
    std::vector<Entry>& histogram = histograms[item];
    histogram.reserve(s.touched_values.size());
    for (ValueId v : s.touched_values) {
      int32_t& n = s.value_count[static_cast<size_t>(v)];
      const bool covered =
          summary.sense != kInvalidSense && index_.SenseContains(summary.sense, v);
      histogram.push_back(Entry{v, n, covered});
      summary.majority_count = std::max<int64_t>(summary.majority_count, n);
      if (covered) {
        summary.any_covered = true;
      } else {
        summary.uncovered += n;
      }
      n = 0;
    }
    s.touched_values.clear();
  };
  if (pool != nullptr) {
    pool->ParallelFor(classes_.size(), [&](size_t item, int) { count(item); });
  } else {
    for (size_t item = 0; item < classes_.size(); ++item) count(item);
  }
  level0_cost_.resize(classes_.size());
  for (size_t item = 0; item < classes_.size(); ++item) {
    ClassSummary& c = classes_[item];
    c.begin = entries_.size();
    entries_.insert(entries_.end(), histograms[item].begin(), histograms[item].end());
    c.end = entries_.size();
    level0_cost_[item] = Cost(c, c.uncovered, c.any_covered, c.sense_has_values);
    base_cost_ += level0_cost_[item];
  }
}

void BeamScorer::SetCandidates(std::vector<OntologyAddition> candidates,
                               std::vector<std::vector<uint32_t>> affected) {
  FASTOFD_CHECK(candidates.size() == affected.size());
  // Incremental scoring flips a value once per pick, so a repeated
  // insertion would be counted twice.
  std::vector<std::pair<SenseId, ValueId>> distinct;
  for (const OntologyAddition& add : candidates) distinct.emplace_back(add.sense, add.value);
  std::sort(distinct.begin(), distinct.end());
  FASTOFD_CHECK(std::adjacent_find(distinct.begin(), distinct.end()) == distinct.end());
  candidates_ = std::move(candidates);
  affected_ = std::move(affected);
}

int64_t BeamScorer::Cost(const ClassSummary& c, int64_t uncovered, bool any_covered,
                         bool sense_has_values) {
  if (c.end - c.begin <= 1) return 0;  // All equal: never violating.
  if (c.sense == kInvalidSense) return c.size - c.majority_count;
  if (uncovered == 0) return 0;  // Co-covered by λ: not violating.
  // RepairData rewrites every uncovered tuple whose value differs from the
  // repair target. With a covered target, no uncovered value can equal it,
  // so the cost is exactly the uncovered occurrences. With no covered value
  // but a non-empty sense, the target is a sense value absent from the
  // class — every tuple changes. Otherwise the majority value survives.
  if (any_covered) return uncovered;
  if (sense_has_values) return c.size;
  return c.size - c.majority_count;
}

int64_t BeamScorer::ClassCost(size_t item, const SynonymIndexOverlay* overlay) const {
  const ClassSummary& c = classes_[item];
  const bool layered = overlay != nullptr && c.sense != kInvalidSense;
  int64_t uncovered = 0;
  bool any_covered = false;
  for (size_t e = c.begin; e < c.end; ++e) {
    const Entry& entry = entries_[e];
    if (entry.base_covered ||
        (layered && overlay->SenseContains(c.sense, entry.value))) {
      any_covered = true;
    } else {
      uncovered += entry.count;
    }
  }
  return Cost(c, uncovered, any_covered,
              c.sense_has_values || (layered && overlay->SenseHasValues(c.sense)));
}

int64_t BeamScorer::FlippedCost(size_t item, const std::vector<int>& picks) const {
  const ClassSummary& c = classes_[item];
  int64_t uncovered = c.uncovered;
  bool any_covered = c.any_covered;
  bool sense_has_values = c.sense_has_values;
  const auto first = entries_.begin() + static_cast<std::ptrdiff_t>(c.begin);
  const auto last = entries_.begin() + static_cast<std::ptrdiff_t>(c.end);
  for (int p : picks) {
    const OntologyAddition& add = candidates_[static_cast<size_t>(p)];
    if (add.sense != c.sense) continue;
    sense_has_values = true;
    auto it = std::lower_bound(first, last, add.value,
                               [](const Entry& e, ValueId v) { return e.value < v; });
    if (it == last || it->value != add.value || it->base_covered) continue;
    // The insertion flips every occurrence of the value to covered.
    uncovered -= it->count;
    any_covered = true;
  }
  return Cost(c, uncovered, any_covered, sense_has_values);
}

SynonymIndexOverlay BeamScorer::MakeOverlay(const std::vector<int>& picks) const {
  SynonymIndexOverlay overlay(index_);
  for (int p : picks) {
    const OntologyAddition& add = candidates_[static_cast<size_t>(p)];
    overlay.Add(add.sense, add.value);
  }
  return overlay;
}

BeamScorer::NodeScore BeamScorer::ScoreFull(const std::vector<int>& picks) const {
  ScoreScratch scratch(index_);
  return ScoreFull(picks, &scratch);
}

BeamScorer::NodeScore BeamScorer::ScoreFull(const std::vector<int>& picks,
                                            ScoreScratch* scratch) const {
  SynonymIndexOverlay& overlay = scratch->overlay_;
  overlay.Clear();
  for (int p : picks) {
    const OntologyAddition& add = candidates_[static_cast<size_t>(p)];
    overlay.Add(add.sense, add.value);
  }
  const SynonymIndexOverlay* view = picks.empty() ? nullptr : &overlay;
  NodeScore score;
  for (size_t item = 0; item < classes_.size(); ++item) {
    score.data_changes += ClassCost(item, view);
  }
  score.classes_rescored = static_cast<int64_t>(classes_.size());
  return score;
}

BeamScorer::NodeScore BeamScorer::ScoreIncremental(const std::vector<int>& picks) const {
  ScoreScratch scratch(index_);
  return ScoreIncremental(picks, &scratch);
}

BeamScorer::NodeScore BeamScorer::ScoreIncremental(const std::vector<int>& picks,
                                                   ScoreScratch* scratch) const {
  if (picks.empty()) return NodeScore{base_cost_, 0};
  // The union of the picks' affected lists: a class is re-costed the first
  // time a list names it in this node's epoch.
  std::vector<uint32_t>& stamp = scratch->stamp_;
  if (stamp.size() < classes_.size()) stamp.resize(classes_.size(), 0);
  if (++scratch->epoch_ == 0) {  // Wrapped: forget every earlier mark.
    std::fill(stamp.begin(), stamp.end(), 0);
    scratch->epoch_ = 1;
  }
  const uint32_t epoch = scratch->epoch_;
  NodeScore score{base_cost_, 0};
  for (int p : picks) {
    for (uint32_t item : affected_[static_cast<size_t>(p)]) {
      if (stamp[item] == epoch) continue;
      stamp[item] = epoch;
      ++score.classes_rescored;
      score.data_changes += FlippedCost(item, picks) - level0_cost_[item];
    }
  }
  return score;
}

Status BeamScorer::AuditNodeScore(const std::vector<int>& picks,
                                  int64_t data_changes) const {
  auto fail = [](const std::string& message) {
    return audit::internal::Counted(Status::Error("beam scorer audit: " + message));
  };
  SynonymIndexOverlay overlay = MakeOverlay(picks);
  Status overlay_ok = AuditSynonymIndexOverlay(overlay);
  if (!overlay_ok.ok()) return audit::internal::Counted(overlay_ok);

  NodeScore full = ScoreFull(picks);
  NodeScore incremental = ScoreIncremental(picks);
  if (full.data_changes != data_changes ||
      incremental.data_changes != data_changes) {
    return fail("node scored " + std::to_string(data_changes) + " but full=" +
                std::to_string(full.data_changes) + " incremental=" +
                std::to_string(incremental.data_changes));
  }

  // From-scratch cross-check against RepairData on a materialized index
  // copy. Exact only under per-class independence: distinct consequents and
  // no antecedent/consequent overlap (coupled classes read each other's
  // rewrites). Bounded so audit-mode services stay usable.
  if (rel_.num_rows() > audit::kDeepAuditMaxRows) {
    return audit::internal::Counted(Status::Ok());
  }
  AttrSet lhs_attrs, rhs_attrs;
  for (const Ofd& ofd : sigma_) {
    if (rhs_attrs.Contains(ofd.rhs)) return audit::internal::Counted(Status::Ok());
    lhs_attrs = lhs_attrs.Union(ofd.lhs);
    rhs_attrs = rhs_attrs.With(ofd.rhs);
  }
  if (lhs_attrs.Intersects(rhs_attrs)) {
    return audit::internal::Counted(Status::Ok());
  }
  SynonymIndex materialized = index_;
  for (int p : picks) {
    const OntologyAddition& add = candidates_[static_cast<size_t>(p)];
    materialized.AddValue(add.sense, add.value);
  }
  RepairResult repaired = RepairData(rel_, materialized, sigma_, assignment_,
                                     std::numeric_limits<int64_t>::max());
  if (repaired.data_changes != data_changes) {
    return fail("from-scratch RepairData made " +
                std::to_string(repaired.data_changes) +
                " changes but the node scored " + std::to_string(data_changes));
  }
  return audit::internal::Counted(Status::Ok());
}

}  // namespace fastofd
