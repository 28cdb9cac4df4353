// FUN (Novelli & Cicchetti 2001): level-wise FD discovery over *free sets*
// using partition cardinality counting. A set X is free iff no proper subset
// has the same cardinality |Π_Y| = |Π_X|; the antecedents of minimal FDs are
// exactly the free sets, and free sets are downward closed, so an
// apriori-style traversal over free sets is complete.

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "discovery/fd_baselines.h"
#include "relation/attr_set.h"
#include "relation/partition.h"

namespace fastofd {

namespace {

class Fun : public FdAlgorithm {
 public:
  std::string name() const override { return "fun"; }

  FdResult Discover(const Relation& rel) override {
    FdResult result;
    const int n = rel.num_attrs();
    PartitionCache partitions(rel);
    partitions_ = &partitions;
    cards_.clear();
    work_ = 0;

    // Constant columns: ∅ -> A.
    AttrSet constants;
    for (AttrId a = 0; a < n; ++a) {
      if (Card(AttrSet::Single(a)) == 1) {
        constants = constants.With(a);
        result.fds.push_back(Ofd{AttrSet(), a, OfdKind::kSynonym});
      }
    }

    // Level 1 free sets: non-constant single attributes.
    std::vector<AttrSet> level;
    for (AttrId a = 0; a < n; ++a) {
      if (!constants.Contains(a)) level.push_back(AttrSet::Single(a));
    }

    while (!level.empty()) {
      for (AttrSet x : level) {
        for (AttrId a = 0; a < n; ++a) {
          if (x.Contains(a)) continue;
          ++work_;
          if (Card(x.With(a)) != Card(x)) continue;  // X -> A fails.
          // Minimality: no immediate subset implies A.
          bool minimal = !constants.Contains(a);
          for (AttrId b : x.ToVector()) {
            AttrSet sub = x.Without(b);
            if (Card(sub.With(a)) == Card(sub)) {
              minimal = false;
              break;
            }
          }
          if (minimal) result.fds.push_back(Ofd{x, a, OfdKind::kSynonym});
        }
      }

      // Next level: apriori-gen, keep only free sets.
      std::sort(level.begin(), level.end());
      std::vector<AttrSet> next;
      for (size_t i = 0; i < level.size(); ++i) {
        for (size_t j = i + 1; j < level.size(); ++j) {
          AttrSet combined = level[i].Union(level[j]);
          if (combined.size() != level[i].size() + 1) continue;
          if (!next.empty() && next.back() == combined) continue;
          // All subsets must be free (downward closure of free sets).
          bool subsets_free = true;
          for (AttrId a : combined.ToVector()) {
            if (!std::binary_search(level.begin(), level.end(),
                                    combined.Without(a))) {
              subsets_free = false;
              break;
            }
          }
          if (!subsets_free) continue;
          // Freeness of the combined set itself.
          bool free = true;
          for (AttrId a : combined.ToVector()) {
            if (Card(combined.Without(a)) == Card(combined)) {
              free = false;
              break;
            }
          }
          if (free) next.push_back(combined);
        }
      }
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end()), next.end());
      level = std::move(next);
    }

    partitions_ = nullptr;
    result.work = work_;
    std::sort(result.fds.begin(), result.fds.end());
    result.fds.erase(std::unique(result.fds.begin(), result.fds.end()),
                     result.fds.end());
    return result;
  }

 private:
  // |Π_X| with memoization (FUN's cardinality counting).
  int64_t Card(AttrSet x) {
    auto it = cards_.find(x);
    if (it != cards_.end()) return it->second;
    int64_t card = partitions_->Get(x)->full_num_classes();
    cards_.emplace(x, card);
    return card;
  }

  // This Discover() call's partitions, each refined from its cached prefix.
  PartitionCache* partitions_ = nullptr;
  std::unordered_map<AttrSet, int64_t, AttrSetHash> cards_;
  int64_t work_ = 0;
};

}  // namespace

std::unique_ptr<FdAlgorithm> MakeFun() { return std::make_unique<Fun>(); }

}  // namespace fastofd
