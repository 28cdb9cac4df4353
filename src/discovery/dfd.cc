// DFD (Abedjan et al. 2014)-style discovery: per consequent attribute, a
// randomized traversal of the antecedent lattice with memoized partition
// checks. Maximal non-dependencies are grown by random upward walks; the
// candidate minimal dependencies are the minimal transversals of their
// complements, re-seeded until every candidate verifies. Classification
// inference (supersets of dependencies are dependencies, subsets of
// non-dependencies are non-dependencies) is implicit in the
// transversal/maximality bookkeeping.

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "discovery/fd_baselines.h"
#include "discovery/set_cover.h"
#include "relation/attr_set.h"
#include "relation/partition.h"

namespace fastofd {

namespace {

class Dfd : public FdAlgorithm {
 public:
  std::string name() const override { return "dfd"; }

  FdResult Discover(const Relation& rel) override {
    FdResult result;
    PartitionCache partitions(rel);
    partitions_ = &partitions;
    work_ = 0;
    Rng rng(0xDFD);
    const int n = rel.num_attrs();

    for (AttrId a = 0; a < n; ++a) {
      AttrSet universe = AttrSet::All(n).Without(a);
      if (partitions.Get(AttrSet::Single(a))->full_num_classes() == 1) {
        result.fds.push_back(Ofd{AttrSet(), a, OfdKind::kSynonym});
        continue;
      }
      std::vector<AttrSet> max_non_deps;
      std::unordered_set<uint64_t> verified_deps;
      bool progress = true;
      std::vector<AttrSet> candidates;
      while (progress) {
        progress = false;
        std::vector<AttrSet> complements;
        complements.reserve(max_non_deps.size());
        for (AttrSet nd : max_non_deps) complements.push_back(universe.Minus(nd));
        candidates = MinimalTransversals(complements, universe);
        for (AttrSet x : candidates) {
          if (verified_deps.count(x.mask())) continue;
          if (IsDependency(x, a)) {
            verified_deps.insert(x.mask());
            continue;
          }
          // Random upward walk: grow X into a maximal non-dependency.
          AttrSet nd = x;
          std::vector<AttrId> extra = universe.Minus(nd).ToVector();
          rng.Shuffle(&extra);
          for (AttrId b : extra) {
            if (!IsDependency(nd.With(b), a)) nd = nd.With(b);
          }
          max_non_deps.push_back(nd);
          max_non_deps = MaximalSets(std::move(max_non_deps));
          progress = true;
          break;  // Re-seed from the updated non-dependency border.
        }
      }
      for (AttrSet x : candidates) {
        result.fds.push_back(Ofd{x, a, OfdKind::kSynonym});
      }
    }
    partitions_ = nullptr;
    result.work = work_;
    std::sort(result.fds.begin(), result.fds.end());
    return result;
  }

 private:
  bool IsDependency(AttrSet lhs, AttrId rhs) {
    ++work_;
    return partitions_->Get(lhs)->error() == partitions_->Get(lhs.With(rhs))->error();
  }

  // This Discover() call's partitions, each refined from its cached prefix.
  PartitionCache* partitions_ = nullptr;
  int64_t work_ = 0;
};

}  // namespace

std::unique_ptr<FdAlgorithm> MakeDfd() { return std::make_unique<Dfd>(); }

}  // namespace fastofd
