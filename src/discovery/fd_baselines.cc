#include "discovery/fd_baselines.h"

#include <algorithm>

#include "relation/partition.h"

namespace fastofd {

// Factories defined in the per-algorithm translation units.
std::unique_ptr<FdAlgorithm> MakeTane();
std::unique_ptr<FdAlgorithm> MakeFun();
std::unique_ptr<FdAlgorithm> MakeFdMine();
std::unique_ptr<FdAlgorithm> MakeDfd();
std::unique_ptr<FdAlgorithm> MakeDepMiner();
std::unique_ptr<FdAlgorithm> MakeFastFds();
std::unique_ptr<FdAlgorithm> MakeFDep();

std::unique_ptr<FdAlgorithm> MakeFdAlgorithm(const std::string& name) {
  if (name == "tane") return MakeTane();
  if (name == "fun") return MakeFun();
  if (name == "fdmine") return MakeFdMine();
  if (name == "dfd") return MakeDfd();
  if (name == "depminer") return MakeDepMiner();
  if (name == "fastfds") return MakeFastFds();
  if (name == "fdep") return MakeFDep();
  return nullptr;
}

std::vector<std::string> FdAlgorithmNames() {
  return {"tane", "fun", "fdmine", "dfd", "depminer", "fastfds", "fdep"};
}

StrippedPartition RefineSmallerSibling(const Relation& rel, AttrSet x,
                                       const StrippedPartition& px, AttrSet y,
                                       const StrippedPartition& py) {
  if (py.sum_sizes() < px.sum_sizes()) {
    return StrippedPartition::Refine(py, rel, x.Minus(y).First());
  }
  return StrippedPartition::Refine(px, rel, y.Minus(x).First());
}

FdResult BruteForceFds(const Relation& rel) {
  FdResult result;
  const int n = rel.num_attrs();
  // Enumerate antecedents in increasing size; keep only minimal valid FDs.
  std::vector<AttrSet> subsets;
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    subsets.push_back(AttrSet::FromMask(mask));
  }
  std::sort(subsets.begin(), subsets.end(),
            [](AttrSet a, AttrSet b) { return a.size() != b.size()
                                           ? a.size() < b.size()
                                           : a.mask() < b.mask(); });
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
      ++result.work;
      StrippedPartition x = StrippedPartition::BuildForSet(rel, lhs);
      StrippedPartition xa = StrippedPartition::BuildForSet(rel, lhs.With(a));
      if (FdHolds(x, xa)) {
        minimal_found.push_back(lhs);
        result.fds.push_back(Ofd{lhs, a, OfdKind::kSynonym});
      }
    }
  }
  std::sort(result.fds.begin(), result.fds.end());
  return result;
}

}  // namespace fastofd
