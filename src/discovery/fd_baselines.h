// Classical FD-discovery baselines (the seven comparators of paper Exp-1/2).
//
// All algorithms discover the complete set of *minimal* FDs X -> A over a
// relation (including ∅ -> A for constant columns), except FDMine which —
// faithfully to the original — reports valid but possibly non-minimal
// dependencies (the paper observes ~24x larger outputs).
//
// Performance profiles intentionally mirror the originals:
//   TANE      level-wise lattice + stripped partitions + C+ pruning
//   FUN       level-wise cardinality counting over free sets
//   FDMine    level-wise without minimality pruning (larger output/memory)
//   DFD       per-consequent random-walk lattice search with memoization
//   DepMiner  agree sets -> maximal sets -> minimal transversals
//   FastFDs   difference sets -> DFS minimal-cover search
//   FDep      pairwise negative cover -> specialization to positive cover
// so Exp-1's shape (linear in N for lattice methods, ~quadratic for the
// pairwise ones) reproduces.

#ifndef FASTOFD_DISCOVERY_FD_BASELINES_H_
#define FASTOFD_DISCOVERY_FD_BASELINES_H_

#include <memory>
#include <string>
#include <vector>

#include "ofd/ofd.h"
#include "relation/partition.h"
#include "relation/relation.h"

namespace fastofd {

/// Output of an FD-discovery run.
struct FdResult {
  /// Discovered FDs, sorted. Kind is always kSynonym (an FD is an OFD under
  /// the identity ontology).
  SigmaSet fds;
  /// Algorithm-specific work counter (candidate checks / pairs examined).
  int64_t work = 0;
};

/// Abstract FD-discovery algorithm.
class FdAlgorithm {
 public:
  virtual ~FdAlgorithm() = default;
  virtual std::string name() const = 0;
  virtual FdResult Discover(const Relation& rel) = 0;
};

/// Factory. Names: "tane", "fun", "fdmine", "dfd", "depminer", "fastfds",
/// "fdep". Returns nullptr for unknown names.
std::unique_ptr<FdAlgorithm> MakeFdAlgorithm(const std::string& name);

/// All registered algorithm names, in the paper's order.
std::vector<std::string> FdAlgorithmNames();

/// Π*_{X ∪ Y} for two siblings of one lattice level (X ∪ Y adds exactly one
/// attribute to each): refines the sibling with fewer stripped rows (ties go
/// to `x`) by the column the other one adds. The level-wise baselines (TANE,
/// FDMine) build every next-level node this way.
StrippedPartition RefineSmallerSibling(const Relation& rel, AttrSet x,
                                       const StrippedPartition& px, AttrSet y,
                                       const StrippedPartition& py);

/// Reference implementation: brute-force minimal FDs by enumerating every
/// candidate and checking it with partitions. For tests only (exponential).
FdResult BruteForceFds(const Relation& rel);

}  // namespace fastofd

#endif  // FASTOFD_DISCOVERY_FD_BASELINES_H_
