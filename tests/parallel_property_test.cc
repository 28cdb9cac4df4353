// Property: discovery and cleaning outputs are byte-identical across every
// pool width. The task scheduler may interleave, steal, and nest
// arbitrarily, so any divergence here means scheduling state leaked into
// results, which the one-slot-per-task discipline (compute into a slot only
// that index writes, apply in canonical order) exists to prevent. Runs under
// TSan in CI.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "clean/repair.h"
#include "datagen/datagen.h"
#include "discovery/fastofd.h"
#include "exec/thread_pool.h"
#include "ontology/synonym_index.h"

namespace fastofd {
namespace {

GeneratedData MakeInstance(uint64_t seed, double error_rate,
                           double incompleteness_rate) {
  DataGenConfig cfg;
  cfg.num_rows = 500;
  cfg.num_antecedents = 3;
  cfg.num_consequents = 3;
  cfg.num_noise_attrs = 2;
  cfg.num_senses = 4;
  cfg.error_rate = error_rate;
  cfg.incompleteness_rate = incompleteness_rate;
  cfg.seed = seed;
  return GenerateData(cfg);
}

// Pool widths compared against the inline (null-pool) reference. 8 exceeds
// the hardware concurrency of small runners: oversubscription must not
// change output either.
const int kThreadCounts[] = {1, 2, 8};

TEST(ParallelPropertyTest, DiscoveryByteIdenticalAcrossThreads) {
  for (uint64_t seed : {7u, 31u}) {
    GeneratedData data = MakeInstance(seed, /*error_rate=*/0.02,
                                      /*incompleteness_rate=*/0.05);
    SynonymIndex index(data.ontology, data.rel.dict());
    FastOfdResult reference = FastOfd(data.rel, index).Discover();
    ASSERT_FALSE(reference.ofds.empty());
    for (int threads : kThreadCounts) {
      ThreadPool pool(threads);
      FastOfdConfig cfg;
      cfg.pool = &pool;
      FastOfdResult got = FastOfd(data.rel, index, cfg).Discover();
      const std::string label =
          "seed " + std::to_string(seed) + " threads " + std::to_string(threads);
      EXPECT_EQ(reference.ofds, got.ofds) << label;
      EXPECT_EQ(reference.candidates_checked, got.candidates_checked) << label;
      EXPECT_EQ(reference.values_scanned, got.values_scanned) << label;
      EXPECT_EQ(reference.partition_products, got.partition_products) << label;
    }
  }
}

TEST(ParallelPropertyTest, CleanByteIdenticalAcrossThreads) {
  for (uint64_t seed : {13u, 57u}) {
    GeneratedData data = MakeInstance(seed, /*error_rate=*/0.06,
                                      /*incompleteness_rate=*/0.1);
    OfdCleanResult reference =
        OfdClean(data.rel, data.ontology, data.sigma).Run();
    for (int threads : kThreadCounts) {
      ThreadPool pool(threads);
      OfdCleanConfig cfg;
      cfg.pool = &pool;
      OfdCleanResult got =
          OfdClean(data.rel, data.ontology, data.sigma, cfg).Run();
      const std::string label =
          "seed " + std::to_string(seed) + " threads " + std::to_string(threads);
      EXPECT_EQ(got.best.repaired.CellDistance(reference.best.repaired), 0)
          << label;
      EXPECT_EQ(reference.best.ontology_additions, got.best.ontology_additions)
          << label;
      EXPECT_EQ(reference.best.data_changes, got.best.data_changes) << label;
      EXPECT_EQ(reference.best.consistent, got.best.consistent) << label;
      EXPECT_EQ(reference.num_candidates, got.num_candidates) << label;
      EXPECT_EQ(reference.nodes_evaluated, got.nodes_evaluated) << label;
      ASSERT_EQ(reference.pareto.size(), got.pareto.size()) << label;
      for (size_t i = 0; i < reference.pareto.size(); ++i) {
        EXPECT_EQ(reference.pareto[i].ontology_changes,
                  got.pareto[i].ontology_changes) << label;
        EXPECT_EQ(reference.pareto[i].data_changes, got.pareto[i].data_changes)
            << label;
      }
    }
  }
}

}  // namespace
}  // namespace fastofd
