// Tests for the sharded hierarchical pipeline (src/holistic/shard.*,
// docs/SCALE.md): partition properties, validity and seed-dominance of the
// stitched schedule, bitwise thread-count independence, the masked-LNS
// contract the boundary polish relies on, and the "sharded" registry
// adapter.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/bsp/greedy_scheduler.hpp"
#include "src/graph/generators.hpp"
#include "src/holistic/shard.hpp"
#include "src/model/validate.hpp"
#include "src/runner/scheduler_registry.hpp"
#include "src/twostage/two_stage.hpp"
#include "src/workload/workload_registry.hpp"

namespace mbsp {
namespace {

MbspInstance workload_instance(const std::string& spec, int P,
                               double r_factor) {
  std::string error;
  auto inst = WorkloadRegistry::global().make_instance(spec, /*seed=*/11, P,
                                                       r_factor, 1, 5, &error);
  EXPECT_TRUE(inst.has_value()) << spec << ": " << error;
  return std::move(*inst);
}

ShardOptions deterministic_options(int shards) {
  ShardOptions options;
  options.num_shards = shards;
  options.lns.budget_ms = 0;  // iteration-capped: machine-speed independent
  options.lns.max_iterations = 3000;
  options.polish_budget_ms = 0;
  options.polish_max_iterations = 2000;
  return options;
}

TEST(ShardPartition, CoversAllNodesWithMonotoneParts) {
  Rng rng(7);
  const ComputeDag dag = random_layered_dag(120, 6, rng);
  for (int k : {1, 2, 5, 16}) {
    const auto parts = acyclic_kway_partition(dag, k);
    ASSERT_FALSE(parts.empty());
    EXPECT_LE(parts.size(), static_cast<std::size_t>(k));
    std::vector<int> part_of(static_cast<std::size_t>(dag.num_nodes()), -1);
    std::size_t covered = 0;
    for (std::size_t p = 0; p < parts.size(); ++p) {
      EXPECT_FALSE(parts[p].empty()) << "shard " << p;
      for (NodeId v : parts[p]) {
        ASSERT_EQ(part_of[static_cast<std::size_t>(v)], -1)
            << "node " << v << " in two shards";
        part_of[static_cast<std::size_t>(v)] = static_cast<int>(p);
        ++covered;
      }
    }
    EXPECT_EQ(covered, static_cast<std::size_t>(dag.num_nodes()));
    // Interval partition of a topological order: edges never point from a
    // later shard to an earlier one, so the quotient is acyclic.
    for (NodeId u = 0; u < dag.num_nodes(); ++u) {
      for (NodeId v : dag.children(u)) {
        EXPECT_LE(part_of[static_cast<std::size_t>(u)],
                  part_of[static_cast<std::size_t>(v)]);
      }
    }
  }
}

TEST(ShardPartition, OversizedKCollapsesToNodeCount) {
  Rng rng(9);
  const ComputeDag dag = random_layered_dag(10, 3, rng);
  const auto parts = acyclic_kway_partition(dag, 64);
  std::size_t covered = 0;
  for (const auto& part : parts) covered += part.size();
  EXPECT_EQ(covered, static_cast<std::size_t>(dag.num_nodes()));
  EXPECT_LE(parts.size(), static_cast<std::size_t>(dag.num_nodes()));
}

TEST(ShardSchedule, ValidatesAndNeverLosesToGreedySeed) {
  for (const char* spec :
       {"stencil2d:nx=6,ny=6,steps=4", "mapreduce:maps=8,reducers=4"}) {
    const MbspInstance inst = workload_instance(spec, 4, 3.0);
    const ShardOptions options = deterministic_options(4);
    const ShardResult result = shard_schedule(inst, options);
    EXPECT_EQ(result.num_shards, 4u);
    const ValidationResult valid = validate(inst, result.schedule);
    EXPECT_TRUE(valid.ok) << spec << ": " << valid.error;
    ASSERT_GT(result.seed_cost, 0) << spec;
    EXPECT_LE(result.cost, result.seed_cost + 1e-9) << spec;
    // The polish never regresses the stitched plan either.
    EXPECT_LE(result.cost, result.stitched_cost + 1e-9) << spec;
  }
}

TEST(ShardSchedule, SingleShardDegeneratesGracefully) {
  const MbspInstance inst = workload_instance("wavefront:nx=6,ny=5", 2, 3.0);
  const ShardResult result = shard_schedule(inst, deterministic_options(1));
  EXPECT_EQ(result.num_shards, 1u);
  EXPECT_EQ(result.cut_edges, 0u);
  EXPECT_EQ(result.boundary_nodes, 0u);
  EXPECT_TRUE(validate(inst, result.schedule).ok);
}

TEST(ShardSchedule, BitwiseReproducibleAcrossThreadCounts) {
  const MbspInstance inst =
      workload_instance("stencil2d:nx=7,ny=5,steps=4", 4, 3.0);
  auto run = [&](int threads) {
    ShardOptions options = deterministic_options(5);
    options.num_threads = threads;
    return shard_schedule(inst, options);
  };
  const ShardResult serial = run(1);
  const ShardResult parallel = run(8);
  EXPECT_EQ(serial.cost, parallel.cost);  // bitwise, not approximate
  EXPECT_EQ(serial.stitched_cost, parallel.stitched_cost);
  EXPECT_EQ(serial.cut_edges, parallel.cut_edges);
  EXPECT_EQ(serial.boundary_nodes, parallel.boundary_nodes);
  ASSERT_EQ(serial.plan.num_procs, parallel.plan.num_procs);
  for (int p = 0; p < serial.plan.num_procs; ++p) {
    const auto& a = serial.plan.seq[static_cast<std::size_t>(p)];
    const auto& b = parallel.plan.seq[static_cast<std::size_t>(p)];
    ASSERT_EQ(a.size(), b.size()) << "proc " << p;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].node, b[i].node);
      EXPECT_EQ(a[i].superstep, b[i].superstep);
    }
  }
}

TEST(ShardSchedule, ShardCountChangesSeedStream) {
  // Different shard counts are different (deterministic) searches; this
  // guards against the shard-indexed seeds collapsing to one stream.
  const MbspInstance inst =
      workload_instance("stencil2d:nx=7,ny=5,steps=4", 4, 3.0);
  const ShardResult a = shard_schedule(inst, deterministic_options(2));
  const ShardResult b = shard_schedule(inst, deterministic_options(5));
  EXPECT_TRUE(validate(inst, a.schedule).ok);
  EXPECT_TRUE(validate(inst, b.schedule).ok);
  EXPECT_NE(a.num_shards, b.num_shards);
}

TEST(MaskedLns, AllOnesMaskIsIdentityAndFrozenNodesKeepAssignments) {
  const MbspInstance inst = workload_instance("fft:n=8", 2, 3.0);
  const ComputePlan initial =
      plan_from_bsp(inst.dag,
                    GreedyBspScheduler().schedule(inst.dag, inst.arch),
                    inst.arch.num_processors);
  LnsOptions options;
  options.budget_ms = 0;
  options.max_iterations = 4000;

  const LnsResult unmasked = improve_plan(inst, initial, options);

  // An all-ones mask must not change a single draw.
  std::vector<char> all(static_cast<std::size_t>(inst.dag.num_nodes()), 1);
  LnsOptions masked_options = options;
  masked_options.node_mask = &all;
  const LnsResult all_masked = improve_plan(inst, initial, masked_options);
  EXPECT_EQ(all_masked.cost, unmasked.cost);
  EXPECT_EQ(all_masked.iterations, unmasked.iterations);
  EXPECT_EQ(all_masked.accepted, unmasked.accepted);

  // Freeze the first half of the nodes: their occurrence multisets (node,
  // proc) must survive the search untouched.
  std::vector<char> half(static_cast<std::size_t>(inst.dag.num_nodes()), 0);
  for (NodeId v = inst.dag.num_nodes() / 2; v < inst.dag.num_nodes(); ++v) {
    half[static_cast<std::size_t>(v)] = 1;
  }
  masked_options.node_mask = &half;
  const LnsResult half_masked = improve_plan(inst, initial, masked_options);
  EXPECT_TRUE(validate(inst, half_masked.schedule).ok);
  auto frozen_occurrences = [&](const ComputePlan& plan) {
    std::vector<std::pair<NodeId, int>> out;
    for (int p = 0; p < plan.num_procs; ++p) {
      for (const PlannedCompute& pc : plan.seq[static_cast<std::size_t>(p)]) {
        if (!half[static_cast<std::size_t>(pc.node)]) {
          out.emplace_back(pc.node, p);
        }
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(frozen_occurrences(half_masked.plan), frozen_occurrences(initial));
}

TEST(ShardedAdapter, RegisteredAndMapsResultFields) {
  const MbspInstance inst =
      workload_instance("stencil2d:nx=6,ny=4,steps=3", 2, 3.0);
  SchedulerOptions options;
  options.budget_ms = 0;
  options.max_iterations = 2000;
  options.shards = 3;
  const ScheduleResult result =
      SchedulerRegistry::global().at("sharded").run(inst, options);
  EXPECT_EQ(result.scheduler, "sharded");
  EXPECT_TRUE(validate(inst, result.schedule).ok);
  EXPECT_EQ(result.num_parts, 3u);
  EXPECT_GT(result.baseline_cost, 0);
  EXPECT_LE(result.cost, result.baseline_cost + 1e-9);
}

TEST(ShardSchedule, ScheduleAndCostAreTheOracleOfTheReturnedPlan) {
  // Whichever branch produced the returned plan (boundary polish, the
  // unpolished stitch, a single shard, the full-seed fallback), its
  // schedule and cost are a from-scratch evaluation of that plan.
  for (const char* spec :
       {"stencil2d:nx=6,ny=6,steps=4", "mapreduce:maps=8,reducers=4",
        "wavefront:nx=6,ny=5"}) {
    const MbspInstance inst = workload_instance(spec, 4, 3.0);
    for (int shards : {1, 4}) {
      for (long polish : {0L, 400L}) {
        for (bool compare_seed : {true, false}) {
          ShardOptions options = deterministic_options(shards);
          options.lns.max_iterations = 600;
          options.polish_max_iterations = polish;
          options.compare_full_seed = compare_seed;
          const ShardResult result = shard_schedule(inst, options);
          const std::string what = std::string(spec) +
                                   " shards=" + std::to_string(shards) +
                                   " polish=" + std::to_string(polish) +
                                   " seed=" + std::to_string(compare_seed);
          MbspSchedule oracle;
          EXPECT_EQ(result.cost,
                    evaluate_plan(inst, result.plan, options.lns, &oracle))
              << what;
          EXPECT_TRUE(result.schedule == oracle) << what;
          if (polish == 0 && !compare_seed) {
            // Nothing after the stitch: the plan IS the stitched plan.
            EXPECT_EQ(result.stitched_cost, result.cost) << what;
          }
        }
      }
      // The stitched cost reported by the polish's warm start equals the
      // evaluation of the same stitched plan without a polish.
      ShardOptions unpolished = deterministic_options(shards);
      unpolished.lns.max_iterations = 600;
      unpolished.polish_max_iterations = 0;
      unpolished.compare_full_seed = false;
      ShardOptions polishing = unpolished;
      polishing.polish_max_iterations = 400;
      const ShardResult stitched = shard_schedule(inst, unpolished);
      const ShardResult polished = shard_schedule(inst, polishing);
      EXPECT_EQ(polished.stitched_cost,
                evaluate_plan(inst, stitched.plan, unpolished.lns))
          << spec << " shards=" << shards;
    }
  }
}

}  // namespace
}  // namespace mbsp
