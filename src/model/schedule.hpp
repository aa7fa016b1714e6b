#pragma once
// MBSP schedule representation (Section 3.2). A schedule is a sequence of
// supersteps; per superstep, each processor runs four phases in order:
//
//   compute phase  — COMPUTE and DELETE operations,
//   save phase     — SAVE operations (red -> blue),
//   delete phase   — DELETE operations,
//   load phase     — LOAD operations (blue -> red).
//
// The shared blue set B is updated with the union of all processors' saves
// at the end of the save phase, so a value saved by any processor in
// superstep i is already loadable in superstep i's load phase.

#include <string>
#include <vector>

#include "src/model/instance.hpp"

namespace mbsp {

enum class OpKind { kCompute, kDelete };

/// One operation of a compute phase.
struct PhaseOp {
  OpKind kind;
  NodeId node;

  static PhaseOp compute(NodeId v) { return {OpKind::kCompute, v}; }
  static PhaseOp erase(NodeId v) { return {OpKind::kDelete, v}; }

  bool operator==(const PhaseOp&) const = default;
};

/// One processor's share of a superstep.
struct ProcStep {
  std::vector<PhaseOp> compute_phase;
  std::vector<NodeId> saves;
  std::vector<NodeId> deletes;  ///< delete phase (after saves)
  std::vector<NodeId> loads;

  bool empty() const {
    return compute_phase.empty() && saves.empty() && deletes.empty() &&
           loads.empty();
  }

  /// Sum of omega over COMPUTE ops of this phase.
  double compute_cost(const ComputeDag& dag) const;
  /// Sum of g * mu over saves / loads.
  double save_cost(const ComputeDag& dag, double g) const;
  double load_cost(const ComputeDag& dag, double g) const;

  bool operator==(const ProcStep&) const = default;
};

struct Superstep {
  std::vector<ProcStep> proc;  ///< size == P

  explicit Superstep(int num_procs = 0) : proc(num_procs) {}

  bool empty() const;

  bool operator==(const Superstep&) const = default;
};

/// A full MBSP schedule. Validity is checked by `validate()` (validate.hpp);
/// costs by `sync_cost()` / `async_cost()` (cost.hpp).
struct MbspSchedule {
  std::vector<Superstep> steps;

  int num_supersteps() const { return static_cast<int>(steps.size()); }

  /// Appends an empty superstep for `num_procs` processors, returns it.
  Superstep& append(int num_procs);

  /// Removes supersteps in which no processor does anything.
  void drop_empty_supersteps();

  /// Total number of operations (all kinds, all processors).
  std::size_t num_ops() const;

  /// Number of COMPUTE operations of node v (recomputation multiplicity).
  std::size_t compute_count(NodeId v) const;

  /// Human-readable dump for debugging / examples.
  std::string to_string(const MbspInstance& inst) const;

  /// Bitwise equality: same supersteps, same ops in the same order.
  bool operator==(const MbspSchedule&) const = default;
};

}  // namespace mbsp
