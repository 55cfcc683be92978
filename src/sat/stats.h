// Aggregate counters describing one solver's lifetime of work.
//
// Counters are monotone except max_decision_level (a high-water mark).
// operator- yields the per-phase delta between two snapshots, which is what
// the optimizer loops attach to each incremental solve call's trace span.
#pragma once

#include <cstddef>
#include <cstdint>

namespace olsq2::sat {

/// Byte-level accounting of a solver's dominant heap consumers, measured
/// from container capacities (what the allocator actually holds, not just
/// what is live). Snapshot via Solver::memory_stats(); feeds the metrics
/// gauges and memory-budget diagnostics.
struct MemoryStats {
  std::size_t clause_bytes = 0;  // original clauses (arena words + ref vector)
  std::size_t learnt_bytes = 0;  // learnt-DB clauses (arena words + ref vectors)
  std::size_t watch_bytes = 0;   // watch lists (vector capacities)
  std::size_t arena_bytes = 0;   // clause-arena capacity (allocator holding)
  std::size_t arena_wasted_bytes = 0;  // dead arena words awaiting GC

  /// Allocator-level footprint: the arena holds both original and learnt
  /// clause payloads, so clause_bytes/learnt_bytes are *live* breakdowns of
  /// arena_bytes, not additional memory.
  std::size_t total() const { return arena_bytes + watch_bytes; }
};

struct Stats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learnt_clauses = 0;
  std::uint64_t learnt_literals = 0;
  std::uint64_t removed_clauses = 0;   // deleted by DB reduction
  std::uint64_t minimized_literals = 0;  // dropped by conflict-clause minimization
  std::uint64_t solve_calls = 0;
  std::uint64_t binary_clauses = 0;    // size-2 clauses added (original + learnt)
  std::uint64_t max_decision_level = 0;  // high-water mark, not monotone-delta
  std::uint64_t assumption_lits = 0;   // assumption literals across solve calls
  std::uint64_t arena_gcs = 0;         // clause-arena compactions
  std::uint64_t inprocess_rounds = 0;  // inprocessing rounds completed
  std::uint64_t inprocess_strengthened_lits = 0;  // literals dropped (vivify+SSR)
  std::uint64_t inprocess_removed_clauses = 0;  // clauses deleted by inprocessing
  std::uint64_t equiv_vars = 0;        // vars retired by equivalence substitution

  /// Delta between two snapshots: `after - before` subtracts every monotone
  /// counter member-wise; max_decision_level keeps the later (lhs) value
  /// since a high-water mark has no meaningful difference.
  Stats operator-(const Stats& rhs) const {
    Stats d;
    d.decisions = decisions - rhs.decisions;
    d.propagations = propagations - rhs.propagations;
    d.conflicts = conflicts - rhs.conflicts;
    d.restarts = restarts - rhs.restarts;
    d.learnt_clauses = learnt_clauses - rhs.learnt_clauses;
    d.learnt_literals = learnt_literals - rhs.learnt_literals;
    d.removed_clauses = removed_clauses - rhs.removed_clauses;
    d.minimized_literals = minimized_literals - rhs.minimized_literals;
    d.solve_calls = solve_calls - rhs.solve_calls;
    d.binary_clauses = binary_clauses - rhs.binary_clauses;
    d.max_decision_level = max_decision_level;
    d.assumption_lits = assumption_lits - rhs.assumption_lits;
    d.arena_gcs = arena_gcs - rhs.arena_gcs;
    d.inprocess_rounds = inprocess_rounds - rhs.inprocess_rounds;
    d.inprocess_strengthened_lits =
        inprocess_strengthened_lits - rhs.inprocess_strengthened_lits;
    d.inprocess_removed_clauses =
        inprocess_removed_clauses - rhs.inprocess_removed_clauses;
    d.equiv_vars = equiv_vars - rhs.equiv_vars;
    return d;
  }
};

}  // namespace olsq2::sat
