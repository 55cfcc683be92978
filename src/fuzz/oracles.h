// Differential and metamorphic oracles over fuzzed instances.
//
// Each oracle runs a family of independent engines / encodings / rewrites
// on one instance and cross-checks everything that must agree:
//   check_encoding_differential - every encoding configuration (bit-vector
//     vs one-hot FD variables, pairwise vs channeling vs AMO injectivity,
//     all three cardinality encoders, OLSQ2 vs the OLSQ baseline) must
//     return the same SAT verdict for the same bounds, and every SAT answer
//     must pass layout::verify.
//   check_engine_differential - exact OLSQ2 optima vs TB-OLSQ2 relaxation
//     vs A*/SABRE heuristic upper bounds: tb_swaps <= opt_swaps <=
//     heuristic_swaps, opt_depth <= heuristic_depth, verifier green on all;
//     every call either SWAP sweep pruned by its floor is UNSAT when
//     re-decided by a fixed-bound solve (catches
//     OLSQ2_FUZZ_INJECT_FLOOR_BUG, see --inject-floor-bug).
//   check_metamorphic - optimal depth / SWAP count invariant (or shifted by
//     the known amount) under the transforms of metamorphic.h.
//   check_sat_core - CDCL vs reference DPLL on random CNF; UNSAT answers
//     must carry a checkable DRAT proof, SAT models must evaluate true.
// An OracleReport with ok=false is a bug in the library (or a deliberately
// injected one - see OLSQ2_FUZZ_INJECT_ENCODING_BUG in layout/model.cpp).
#pragma once

#include <string>
#include <vector>

#include "fuzz/generator.h"

namespace olsq2::fuzz {

struct OracleReport {
  std::string oracle;
  bool ok = true;
  std::vector<std::string> errors;

  void fail(std::string message) {
    ok = false;
    errors.push_back(std::move(message));
  }
};

OracleReport check_encoding_differential(const Instance& instance);
OracleReport check_engine_differential(const Instance& instance);
/// `seed` drives the random permutations inside the transforms.
OracleReport check_metamorphic(const Instance& instance, std::uint64_t seed);
OracleReport check_sat_core(std::uint64_t seed);
/// Inprocessing on/off differential on random CNF: two CDCL solvers over
/// the same formula, one with inprocessing disabled and one with rounds
/// forced onto a short schedule, must agree on the verdict; SAT models must
/// evaluate true on the original clauses, and the inprocessing solver's
/// UNSAT answers must carry a DRAT proof that checks (covering every
/// vivification/subsumption/substitution rewrite). This is the oracle that
/// catches OLSQ2_FUZZ_INJECT_VIVIFY_BUG (see --inject-sat-bug).
OracleReport check_inprocess(std::uint64_t seed);
/// Serve-layer cache equivalence: for relabeled/reordered variants of the
/// instance, (1) canonical cache keys collide (when both canonical
/// searches are exact), (2) the un-relabeled cached result passes
/// layout::verify against the *variant* problem, and (3) warm (cache-hit)
/// objectives agree with a cold solve of the same variant.
OracleReport check_cache(const Instance& instance, std::uint64_t seed);
/// Planning-engine differential: the optimal A* search (src/plan) is the
/// only engine that certifies SWAP optimality without sharing any encoding
/// code with the SAT stack, which makes the comparison a two-way refutation:
///   - certified plan optimum ABOVE TB-OLSQ2's swap optimum = inadmissible
///     heuristic or broken search (this is what OLSQ2_FUZZ_INJECT_PLAN_BUG
///     plants and --inject-plan-bug proves we catch);
///   - a *verified* plan solution BELOW TB's count is arbitrated with one
///     extra SAT call (tb_solve_fixed at the plan's bound): SAT means TB's
///     patience rule stopped early (legal - its descent terminates on the
///     first no-improvement block relaxation, which can leave the optimum
///     unproven only when TB's SWAP count exceeds the block count it
///     stopped at; below that the SWAP floor proves it), UNSAT refutes the
///     SAT encoding itself, since a machine-verified cheaper solution
///     exists. A floor set too high is not caught here but by
///     check_engine_differential, which re-decides every pruned call.
/// Also checks plan results against the TB verifier, the heuristic engines'
/// upper bounds, and that a budget-starved plan run still returns a sound
/// upper bound (never below the certified optimum).
OracleReport check_plan(const Instance& instance);
/// Subarchitecture lift-soundness differential (src/subarch): force the
/// k-ladder on the small fuzzed device (min_device_qubits = 0) and require
///   - the lifted TB result to pass the full-device verifier and to match
///     layout::tb_synthesize_swap_optimal's direct swap optimum exactly,
///   - the subarch plan wrapper to reproduce the same optimum under the
///     second certifying engine,
///   - a physically relabeled device variant to enumerate the same cover
///     (identical canonical class keys) and, when all canonical forms are
///     exact, to answer its ladder probes from the shared library (the
///     canonical-keying soundness the cross-request cache relies on).
/// This is the oracle that catches OLSQ2_FUZZ_INJECT_SUBARCH_BUG (an
/// extractor that silently drops subgraph edges; see --inject-subarch-bug).
OracleReport check_subarch(const Instance& instance, std::uint64_t seed);

/// All instance-level oracles in sequence (encoding, engine, metamorphic,
/// cache, plan, subarch); stops at the first failing report. This is the
/// reducer's predicate.
OracleReport check_instance(const Instance& instance, std::uint64_t seed);

}  // namespace olsq2::fuzz
