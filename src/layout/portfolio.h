// Portfolio layout synthesis (paper §V, future direction): run several
// independently-configured synthesis instances in parallel and take the
// first (or best) finisher.
//
// "Since each instance is independent of one another, we can build a
//  portfolio of instances by generating configurations for a wide range of
//  objective bounds. This could also include instances containing different
//  encoding methods for cardinality constraints, as there does not appear
//  to be a single best-in-class method with respect to solving time."
//
// Each entry runs on its own thread with its own Model/solver; the first
// complete finisher cancels the others through a shared cancel token.
//
// The entries share one thing while they race: proven objective-bound
// facts (layout::BoundFacts). An UNSAT answer at depth d or SWAP count k
// prunes the bound search of every peer via the monotone solution
// structure of paper §III-B, regardless of encoding.
#pragma once

#include <string>
#include <vector>

#include "layout/search.h"
#include "layout/types.h"

namespace olsq2::layout {

enum class Objective { kDepth, kSwap };

struct PortfolioEntry {
  EncodingConfig config;
  OptimizerOptions options;
  std::string name;  // for reporting; defaults to config.label()
};

struct PortfolioResult {
  Result best;
  /// Index into the entry list of the configuration that produced `best`
  /// (-1 if nothing finished within the budget).
  int winner = -1;
  /// Per-entry outcomes, in entry order (unfinished entries have
  /// solved=false; every entry records its wall_ms).
  std::vector<Result> all;
  /// Bound-fact counters for the run.
  BoundFacts::Traffic traffic;
};

/// Build a sensible default portfolio: the paper's fastest encodings plus
/// both alternation partners of the restart policy and both cardinality
/// encodings for SWAP objectives.
std::vector<PortfolioEntry> default_portfolio(Objective objective,
                                              const OptimizerOptions& base = {});

/// Run all entries concurrently on one shared BoundFacts; the first
/// complete finisher interrupts the rest, and the best answer among all
/// entries that completed within that grace window is returned (objective
/// value first, wall-clock as tie-break).
PortfolioResult synthesize_portfolio(const Problem& problem,
                                     Objective objective,
                                     std::vector<PortfolioEntry> entries);

}  // namespace olsq2::layout
