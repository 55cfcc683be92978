// Deep structural self-checks for the CDCL solver (Solver::check_invariants
// and the opt-in auditing hook). Kept out of solver.cpp so the hot solving
// path and the audit machinery evolve independently.
//
// The audited invariants:
//   Watch lists
//     W1  every watcher references a live (attached) clause;
//     W2  every stored clause of size >= 2 has exactly two watchers, sitting
//         in the lists of the negations of its first two literals;
//     W3  a watcher's blocker is a literal of its clause;
//     W4  at a propagation fixpoint, a false watched literal implies the
//         clause is satisfied by a literal assigned at an earlier-or-equal
//         level (the two-watched-literal scheme's soundness condition);
//     W5  binary clauses are watched from the dedicated binary lists,
//         longer clauses from the standard lists.
//   Trail / levels
//     T1  qhead_ <= trail size; level marks are monotone and in range;
//     T2  every trail literal is true, assigned at the level of its trail
//         segment, and no variable appears twice;
//     T3  every assigned variable is on the trail (and vice versa).
//   Reasons
//     R1  a reason clause is live, has its implied literal first, and that
//         literal is true;
//     R2  all other literals of a reason are false at levels <= the implied
//         literal's level (the implication was and stays valid).
//   Tiers / arena
//     D1  each clause ref appears in exactly one list; originals are
//         non-learnt, learnts carry the learnt flag and a tier field that
//         matches their containing tier list; num_original_clauses_ equals
//         the originals list size (inprocessing accounting);
//     D2  no live ref is freed or forwarded, and the arena's accounting
//         balances: live words + wasted words == bump pointer.
#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "analysis/concurrency/lock_order.h"
#include "sat/solver.h"

namespace olsq2::sat {

namespace {

std::string lit_to_string(Lit l) {
  return (l.sign() ? "~x" : "x") + std::to_string(l.var());
}

}  // namespace

bool Solver::check_invariants(std::vector<std::string>* errors) const {
  constexpr std::size_t kMaxErrors = 16;
  bool ok = true;
  auto fail = [&](const std::string& message) {
    ok = false;
    if (errors != nullptr && errors->size() < kMaxErrors) {
      errors->push_back(message);
    }
  };

  // Live clause set (everything attached) and the D1/D2 list checks.
  std::unordered_set<CRef> live;
  live.reserve(clauses_.size() + static_cast<std::size_t>(num_learnts()));
  std::uint64_t live_words = 0;
  struct ListSpec {
    const std::vector<CRef>* list;
    const char* name;
    bool learnt;
    Tier tier;
  };
  const ListSpec lists[] = {
      {&clauses_, "originals", false, Tier::kCore},
      {&learnts_core_, "core", true, Tier::kCore},
      {&learnts_tier2_, "tier2", true, Tier::kTier2},
      {&learnts_local_, "local", true, Tier::kLocal},
  };
  for (const ListSpec& spec : lists) {
    for (const CRef cr : *spec.list) {
      if (cr >= arena_.size_words()) {
        fail(std::string("D2: ref in ") + spec.name + " list out of arena");
        continue;
      }
      const ClauseData& c = arena_[cr];
      if (c.freed() || c.reloced()) {
        fail(std::string("D2: ") + spec.name +
             " list holds a freed/forwarded clause ref");
        continue;
      }
      if (!live.insert(cr).second) {
        fail("D1: clause ref " + std::to_string(cr) +
             " appears in more than one list");
        continue;
      }
      live_words += ClauseArena::clause_words(c.size());
      if (c.learnt() != spec.learnt) {
        fail(std::string("D1: ") + spec.name + " list holds a clause with " +
             (c.learnt() ? "the" : "no") + " learnt flag");
      }
      if (spec.learnt && c.tier() != spec.tier) {
        fail(std::string("D1: clause in ") + spec.name +
             " list has mismatched header tier " +
             std::to_string(static_cast<int>(c.tier())));
      }
    }
  }
  if (live_words + arena_.wasted_words() != arena_.size_words()) {
    fail("D2: arena accounting off: live " + std::to_string(live_words) +
         " + wasted " + std::to_string(arena_.wasted_words()) +
         " != top " + std::to_string(arena_.size_words()));
  }
  if (arena_.live_clauses() != live.size()) {
    fail("D2: arena live-clause count " +
         std::to_string(arena_.live_clauses()) + " != listed clauses " +
         std::to_string(live.size()));
  }
  if (num_original_clauses_ != static_cast<std::int64_t>(clauses_.size())) {
    fail("D1: num_original_clauses_ " + std::to_string(num_original_clauses_) +
         " != originals list size " + std::to_string(clauses_.size()) +
         " (inprocessing drop/promotion accounting drifted)");
  }

  // One pass over the watch lists: W1/W3 per watcher, and an index of
  // which literal lists each clause is watched from (for W2).
  std::unordered_map<CRef, std::vector<std::int32_t>> watched_at;
  watched_at.reserve(live.size());
  for (const bool binary_lists : {false, true}) {
    const auto& lists = binary_lists ? watches_bin_ : watches_;
    for (std::int32_t code = 0; code < 2 * num_vars(); ++code) {
      for (const Watcher& w : lists[static_cast<std::size_t>(code)]) {
        if (live.count(w.cref) == 0) {
          fail("W1: stale watcher on literal list " + std::to_string(code) +
               " references a removed clause");
          continue;
        }
        watched_at[w.cref].push_back(code);
        const ClauseData& c = arena_[w.cref];
        // Binary clauses are watched exclusively from the binary lists
        // (propagation decides on the watcher alone), longer ones from the
        // standard lists.
        if ((c.size() == 2) != binary_lists) {
          fail("W5: clause of size " + std::to_string(c.size()) +
               " watched from the " +
               (binary_lists ? "binary" : "standard") + " lists");
        }
        const auto lits = c.literals();
        if (std::find(lits.begin(), lits.end(), w.blocker) == lits.end()) {
          fail("W3: blocker " + lit_to_string(w.blocker) +
               " is not a literal of its watched clause");
        }
      }
    }
  }

  const bool at_fixpoint = qhead_ == trail_.size() && ok_;
  for (const CRef cr : live) {
    const ClauseData& c = arena_[cr];
    const auto lits = c.literals();
    if (lits.size() < 2) {
      fail("W2: stored clause of size " + std::to_string(lits.size()) +
           " (units must live on the trail, empties flip ok_)");
      continue;
    }
    const auto it = watched_at.find(cr);
    const std::size_t watcher_count =
        it == watched_at.end() ? 0 : it->second.size();
    if (watcher_count != 2) {
      fail("W2: clause watched " + std::to_string(watcher_count) +
           " times (expected exactly 2), first lits " +
           lit_to_string(lits[0]) + " " + lit_to_string(lits[1]));
      continue;
    }
    std::vector<std::int32_t> expected = {(~lits[0]).code(),
                                          (~lits[1]).code()};
    std::vector<std::int32_t> actual = it->second;
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    if (expected != actual) {
      fail("W2: clause watched on lists {" + std::to_string(actual[0]) + "," +
           std::to_string(actual[1]) + "} but its first literals are " +
           lit_to_string(lits[0]) + " " + lit_to_string(lits[1]));
    }
    if (at_fixpoint) {
      for (int i = 0; i < 2; ++i) {
        const Lit w = lits[static_cast<std::size_t>(i)];
        if (value(w) != LBool::kFalse) continue;
        bool satisfied_earlier = false;
        for (const Lit l : lits) {
          if (value(l) == LBool::kTrue && level(l.var()) <= level(w.var())) {
            satisfied_earlier = true;
            break;
          }
        }
        if (!satisfied_earlier) {
          fail("W4: watched literal " + lit_to_string(w) +
               " is false at level " + std::to_string(level(w.var())) +
               " but the clause is not satisfied at or before that level");
        }
      }
    }
  }

  // Trail and level consistency.
  if (qhead_ > trail_.size()) {
    fail("T1: qhead " + std::to_string(qhead_) + " beyond trail size " +
         std::to_string(trail_.size()));
  }
  for (std::size_t i = 0; i < trail_lim_.size(); ++i) {
    const int mark = trail_lim_[i];
    if (mark < 0 || static_cast<std::size_t>(mark) > trail_.size() ||
        (i > 0 && mark < trail_lim_[i - 1])) {
      fail("T1: trail level mark " + std::to_string(i) +
           " out of order or range (" + std::to_string(mark) + ")");
    }
  }
  std::unordered_set<Var> on_trail;
  on_trail.reserve(trail_.size());
  for (std::size_t i = 0; i < trail_.size(); ++i) {
    const Lit l = trail_[i];
    const Var v = l.var();
    if (v < 0 || v >= num_vars()) {
      fail("T2: trail entry " + std::to_string(i) + " names bad variable");
      continue;
    }
    if (!on_trail.insert(v).second) {
      fail("T2: variable x" + std::to_string(v) + " appears twice on trail");
    }
    if (value(l) != LBool::kTrue) {
      fail("T2: trail literal " + lit_to_string(l) + " is not true");
    }
    // The level of a trail entry is the number of level marks at or below
    // its index.
    const int expected_level = static_cast<int>(
        std::upper_bound(trail_lim_.begin(), trail_lim_.end(),
                         static_cast<int>(i)) -
        trail_lim_.begin());
    if (level(v) != expected_level) {
      fail("T2: " + lit_to_string(l) + " recorded at level " +
           std::to_string(level(v)) + " but sits in trail segment " +
           std::to_string(expected_level));
    }
  }
  for (Var v = 0; v < num_vars(); ++v) {
    if (assigns_[static_cast<std::size_t>(v)] != LBool::kUndef &&
        on_trail.count(v) == 0) {
      fail("T3: variable x" + std::to_string(v) +
           " is assigned but missing from the trail");
    }
  }

  // Reason-clause sanity.
  for (const Lit l : trail_) {
    const Var v = l.var();
    const CRef reason_ref = reasons_[static_cast<std::size_t>(v)];
    if (reason_ref == kCRefUndef) continue;
    if (live.count(reason_ref) == 0) {
      fail("R1: reason for x" + std::to_string(v) + " is a removed clause");
      continue;
    }
    const ClauseData& reason = arena_[reason_ref];
    const auto lits = reason.literals();
    if (lits.empty() || lits[0].var() != v) {
      fail("R1: reason for x" + std::to_string(v) +
           " does not have the implied literal first");
      continue;
    }
    if (value(lits[0]) != LBool::kTrue) {
      fail("R1: implied literal " + lit_to_string(lits[0]) + " is not true");
    }
    for (std::size_t i = 1; i < lits.size(); ++i) {
      if (value(lits[i]) != LBool::kFalse) {
        fail("R2: reason literal " + lit_to_string(lits[i]) + " for x" +
             std::to_string(v) + " is not false");
      } else if (level(lits[i].var()) > level(v)) {
        fail("R2: reason literal " + lit_to_string(lits[i]) +
             " assigned at level " + std::to_string(level(lits[i].var())) +
             " after the implied literal's level " +
             std::to_string(level(v)));
      }
    }
  }

  return ok;
}

void Solver::audit_invariants(const char* where) const {
  if (!check_invariants_enabled_) return;
  // The audit walks every watch list, the trail, and all reason clauses -
  // a long, allocation-heavy traversal of this thread's solver. Contract:
  // it runs with no concurrency-contract locks held, so its cost never
  // extends another thread's wait. The lock-order tracker enforces this in
  // debug runs; see DESIGN.md §11 for the hierarchy.
  if (analysis::concurrency::enabled() &&
      analysis::concurrency::held_count() != 0) {
    throw std::logic_error(
        std::string("sat::Solver invariant audit at ") + where +
        " entered with a concurrency-contract lock held; audits must run "
        "lock-free (DESIGN.md §11)");
  }
  std::vector<std::string> errors;
  if (check_invariants(&errors)) return;
  std::ostringstream message;
  message << "sat::Solver invariant violation at " << where << ":";
  for (const std::string& e : errors) message << "\n  " << e;
  throw std::logic_error(message.str());
}

}  // namespace olsq2::sat
