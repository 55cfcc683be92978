// Bump-allocated clause arena with 32-bit clause references.
//
// The CDCL hot loop is propagation, and propagation is memory-bound: with
// one heap allocation per clause (the seed's vector<unique_ptr<ClauseData>>)
// watch-list traversal chases 8-byte pointers into allocator-scattered
// nodes, each with a further indirection to a separately-allocated literal
// vector. The arena packs every clause - a 3-word in-place header (size;
// learnt/tier/used/lbd bits; activity) followed by its literals - into one
// contiguous uint32 buffer addressed by 32-bit offsets (CRef). Watchers
// shrink from 16 to 8 bytes, clause headers and literals share the cache
// line the watcher miss already paid for, and deleting a clause is O(1)
// waste accounting deferred to a compacting GC.
//
// References are offsets, not pointers: the buffer may grow (amortized
// doubling) and the GC may compact, so a CRef is stable only between those
// points and a ClauseData& must never be held across an alloc() or
// garbage collection. The GC protocol (Solver::garbage_collect) copies
// every live clause into a fresh arena via reloc(), which installs a
// forwarding reference in the old header so the multiple owners of one
// clause (two watchers, a reason slot, tier lists) all land on the same
// copy.
//
// Thread-compatibility: an arena belongs to exactly one solver and is
// confined to its solving thread; no atomics, no locks (DESIGN.md §12).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>

#include "sat/types.h"

namespace olsq2::sat {

/// Arena clause reference: word offset of the clause header. Stable until
/// the next garbage collection; kCRefUndef is the null reference.
using CRef = std::uint32_t;
inline constexpr CRef kCRefUndef = 0xFFFFFFFFu;

/// Learnt-clause tiers (Chanseok-Oh style three-tier DB). Core clauses are
/// proven glue (low LBD) and survive reductions; tier2 holds mid-quality
/// clauses demoted to local when they stop participating in conflicts;
/// local is the high-churn pool reduce_db() halves by activity.
enum class Tier : std::uint8_t { kCore = 0, kTier2 = 1, kLocal = 2 };

/// In-arena clause: 3 header words + the literal array, constructed in
/// place by ClauseArena::alloc. Never constructed or copied directly.
class ClauseData {
 public:
  static constexpr std::uint32_t kHeaderWords = 3;
  /// LBD is stored saturated to 24 bits - far above any real LBD.
  static constexpr unsigned kMaxLbd = (1u << 24) - 1;

  std::uint32_t size() const { return size_; }
  Lit operator[](std::uint32_t i) const { return lits()[i]; }
  Lit& operator[](std::uint32_t i) { return lits()[i]; }
  Lit* lits() {
    return reinterpret_cast<Lit*>(reinterpret_cast<std::uint32_t*>(this) +
                                  kHeaderWords);
  }
  const Lit* lits() const {
    return reinterpret_cast<const Lit*>(
        reinterpret_cast<const std::uint32_t*>(this) + kHeaderWords);
  }
  std::span<const Lit> literals() const { return {lits(), size_}; }

  bool learnt() const { return (info_ & kLearntBit) != 0; }
  /// Promote to irredundant: a learnt clause that replaces an original
  /// (e.g. by subsuming it) must survive reduce_db, so it sheds the learnt
  /// flag and moves to the solver's original-clause list.
  void clear_learnt() { info_ &= ~kLearntBit; }
  bool freed() const { return (info_ & kFreedBit) != 0; }
  bool reloced() const { return (info_ & kRelocedBit) != 0; }

  Tier tier() const { return static_cast<Tier>((info_ >> kTierShift) & 0x3u); }
  void set_tier(Tier t) {
    info_ = (info_ & ~(0x3u << kTierShift))
            | (static_cast<std::uint32_t>(t) << kTierShift);
  }

  /// Saturating usage counter (0..3): bumped when the clause participates
  /// in conflict analysis, decremented by reduce_db; a clause that reaches
  /// 0 is demoted one tier.
  unsigned used() const { return (info_ >> kUsedShift) & 0x3u; }
  void set_used(unsigned u) {
    info_ = (info_ & ~(0x3u << kUsedShift)) | ((u & 0x3u) << kUsedShift);
  }

  unsigned lbd() const { return info_ >> kLbdShift; }
  void set_lbd(unsigned lbd) {
    info_ = (info_ & ((1u << kLbdShift) - 1))
            | (std::min(lbd, kMaxLbd) << kLbdShift);
  }

  float activity() const { return extra_.act; }
  void set_activity(float a) { extra_.act = a; }

  /// Forwarding reference installed by the GC; valid only when reloced().
  CRef relocation() const {
    assert(reloced());
    return extra_.rel;
  }
  void set_relocation(CRef r) {
    info_ |= kRelocedBit;
    extra_.rel = r;
  }

  /// In-place strengthening: drop the literal at index i (order of the
  /// remaining literals is preserved). The arena's waste accounting is the
  /// caller's job (ClauseArena::note_shrink).
  void remove_literal(std::uint32_t i) {
    assert(i < size_);
    Lit* ls = lits();
    for (std::uint32_t k = i + 1; k < size_; ++k) ls[k - 1] = ls[k];
    size_--;
  }

 private:
  friend class ClauseArena;

  static constexpr std::uint32_t kLearntBit = 1u << 0;
  static constexpr std::uint32_t kFreedBit = 1u << 1;
  static constexpr std::uint32_t kRelocedBit = 1u << 2;
  static constexpr std::uint32_t kTierShift = 3;   // 2 bits
  static constexpr std::uint32_t kUsedShift = 5;   // 2 bits
  static constexpr std::uint32_t kLbdShift = 8;    // 24 bits

  std::uint32_t size_;
  std::uint32_t info_;
  union Extra {
    float act;
    std::uint32_t rel;
  } extra_;
};
static_assert(sizeof(ClauseData) == ClauseData::kHeaderWords * 4,
              "header layout is load-bearing: literals follow the header");
static_assert(sizeof(Lit) == 4, "arena stores literals as single words");

class ClauseArena {
 public:
  ClauseArena() = default;
  explicit ClauseArena(std::uint32_t capacity_words) { reserve(capacity_words); }
  ClauseArena(ClauseArena&&) = default;
  ClauseArena& operator=(ClauseArena&&) = default;
  ClauseArena(const ClauseArena&) = delete;
  ClauseArena& operator=(const ClauseArena&) = delete;

  static constexpr std::uint32_t clause_words(std::uint32_t num_lits) {
    return ClauseData::kHeaderWords + num_lits;
  }

  /// Allocate a clause; grows the buffer when needed (OOM-growth path:
  /// amortized doubling, contents preserved, all CRefs stay valid).
  CRef alloc(std::span<const Lit> lits, bool learnt, unsigned lbd, Tier tier) {
    assert(lits.size() >= 2);
    const std::uint32_t words =
        clause_words(static_cast<std::uint32_t>(lits.size()));
    if (top_ + words > cap_) grow(top_ + words);
    const CRef ref = top_;
    top_ += words;
    auto* c = new (mem_.get() + ref) ClauseData();
    c->size_ = static_cast<std::uint32_t>(lits.size());
    c->info_ = learnt ? ClauseData::kLearntBit : 0;
    c->set_tier(tier);
    c->set_lbd(lbd);
    c->extra_.act = 0.0f;
    std::memcpy(c->lits(), lits.data(), lits.size() * sizeof(Lit));
    live_clauses_++;
    return ref;
  }

  ClauseData& operator[](CRef ref) {
    assert(ref < top_);
    return *reinterpret_cast<ClauseData*>(mem_.get() + ref);
  }
  const ClauseData& operator[](CRef ref) const {
    assert(ref < top_);
    return *reinterpret_cast<const ClauseData*>(mem_.get() + ref);
  }

  /// Mark a clause dead. O(1): the words are reclaimed by the next GC.
  void free_clause(CRef ref) {
    ClauseData& c = (*this)[ref];
    assert(!c.freed());
    c.info_ |= ClauseData::kFreedBit;
    wasted_ += clause_words(c.size());
    assert(live_clauses_ > 0);
    live_clauses_--;
  }

  /// Account for `words` literals dropped by in-place strengthening.
  void note_shrink(std::uint32_t words) { wasted_ += words; }

  /// Copy the clause behind `ref` into `to` (or follow the forwarding
  /// reference when it already moved) and update `ref` in place.
  void reloc(CRef& ref, ClauseArena& to) {
    ClauseData& c = (*this)[ref];
    if (c.reloced()) {
      ref = c.relocation();
      return;
    }
    assert(!c.freed());
    const std::uint32_t words = clause_words(c.size());
    if (to.top_ + words > to.cap_) to.grow(to.top_ + words);
    const CRef nr = to.top_;
    to.top_ += words;
    std::memcpy(to.mem_.get() + nr, mem_.get() + ref,
                words * sizeof(std::uint32_t));
    to.live_clauses_++;
    c.set_relocation(nr);
    ref = nr;
  }

  std::uint32_t size_words() const { return top_; }
  std::uint32_t wasted_words() const { return wasted_; }
  std::size_t capacity_bytes() const {
    return static_cast<std::size_t>(cap_) * sizeof(std::uint32_t);
  }
  std::size_t size_bytes() const {
    return static_cast<std::size_t>(top_) * sizeof(std::uint32_t);
  }
  std::size_t wasted_bytes() const {
    return static_cast<std::size_t>(wasted_) * sizeof(std::uint32_t);
  }
  std::uint64_t live_clauses() const { return live_clauses_; }

  /// GC trigger policy: collect once a fifth of the arena is dead weight
  /// (and enough is involved for compaction to pay for its copy).
  bool should_collect() const {
    return wasted_ > top_ / 5 && wasted_ > (1u << 12);
  }

  void reserve(std::uint32_t capacity_words) {
    if (capacity_words > cap_) grow(capacity_words);
  }

 private:
  void grow(std::uint32_t min_cap);

  std::unique_ptr<std::uint32_t[]> mem_;
  std::uint32_t cap_ = 0;
  std::uint32_t top_ = 0;
  std::uint32_t wasted_ = 0;
  std::uint64_t live_clauses_ = 0;
};

}  // namespace olsq2::sat
