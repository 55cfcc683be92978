#include "subarch/extract.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <map>
#include <numeric>
#include <span>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "util/sync.h"

namespace olsq2::subarch {

namespace {

/// Cover-cache key component: the device name (length-prefixed), qubit
/// count and full edge list in order. Exact, like the result cache's keys
/// (DESIGN.md §10.1): a hash here could hand one device another's cover,
/// and an incomplete cover would then certify a wrong optimum. The edge
/// order is part of the key because it fixes the enumeration order and so
/// each class's representative.
std::string device_key(const device::Device& dev) {
  std::string key = std::to_string(dev.name().size()) + ":" + dev.name() +
                    "#" + std::to_string(dev.num_qubits()) + "#";
  for (const device::Edge& e : dev.edges()) {
    key += std::to_string(e.p0);
    key += '-';
    key += std::to_string(e.p1);
    key += ',';
  }
  return key;
}

struct UnionFind {
  std::vector<int> parent;
  explicit UnionFind(int n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  int find(int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  }
  void unite(int a, int b) { parent[find(a)] = find(b); }
};

bool connected_on(int n, const std::vector<device::Edge>& edges) {
  if (n <= 1) return true;
  UnionFind uf(n);
  for (const device::Edge& e : edges) uf.unite(e.p0, e.p1);
  const int root = uf.find(0);
  for (int v = 1; v < n; ++v) {
    if (uf.find(v) != root) return false;
  }
  return true;
}

/// The --inject-subarch-bug fault: a deliberately broken extractor that
/// "forgets" one coupler of every cyclic subgraph it emits. Solutions on
/// the impoverished subdevice still lift to valid full-device solutions,
/// but the reported optimum inflates whenever the dropped edge mattered -
/// exactly the lift-soundness violation fuzz::check_subarch must flag.
// NOLINTNEXTLINE(concurrency-mt-unsafe) - test-only, set before fuzzing.
bool inject_edge_drop_bug() {
  return std::getenv("OLSQ2_FUZZ_INJECT_SUBARCH_BUG") != nullptr;
}

/// Drop the last induced edge whose removal keeps the subgraph connected
/// (trees are left alone; disconnecting would break the SubDevice
/// invariant rather than model a plausible extractor bug).
void maybe_drop_edge(std::vector<device::Edge>& edges, int m) {
  if (static_cast<int>(edges.size()) < m) return;  // tree: every edge is a bridge
  for (int i = static_cast<int>(edges.size()) - 1; i >= 0; --i) {
    std::vector<device::Edge> trimmed = edges;
    trimmed.erase(trimmed.begin() + i);
    if (connected_on(m, trimmed)) {
      edges = std::move(trimmed);
      return;
    }
  }
}

/// Induced edge list of a sorted vertex set, in sub-index space.
std::vector<device::Edge> induced_edges(const device::Device& dev,
                                        const std::vector<int>& verts) {
  std::vector<device::Edge> edges;
  for (int i = 0; i < static_cast<int>(verts.size()); ++i) {
    for (int j = i + 1; j < static_cast<int>(verts.size()); ++j) {
      if (dev.adjacent(verts[i], verts[j])) edges.push_back({i, j});
    }
  }
  return edges;
}

/// ESU (Wernicke) enumeration of connected induced m-vertex subgraphs:
/// every set is emitted exactly once, rooted at its minimum vertex.
/// Extension lists live in one preallocated stack (a level's list is
/// stack_[begin, end), its children's lists are built above it), so a
/// run allocates nothing after construction.
class Esu {
 public:
  Esu(const device::Device& dev, int m, std::int64_t budget)
      : dev_(dev), m_(m), budget_(budget), seen_(dev.num_qubits(), 0) {
    // A child list is its parent's remainder plus one vertex's
    // neighbours, so level k holds at most (k + 1) * max_degree entries.
    std::size_t max_degree = 1;
    for (int v = 0; v < dev.num_qubits(); ++v) {
      max_degree = std::max(max_degree, dev.neighbors(v).size());
    }
    stack_.resize(static_cast<std::size_t>(m) * (m + 1) / 2 * max_degree);
    sub_.reserve(m);
  }

  /// Calls emit(sub) for every set; `sub` is in discovery order (root
  /// first), not sorted.
  template <typename Emit>
  bool run(Emit&& emit) {
    for (int v = 0; v < dev_.num_qubits() && !aborted_; ++v) {
      root_ = v;
      sub_.assign(1, v);
      seen_[v] = 1;
      std::size_t end = 0;
      for (const int u : dev_.neighbors(v)) {
        if (u > v) {
          stack_[end++] = u;
          seen_[u] = 1;
        }
      }
      extend(0, end, emit);
      for (std::size_t i = 0; i < end; ++i) seen_[stack_[i]] = 0;
      seen_[v] = 0;
    }
    return !aborted_;
  }

  std::int64_t enumerated() const { return enumerated_; }

 private:
  template <typename Emit>
  void visit(Emit& emit) {
    ++enumerated_;
    if (enumerated_ > budget_) {
      aborted_ = true;
      return;
    }
    emit(std::span<const int>(sub_));
  }

  template <typename Emit>
  void extend(std::size_t begin, std::size_t end, Emit& emit) {
    if (static_cast<int>(sub_.size()) == m_) {  // m == 1: the root alone
      visit(emit);
      return;
    }
    // One vertex short: every w completes a set, no child list needed.
    const bool completes = static_cast<int>(sub_.size()) + 1 == m_;
    const std::size_t top = end;
    while (end > begin && !aborted_) {
      const int w = stack_[--end];
      sub_.push_back(w);
      if (completes) {
        visit(emit);
        sub_.pop_back();
        continue;
      }
      // Extension of the child: remaining ext plus w's exclusive
      // neighbors (unseen, above the root). `seen_` marks sub ∪ N(sub) ∪
      // ext, so each vertex enters at most one extension list per branch.
      std::size_t child_end =
          std::copy(stack_.begin() + static_cast<std::ptrdiff_t>(begin),
                    stack_.begin() + static_cast<std::ptrdiff_t>(end),
                    stack_.begin() + static_cast<std::ptrdiff_t>(top)) -
          stack_.begin();
      const std::size_t newly_seen = child_end;
      for (const int u : dev_.neighbors(w)) {
        if (u > root_ && !seen_[u]) {
          stack_[child_end++] = u;
          seen_[u] = 1;
        }
      }
      extend(top, child_end, emit);
      sub_.pop_back();
      for (std::size_t i = newly_seen; i < child_end; ++i) {
        seen_[stack_[i]] = 0;
      }
    }
  }

  const device::Device& dev_;
  int m_;
  std::int64_t budget_;
  std::vector<char> seen_;
  std::vector<int> stack_;
  std::vector<int> sub_;
  int root_ = 0;
  std::int64_t enumerated_ = 0;
  bool aborted_ = false;
};

/// Induced edges of an m-vertex set as packed bits: bit t is set iff the
/// t-th sub-index pair (i < j, in the lexicographic order induced_edges
/// emits) is a coupler. Within one cover m is fixed, so the signature and
/// the relabeled edge list determine each other; two words hold every
/// pair for m <= kMaxSignatureQubits.
struct Signature {
  std::array<std::uint64_t, 2> words{};

  void set(int t) { words[t >> 6] |= std::uint64_t{1} << (t & 63); }
  bool test(int t) const { return ((words[t >> 6] >> (t & 63)) & 1U) != 0; }
  bool operator==(const Signature&) const = default;
};

constexpr int kMaxSignatureQubits = 16;  // 16 * 15 / 2 = 120 pairs <= 128

struct SignatureHash {
  std::size_t operator()(const Signature& s) const {
    // splitmix64 finalizer over both words.
    std::uint64_t h = s.words[0] ^ (s.words[1] * 0x9e3779b97f4a7c15ULL);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return static_cast<std::size_t>(h);
  }
};

/// Signature of a sorted vertex set, read off the adjacency bit rows.
Signature signature_of(const device::Device& dev, std::span<const int> verts) {
  Signature sig;
  const int m = static_cast<int>(verts.size());
  int t = 0;
  for (int i = 0; i < m; ++i) {
    for (int j = i + 1; j < m; ++j, ++t) {
      if (dev.adjacent(verts[i], verts[j])) sig.set(t);
    }
  }
  return sig;
}

std::vector<device::Edge> edges_of(const Signature& sig, int m) {
  std::vector<device::Edge> edges;
  int t = 0;
  for (int i = 0; i < m; ++i) {
    for (int j = i + 1; j < m; ++j, ++t) {
      if (sig.test(t)) edges.push_back({i, j});
    }
  }
  return edges;
}

Signature signature_of(const std::vector<device::Edge>& edges, int m) {
  Signature sig;
  for (const device::Edge& e : edges) {
    // Pairs before row i: i*m - i*(i+1)/2; then j - i - 1 within row i.
    sig.set(e.p0 * m - e.p0 * (e.p0 + 1) / 2 + e.p1 - e.p0 - 1);
  }
  return sig;
}

Cover enumerate_uncached(const device::Device& dev, int m,
                         const ExtractOptions& options) {
  Cover cover;
  cover.size = m;
  if (m < 1 || m > dev.num_qubits() || m > options.max_sub_qubits ||
      m > kMaxSignatureQubits) {
    return cover;  // complete=false: caller falls back
  }

  // Two-level dedupe. Lattice devices produce thousands of *translated*
  // copies of each shape whose relabeled edge lists are literally equal;
  // those collapse on the packed signature (a bit-row read, a hash
  // lookup, no allocation) without touching the canonicalizer. Only one
  // representative per signature pays for WL + individualization, and
  // signatures merge into classes by canonical key. Only a new class
  // builds its subdevice.
  std::unordered_map<Signature, std::size_t, SignatureHash> by_signature;
  std::map<std::string, std::size_t> by_key;  // canon key -> class index
  bool all_exact = true;
  const bool drop_edge = inject_edge_drop_bug();
  std::array<int, kMaxSignatureQubits> sorted{};
  const std::span<int> verts(sorted.data(), static_cast<std::size_t>(m));

  Esu esu(dev, m, options.max_subgraphs);
  const bool finished = esu.run([&](std::span<const int> sub) {
    std::copy(sub.begin(), sub.end(), verts.begin());
    std::sort(verts.begin(), verts.end());
    Signature sig = signature_of(dev, verts);
    if (drop_edge) {
      std::vector<device::Edge> edges = edges_of(sig, m);
      maybe_drop_edge(edges, m);
      sig = signature_of(edges, m);
    }
    const auto [slot, fresh] = by_signature.try_emplace(sig, 0);
    if (!fresh) {
      ++cover.classes[slot->second].members;
      return;
    }
    std::vector<device::Edge> edges = edges_of(sig, m);
    serve::DeviceCanon canon = serve::canonicalize_device(m, edges);
    all_exact = all_exact && canon.exact;
    if (const auto it = by_key.find(canon.key); it != by_key.end()) {
      slot->second = it->second;
      ++cover.classes[it->second].members;
      return;
    }
    CoverClass cls;
    cls.induced_edges = static_cast<int>(edges.size());
    cls.rep.device = device::Device("sub", m, std::move(edges));
    cls.rep.to_full.assign(verts.begin(), verts.end());
    cls.canon = std::move(canon);
    cls.members = 1;
    slot->second = cover.classes.size();
    by_key.emplace(cls.canon.key, cover.classes.size());
    cover.classes.push_back(std::move(cls));
  });

  cover.enumerated = esu.enumerated();
  cover.complete = finished && all_exact;

  // Densest-first pruning order: a SAT embedding ends the ladder round,
  // and denser classes host more solutions, so trying them first prunes
  // the most probes - while UNSAT rounds still visit every class, which
  // is what makes the cover optimality-preserving (§14.2).
  std::stable_sort(cover.classes.begin(), cover.classes.end(),
                   [](const CoverClass& a, const CoverClass& b) {
                     if (a.induced_edges != b.induced_edges) {
                       return a.induced_edges > b.induced_edges;
                     }
                     if (a.members != b.members) return a.members > b.members;
                     return a.canon.key < b.canon.key;
                   });
  return cover;
}

/// Covers by device key, then by size and options: the (long) device key
/// is stored once per device, not once per cover.
struct CoverCache {
  sync::Mutex mutex{"subarch.cover"};
  std::map<std::string, std::map<std::string, std::shared_ptr<const Cover>>>
      covers OLSQ2_GUARDED_BY(mutex);
};

CoverCache& cover_cache() {
  static CoverCache* cache = new CoverCache();
  return *cache;
}

}  // namespace

std::shared_ptr<const Cover> enumerate_cover(const device::Device& dev,
                                             int m,
                                             const ExtractOptions& options) {
  obs::Span span("subarch.extract");
  const std::string dev_key = device_key(dev);
  const std::string key = std::to_string(m) + ":" +
                          std::to_string(options.max_subgraphs) + ":" +
                          std::to_string(options.max_sub_qubits) +
                          (inject_edge_drop_bug() ? ":bugged" : "");
  CoverCache& cache = cover_cache();
  {
    sync::MutexLock lock(cache.mutex);
    const auto& per_device = cache.covers[dev_key];
    if (const auto it = per_device.find(key); it != per_device.end()) {
      if (obs::metrics::enabled()) {
        obs::metrics::Registry::instance()
            .counter("subarch_cover_cache_hits_total",
                     "Cover enumerations answered from the process cache")
            .inc();
      }
      if (span.live()) {
        span.arg("m", m);
        span.arg("cached", true);
      }
      return it->second;
    }
  }
  auto cover =
      std::make_shared<const Cover>(enumerate_uncached(dev, m, options));
  if (span.live()) {
    span.arg("m", m);
    span.arg("cached", false);
    span.arg("sets", cover->enumerated);
    span.arg("classes", static_cast<std::int64_t>(cover->classes.size()));
    span.arg("complete", cover->complete);
  }
  sync::MutexLock lock(cache.mutex);
  return cache.covers[dev_key].emplace(key, std::move(cover)).first->second;
}

bool interaction_connected(const circuit::Circuit& circuit) {
  UnionFind uf(circuit.num_qubits());
  std::vector<char> interacts(circuit.num_qubits(), 0);
  int two_qubit = 0;
  for (const circuit::Gate& g : circuit.gates()) {
    if (!g.is_two_qubit()) continue;
    ++two_qubit;
    interacts[g.q0] = 1;
    interacts[g.q1] = 1;
    uf.unite(g.q0, g.q1);
  }
  if (two_qubit == 0) return false;
  int root = -1;
  for (int q = 0; q < circuit.num_qubits(); ++q) {
    if (!interacts[q]) continue;
    if (root < 0) {
      root = uf.find(q);
    } else if (uf.find(q) != root) {
      return false;
    }
  }
  return true;
}

std::optional<std::vector<int>> spanning_embedding(const device::Device& sub,
                                                   const device::Device& host) {
  const int m = sub.num_qubits();
  if (host.num_qubits() != m || m > kMaxSignatureQubits ||
      sub.num_edges() > host.num_edges()) {
    return std::nullopt;
  }
  if (m == 0) return std::vector<int>{};
  // One adjacency bit row per qubit; bit w of a candidate row is host w.
  using Row = std::uint32_t;
  const auto rows = [](const device::Device& dev) {
    std::array<Row, kMaxSignatureQubits> adj{};
    for (const device::Edge& e : dev.edges()) {
      adj[e.p0] |= Row{1} << e.p1;
      adj[e.p1] |= Row{1} << e.p0;
    }
    return adj;
  };
  const std::array<Row, kMaxSignatureQubits> sub_adj = rows(sub);
  const std::array<Row, kMaxSignatureQubits> host_adj = rows(host);

  // Degree filter: v may only land on host qubits of at least its degree.
  std::array<Row, kMaxSignatureQubits> allowed{};
  for (int v = 0; v < m; ++v) {
    for (int w = 0; w < m; ++w) {
      if (std::popcount(host_adj[w]) >= std::popcount(sub_adj[v])) {
        allowed[v] |= Row{1} << w;
      }
    }
    if (allowed[v] == 0) return std::nullopt;
  }

  // Placement order: next is the unplaced qubit with the most placed
  // neighbours (then the highest degree), so each choice is checked
  // against as many placed couplers as possible. before[i] holds the
  // qubits placed ahead of order[i].
  std::array<int, kMaxSignatureQubits> order{};
  std::array<Row, kMaxSignatureQubits> before{};
  Row placed = 0;
  for (int i = 0; i < m; ++i) {
    int best = -1;
    std::pair<int, int> best_rank{-1, -1};
    for (int v = 0; v < m; ++v) {
      if ((placed >> v) & 1U) continue;
      const std::pair<int, int> rank{std::popcount(sub_adj[v] & placed),
                                     std::popcount(sub_adj[v])};
      if (rank > best_rank) {
        best_rank = rank;
        best = v;
      }
    }
    order[i] = best;
    before[i] = placed;
    placed |= Row{1} << best;
  }

  std::vector<int> phi(m, -1);
  Row used = 0;
  const auto candidates = [&](int i) {
    const int v = order[i];
    Row cand = allowed[v] & ~used;
    for (Row nbrs = sub_adj[v] & before[i]; nbrs != 0; nbrs &= nbrs - 1) {
      cand &= host_adj[phi[std::countr_zero(nbrs)]];
    }
    return cand;
  };
  // Depth-first backtracking with one pending candidate row per level.
  std::array<Row, kMaxSignatureQubits> pending{};
  pending[0] = candidates(0);
  for (int i = 0; i >= 0;) {
    if (pending[i] == 0) {
      if (--i >= 0) used &= ~(Row{1} << phi[order[i]]);
      continue;
    }
    const int w = std::countr_zero(pending[i]);
    pending[i] &= pending[i] - 1;
    phi[order[i]] = w;
    used |= Row{1} << w;
    if (++i == m) return phi;
    pending[i] = candidates(i);
  }
  return std::nullopt;
}

SubDevice make_subdevice(const device::Device& dev,
                         std::vector<int> vertices) {
  std::sort(vertices.begin(), vertices.end());
  const int m = static_cast<int>(vertices.size());
  SubDevice sd{device::Device("sub", m, induced_edges(dev, vertices)),
               std::move(vertices)};
  return sd;
}

}  // namespace olsq2::subarch
