#include "serve/canonical.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <numeric>
#include <tuple>
#include <utility>

#include "circuit/dependency.h"
#include "obs/obs.h"

namespace olsq2::serve {

namespace {

// Individualization-refinement node budget. Refinement discretizes most
// real coupling graphs and circuits after one or two individualizations;
// the budget only triggers on highly symmetric inputs (large grids, empty
// circuits), where the fallback costs cache hits, not correctness.
constexpr int kLeafBudget = 2048;

/// Replace arbitrary color values colors[0, n) by cell start positions:
/// each vertex gets the number of vertices of smaller color, so the order
/// of colors is kept and each color is the first position of its cell in
/// an ordered partition. Returns the number of cells. `sorted` is n
/// entries of scratch.
int cell_starts(int* colors, int n, int* sorted) {
  std::copy(colors, colors + n, sorted);
  std::sort(sorted, sorted + n);
  for (int v = 0; v < n; ++v) {
    colors[v] = static_cast<int>(
        std::lower_bound(sorted, sorted + n, colors[v]) - sorted);
  }
  return static_cast<int>(std::unique(sorted, sorted + n) - sorted);
}

/// Dense ranks of n int spans, span v = data[off[v], off[v + 1]), in
/// lexicographic order (std::vector's operator<): ranks[v] counts the
/// distinct spans ordered before v's. `order` is n entries of scratch.
/// Returns the number of distinct spans.
int rank_spans(int n, const int* off, const int* data, int* order,
               int* ranks) {
  const auto less = [&](int a, int b) {
    return std::lexicographical_compare(data + off[a], data + off[a + 1],
                                        data + off[b], data + off[b + 1]);
  };
  std::iota(order, order + n, 0);
  std::sort(order, order + n, less);
  int rank = 0;
  for (int i = 0; i < n; ++i) {
    if (i > 0 && less(order[i - 1], order[i])) ++rank;
    ranks[order[i]] = rank;
  }
  return n == 0 ? 0 : rank + 1;
}

void append_int(std::string& out, int value) {
  char buf[12];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

/// Buffers of one LabelSearch. Each canonicalizer keeps one per thread, so
/// once a thread has searched a graph of some size, searches up to that
/// size allocate nothing; nothing is shared between threads.
struct SearchScratch {
  std::vector<int> sigs;      // flat signatures, Graph::sig_offsets() spans
  std::vector<int> order;     // cell_starts scratch
  std::vector<int> cells;     // vertices grouped by cell, cells in color order
  std::vector<int> cell_end;  // cell_end[start]: one past the cell's end
  std::vector<int> queue;     // starts of the cells to re-rank this round
  std::vector<char> queued;   // per cell start: already in `queue`
  std::vector<std::pair<int, int>> split;  // [begin, end) of split cells
  std::vector<int> count;                  // class sizes
  std::vector<std::vector<int>> levels;    // colors per search depth
  std::string key;                         // candidate key of the last leaf
  std::string best_key;
  std::vector<int> best_labels;
};

/// Individualization-refinement search shared by the device and circuit
/// canonicalizers. It minimizes the serialized key over every branch, which
/// makes the result invariant: automorphic leaves yield equal keys, and
/// non-automorphic ones are separated by the lexicographic order. `Graph`
/// supplies the vertex invariants:
///   sig_offsets()              n + 1 bounds of each vertex's signature in
///                              one flat buffer, fixed for the whole search;
///   signature(v, colors, out)  v's signature under `colors`: colors[v]
///                              first, the rest label-invariant and reading
///                              only the colors of v's neighbors;
///   for_each_neighbor(v, f)    calls f(w) for each vertex w whose color
///                              v's signature reads;
///   serialize(labels, key)     the candidate key of a discrete coloring.
///
/// Colors are cell start positions of an ordered partition: a vertex's
/// color is the number of vertices in lower cells. A discrete coloring is
/// therefore a labeling 0..n-1, and a cell that does not split keeps its
/// color. Refinement is Weisfeiler-Leman to a fixpoint, computed
/// incrementally: each round re-sorts, by signature, only the
/// non-singleton cells with a member next to a cell that split in the
/// previous round, and applies the new colors after the round. This is
/// round for round the full refinement that re-ranks all n signatures:
/// every signature starts with the vertex's own color and compares the
/// others only by order, so a cell splits into the same ordered sub-cells
/// under any order-preserving recoloring; and a cell with no neighbor in a
/// split cell sees exactly the colors under which its members last had
/// equal signatures, so it cannot split. All buffers live in a
/// SearchScratch that the caller keeps per thread.
template <typename Graph>
class LabelSearch {
 public:
  LabelSearch(Graph& graph, int n, SearchScratch& scratch)
      : graph_(graph), n_(n), s_(scratch) {
    s_.sigs.resize(graph.sig_offsets().back());
    s_.order.resize(n);
    s_.cells.resize(n);
    s_.cell_end.resize(n);
    s_.queued.assign(n, 0);
    s_.count.resize(n);
    // Every level individualizes one more vertex, so a branch is at most
    // n levels deep; the reserve keeps level buffers from moving.
    s_.levels.reserve(n + 1);
    s_.best_key.clear();
  }

  /// Buffer of the n seed colors, to fill before run(). Any values; only
  /// their order matters.
  int* seed() { return level(0); }

  void run() { visit(0, cell_starts(level(0), n_, s_.order.data()), -1); }

  const std::string& best_key() const { return s_.best_key; }
  const std::vector<int>& best_labels() const { return s_.best_labels; }

  int leaves_used = 0;
  /// Refinement rounds that re-ranked at least one cell, over the search.
  int rounds = 0;
  bool budget_hit = false;

 private:
  /// Colors at search depth `depth`, n entries.
  int* level(std::size_t depth) {
    if (s_.levels.size() == depth) s_.levels.emplace_back();
    s_.levels[depth].resize(n_);
    return s_.levels[depth].data();
  }

  /// Refine `colors` (cell starts, `classes` cells) in place to the stable
  /// partition; returns its cell count. `split` is the start of the cell
  /// that individualize() just split, or -1 for a seed coloring, whose
  /// first round re-ranks every cell.
  int refine(int* colors, int classes, int split) {
    if (classes == n_) return classes;  // discrete colorings are stable
    int* cells = s_.cells.data();
    int* end = s_.cell_end.data();
    // Ordered partition of `colors`; end[c] serves as cell c's fill cursor.
    for (int v = 0; v < n_; ++v) end[colors[v]] = colors[v];
    for (int v = 0; v < n_; ++v) cells[end[colors[v]]++] = v;

    const std::vector<int>& off = graph_.sig_offsets();
    const int* sigs = s_.sigs.data();
    const auto less = [&](int a, int b) {
      return std::lexicographical_compare(sigs + off[a], sigs + off[a + 1],
                                          sigs + off[b], sigs + off[b + 1]);
    };
    bool every_cell = split < 0;
    s_.split.clear();
    if (!every_cell) s_.split.emplace_back(split, end[split + 1]);
    do {
      // Cells to re-rank: every cell in a seed's first round, else the
      // cells with a member next to a cell that split last round.
      s_.queue.clear();
      if (every_cell) {
        for (int c = 0; c < n_; c = end[c]) {
          if (end[c] - c > 1) s_.queue.push_back(c);
        }
        every_cell = false;
      } else {
        for (const auto& [begin, stop] : s_.split) {
          for (int i = begin; i < stop; ++i) {
            graph_.for_each_neighbor(cells[i], [&](int w) {
              const int c = colors[w];
              if (end[c] - c > 1 && !s_.queued[c]) {
                s_.queued[c] = 1;
                s_.queue.push_back(c);
              }
            });
          }
        }
        for (const int c : s_.queue) s_.queued[c] = 0;
      }
      if (s_.queue.empty()) break;
      ++rounds;

      // Sort each queued cell by signature under this round's colors and
      // record its sub-cells' bounds in end[].
      s_.split.clear();
      for (const int c : s_.queue) {
        const int stop = end[c];
        for (int i = c; i < stop; ++i) {
          graph_.signature(cells[i], colors, s_.sigs.data() + off[cells[i]]);
        }
        std::sort(cells + c, cells + stop, less);
        int start = c;
        for (int i = c + 1; i < stop; ++i) {
          if (!less(cells[i - 1], cells[i])) continue;
          end[start] = i;
          start = i;
          ++classes;
        }
        if (start == c) continue;
        end[start] = stop;
        s_.split.emplace_back(c, stop);
      }
      if (s_.split.empty()) break;
      // Only now recolor: each sub-cell's members take its start.
      for (const auto& [begin, stop] : s_.split) {
        for (int c = begin; c < stop; c = end[c]) {
          for (int i = c; i < end[c]; ++i) colors[cells[i]] = c;
        }
      }
    } while (classes < n_);
    return classes;
  }

  /// First color class with more than one member; -1 when discrete.
  /// Classes are scanned in color order, so the choice is label-invariant.
  int first_ambiguous_class(const int* colors) {
    std::fill(s_.count.begin(), s_.count.end(), 0);
    for (int v = 0; v < n_; ++v) ++s_.count[colors[v]];
    for (int c = 0; c < n_; ++c) {
      if (s_.count[c] > 1) return c;
    }
    return -1;
  }

  /// Split class `cls` so that `v` keeps the class color and its former
  /// classmates form the next cell. `out` may alias `colors`.
  void individualize(const int* colors, int cls, int v, int* out) const {
    for (int u = 0; u < n_; ++u) {
      out[u] = colors[u] == cls && u != v ? cls + 1 : colors[u];
    }
  }

  void leaf(const int* colors) {
    ++leaves_used;
    graph_.serialize(colors, s_.key);
    if (s_.best_key.empty() || s_.key < s_.best_key) {
      s_.best_key.swap(s_.key);
      s_.best_labels.assign(colors, colors + n_);
    }
  }

  /// `split` as for refine().
  void visit(std::size_t depth, int classes, int split) {
    int* colors = s_.levels[depth].data();
    classes = refine(colors, classes, split);
    const int cls = first_ambiguous_class(colors);
    if (cls < 0) {
      leaf(colors);
      return;
    }
    if (leaves_used >= kLeafBudget) {
      // Budget exhausted: finish this branch without further branching by
      // always individualizing the lowest-index member. Deterministic and
      // sound (the key still serializes a genuine relabeling), but no
      // longer invariant under relabeling of the input.
      budget_hit = true;
      for (int c = cls; c >= 0; c = first_ambiguous_class(colors)) {
        const int pick =
            static_cast<int>(std::find(colors, colors + n_, c) - colors);
        individualize(colors, c, pick, colors);
        classes = refine(colors, classes + 1, c);
      }
      leaf(colors);
      return;
    }
    int* child = level(depth + 1);
    for (int v = 0; v < n_; ++v) {
      if (colors[v] != cls) continue;
      individualize(colors, cls, v, child);
      visit(depth + 1, classes + 1, cls);
      if (budget_hit) return;  // the fallback leaf already closed this run
    }
  }

  Graph& graph_;
  int n_;
  SearchScratch& s_;
};

/// DeviceGraph's buffers, kept per thread like SearchScratch.
struct DeviceScratch {
  std::vector<int> adj_off;  // neighbors of v: adj[adj_off[v], adj_off[v+1])
  std::vector<int> adj;
  std::vector<int> fill;
  std::vector<int> sig_off;
  std::vector<std::pair<int, int>> pairs;  // serialize scratch
};

/// Coupling graph in CSR form. Signature of v: its color, then its
/// neighbors' colors in increasing order.
class DeviceGraph {
 public:
  DeviceGraph(int n, std::span<const device::Edge> edges,
              DeviceScratch& scratch)
      : n_(n), edges_(edges), s_(scratch) {
    s_.adj_off.assign(n + 1, 0);
    for (const device::Edge& e : edges) {
      ++s_.adj_off[e.p0 + 1];
      ++s_.adj_off[e.p1 + 1];
    }
    std::partial_sum(s_.adj_off.begin(), s_.adj_off.end(),
                     s_.adj_off.begin());
    s_.adj.resize(s_.adj_off[n]);
    s_.fill.assign(s_.adj_off.begin(), s_.adj_off.end() - 1);
    for (const device::Edge& e : edges) {
      s_.adj[s_.fill[e.p0]++] = e.p1;
      s_.adj[s_.fill[e.p1]++] = e.p0;
    }
    s_.sig_off.resize(n + 1);
    for (int v = 0; v <= n; ++v) s_.sig_off[v] = s_.adj_off[v] + v;
  }

  int degree(int v) const { return s_.adj_off[v + 1] - s_.adj_off[v]; }
  const std::vector<int>& sig_offsets() const { return s_.sig_off; }

  /// Calls f on each neighbor of v.
  template <typename F>
  void for_each_neighbor(int v, F f) const {
    for (int i = s_.adj_off[v]; i < s_.adj_off[v + 1]; ++i) f(s_.adj[i]);
  }

  void signature(int v, const int* colors, int* out) const {
    *out++ = colors[v];
    int* end = out;
    for (int i = s_.adj_off[v]; i < s_.adj_off[v + 1]; ++i) {
      *end++ = colors[s_.adj[i]];
    }
    std::sort(out, end);
  }

  /// "D<n>:" then the relabeled edges "a-b" (a < b), sorted, ','-joined.
  void serialize(const int* labels, std::string& key) {
    s_.pairs.clear();
    for (const device::Edge& e : edges_) {
      const int a = labels[e.p0];
      const int b = labels[e.p1];
      s_.pairs.emplace_back(std::min(a, b), std::max(a, b));
    }
    std::sort(s_.pairs.begin(), s_.pairs.end());
    key.clear();
    key += 'D';
    append_int(key, n_);
    key += ':';
    for (std::size_t i = 0; i < s_.pairs.size(); ++i) {
      if (i) key += ',';
      append_int(key, s_.pairs[i].first);
      key += '-';
      append_int(key, s_.pairs[i].second);
    }
  }

 private:
  int n_;
  std::span<const device::Edge> edges_;
  DeviceScratch& s_;
};

/// Circuit as per-qubit gate-occurrence lists. One occurrence is (level,
/// gate token, partner): the level is the gate's longest dependency chain
/// (invariant under commuting reorder), the token a dense rank of
/// "name(params)". The operand position (q0 vs q1) is deliberately NOT part
/// of the invariant: layout synthesis only constrains the mapped pair's
/// adjacency, so the canonical form also quotients by two-qubit operand
/// orientation.
///
/// Search vertices are the touched qubits only (index i = rank among the
/// qubits some gate acts on). Untouched qubits are fully interchangeable:
/// they appear in no gate, so any assignment of the trailing labels yields
/// the same canonical gate list, and excluding them keeps empty-ish
/// circuits from exploding the branch factor. Signature of i: its color,
/// then its occurrences as sorted (level, token, partner color) triples.
class CircuitGraph {
 public:
  explicit CircuitGraph(const circuit::Circuit& circ)
      : circ_(circ),
        nq_(circ.num_qubits()),
        ng_(circ.num_gates()),
        level_(ng_),
        token_(ng_),
        gate_keys_(ng_) {
    const circuit::DependencyGraph deps(circ);
    std::vector<std::string> names(ng_);
    for (int g = 0; g < ng_; ++g) {
      const circuit::Gate& gate = circ.gate(g);
      level_[g] = deps.chain_depth(g);
      names[g] = gate.name + "(" + gate.params + ")";
    }
    std::vector<std::string> sorted(names);
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    for (int g = 0; g < ng_; ++g) {
      token_[g] = static_cast<int>(
          std::lower_bound(sorted.begin(), sorted.end(), names[g]) -
          sorted.begin());
    }

    std::vector<int> uses(nq_, 0);
    for (const circuit::Gate& gate : circ.gates()) {
      ++uses[gate.q0];
      if (gate.q1 >= 0) ++uses[gate.q1];
    }
    std::vector<int> index(nq_, -1);  // qubit -> touched index
    occ_off_.push_back(0);
    for (int q = 0; q < nq_; ++q) {
      if (uses[q] == 0) continue;
      index[q] = static_cast<int>(touched_.size());
      touched_.push_back(q);
      occ_off_.push_back(occ_off_.back() + uses[q]);
    }
    occ_.resize(occ_off_.back());
    std::vector<int> fill(occ_off_.begin(), occ_off_.end() - 1);
    for (int g = 0; g < ng_; ++g) {
      const circuit::Gate& gate = circ.gate(g);
      const int a = index[gate.q0];
      const int b = gate.q1 >= 0 ? index[gate.q1] : -1;
      occ_[fill[a]++] = {level_[g], token_[g], b};
      if (b >= 0) occ_[fill[b]++] = {level_[g], token_[g], a};
    }
    sig_off_.push_back(0);
    for (int i = 0; i < touched(); ++i) {
      std::sort(occ_.begin() + occ_off_[i], occ_.begin() + occ_off_[i + 1],
                [](const Occurrence& x, const Occurrence& y) {
                  return std::tie(x.level, x.token) <
                         std::tie(y.level, y.token);
                });
      sig_off_.push_back(sig_off_.back() + 1 +
                         3 * (occ_off_[i + 1] - occ_off_[i]));
    }
  }

  int touched() const { return static_cast<int>(touched_.size()); }
  const std::vector<int>& sig_offsets() const { return sig_off_; }

  /// Calls f on the two-qubit partner of each of i's occurrences.
  template <typename F>
  void for_each_neighbor(int i, F f) const {
    for (int k = occ_off_[i]; k < occ_off_[i + 1]; ++k) {
      if (occ_[k].partner >= 0) f(occ_[k].partner);
    }
  }

  /// Seed colors: touched qubits ranked by their (level, token) lists.
  void seed_colors(int* ranks) const {
    const int nt = touched();
    std::vector<int> off(nt + 1), data, order(nt);
    data.reserve(2 * occ_.size());
    for (int i = 0; i < nt; ++i) {
      for (int k = occ_off_[i]; k < occ_off_[i + 1]; ++k) {
        data.push_back(occ_[k].level);
        data.push_back(occ_[k].token);
      }
      off[i + 1] = static_cast<int>(data.size());
    }
    rank_spans(nt, off.data(), data.data(), order.data(), ranks);
  }

  void signature(int i, const int* colors, int* out) {
    parts_.clear();
    for (int k = occ_off_[i]; k < occ_off_[i + 1]; ++k) {
      const Occurrence& o = occ_[k];
      parts_.push_back({o.level, o.token, o.partner >= 0 ? colors[o.partner]
                                                         : -1});
    }
    std::sort(parts_.begin(), parts_.end());
    *out++ = colors[i];
    for (const auto& part : parts_) {
      out = std::copy(part.begin(), part.end(), out);
    }
  }

  /// Full labeling of all qubits: touched qubits take their colors,
  /// untouched ones take the labels after them in index order (invariant:
  /// the serialized form never mentions them).
  void full_labels(const int* colors, std::vector<int>& label) const {
    label.assign(nq_, -1);
    for (int i = 0; i < touched(); ++i) label[touched_[i]] = colors[i];
    int next = touched();
    for (int q = 0; q < nq_; ++q) {
      if (label[q] < 0) label[q] = next++;
    }
  }

  /// Canonical gate order under a full qubit labeling: sort by (level,
  /// token, sorted labels). Gates sharing a level act on disjoint qubits,
  /// so the label components make the order total. Labels are compared
  /// orientation-normalized (min first), matching the serialized form.
  void gate_order(const std::vector<int>& label, std::vector<int>& order) {
    for (int g = 0; g < ng_; ++g) {
      const circuit::Gate& gate = circ_.gate(g);
      const int a = label[gate.q0];
      const int b = gate.q1 >= 0 ? label[gate.q1] : -1;
      gate_keys_[g] = {level_[g], token_[g], b >= 0 ? std::min(a, b) : a,
                       b >= 0 ? std::max(a, b) : -1};
    }
    order.resize(ng_);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](int x, int y) { return gate_keys_[x] < gate_keys_[y]; });
  }

  /// "C<nq>g<ng>:" then "level.name(params)@a,b;" per gate in canonical
  /// order.
  void serialize(const int* colors, std::string& key) {
    full_labels(colors, label_);
    gate_order(label_, order_);
    key.clear();
    key += 'C';
    append_int(key, nq_);
    key += 'g';
    append_int(key, ng_);
    key += ':';
    for (const int g : order_) {
      const circuit::Gate& gate = circ_.gate(g);
      append_int(key, level_[g]);
      key += '.';
      key += gate.name;
      if (!gate.params.empty()) {
        key += '(';
        key += gate.params;
        key += ')';
      }
      key += '@';
      append_int(key, gate_keys_[g][2]);
      if (gate_keys_[g][3] >= 0) {
        key += ',';
        append_int(key, gate_keys_[g][3]);
      }
      key += ';';
    }
  }

 private:
  struct Occurrence {
    int level;
    int token;
    int partner;  // touched index of the other operand, -1 for 1q gates
  };

  const circuit::Circuit& circ_;
  int nq_;
  int ng_;
  std::vector<int> level_;  // per gate
  std::vector<int> token_;  // per gate
  std::vector<int> touched_;
  std::vector<int> occ_off_;  // occurrences of touched i: occ_[off[i], ...)
  std::vector<Occurrence> occ_;
  std::vector<int> sig_off_;
  // Scratch.
  std::vector<std::array<int, 3>> parts_;
  std::vector<std::array<int, 4>> gate_keys_;
  std::vector<int> label_;
  std::vector<int> order_;
};

}  // namespace

std::vector<int> invert_permutation(const std::vector<int>& perm) {
  std::vector<int> inv(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    inv[perm[i]] = static_cast<int>(i);
  }
  return inv;
}

DeviceCanon canonicalize_device(int num_qubits,
                                std::span<const device::Edge> edges) {
  obs::Span span("serve.canonicalize.device");
  thread_local DeviceScratch graph_scratch;
  thread_local SearchScratch search_scratch;
  DeviceGraph graph(num_qubits, edges, graph_scratch);
  LabelSearch<DeviceGraph> search(graph, num_qubits, search_scratch);
  // Seed: degree classes.
  int* seed = search.seed();
  for (int v = 0; v < num_qubits; ++v) seed[v] = graph.degree(v);
  search.run();

  DeviceCanon canon;
  canon.perm = search.best_labels();
  canon.key = search.best_key();
  canon.exact = !search.budget_hit;
  if (span.live()) {
    span.arg("qubits", num_qubits);
    span.arg("leaves", search.leaves_used);
    span.arg("rounds", search.rounds);
    span.arg("exact", canon.exact);
  }
  return canon;
}

DeviceCanon canonicalize_device(const device::Device& dev) {
  return canonicalize_device(dev.num_qubits(), dev.edges());
}

CircuitCanon canonicalize_circuit(const circuit::Circuit& circ) {
  obs::Span span("serve.canonicalize.circuit");
  thread_local SearchScratch search_scratch;
  CircuitGraph graph(circ);
  LabelSearch<CircuitGraph> search(graph, graph.touched(), search_scratch);
  graph.seed_colors(search.seed());
  search.run();

  CircuitCanon canon;
  graph.full_labels(search.best_labels().data(), canon.qubit_perm);
  canon.key = search.best_key();
  canon.exact = !search.budget_hit;
  std::vector<int> order;
  graph.gate_order(canon.qubit_perm, order);
  canon.gate_perm.resize(order.size());
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    canon.gate_perm[order[pos]] = static_cast<int>(pos);
  }
  if (span.live()) {
    span.arg("qubits", circ.num_qubits());
    span.arg("gates", circ.num_gates());
    span.arg("leaves", search.leaves_used);
    span.arg("rounds", search.rounds);
    span.arg("exact", canon.exact);
  }
  return canon;
}

std::string InstanceCanon::instance_key() const {
  return circuit.key + "|" + device.key + "|S" + std::to_string(swap_duration);
}

InstanceCanon canonicalize(const circuit::Circuit& circuit,
                           const device::Device& device, int swap_duration) {
  obs::Span span("serve.canonicalize");
  InstanceCanon canon;
  canon.circuit = canonicalize_circuit(circuit);
  canon.device = canonicalize_device(device);
  canon.swap_duration = swap_duration;
  return canon;
}

circuit::Circuit apply_circuit_canon(const circuit::Circuit& circ,
                                     const CircuitCanon& canon) {
  circuit::Circuit out(circ.num_qubits(), "canon");
  const std::vector<int> inv = invert_permutation(canon.gate_perm);
  for (int pos = 0; pos < circ.num_gates(); ++pos) {
    const circuit::Gate& g = circ.gate(inv[pos]);
    if (g.is_two_qubit()) {
      // Orientation-normalized, matching the serialized key: equal keys
      // must yield byte-identical canonical circuits.
      const int a = canon.qubit_perm[g.q0];
      const int b = canon.qubit_perm[g.q1];
      out.add_gate(g.name, std::min(a, b), std::max(a, b), g.params);
    } else {
      out.add_gate(g.name, canon.qubit_perm[g.q0], g.params);
    }
  }
  return out;
}

std::vector<int> canonical_edge_order(const device::Device& dev,
                                      const DeviceCanon& canon) {
  std::vector<std::array<int, 3>> keyed;  // (min label, max label, edge)
  keyed.reserve(dev.num_edges());
  for (int e = 0; e < dev.num_edges(); ++e) {
    const int a = canon.perm[dev.edge(e).p0];
    const int b = canon.perm[dev.edge(e).p1];
    keyed.push_back({std::min(a, b), std::max(a, b), e});
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<int> order(keyed.size());
  for (std::size_t i = 0; i < keyed.size(); ++i) order[i] = keyed[i][2];
  return order;
}

device::Device apply_device_canon(const device::Device& dev,
                                  const DeviceCanon& canon) {
  // Sorted, so every relabeling-equivalent original builds the *identical*
  // canonical device, edge indexing included.
  std::vector<device::Edge> edges;
  edges.reserve(dev.num_edges());
  for (const int e : canonical_edge_order(dev, canon)) {
    const int a = canon.perm[dev.edge(e).p0];
    const int b = canon.perm[dev.edge(e).p1];
    edges.push_back({std::min(a, b), std::max(a, b)});
  }
  return device::Device("canon", dev.num_qubits(), std::move(edges));
}

}  // namespace olsq2::serve
