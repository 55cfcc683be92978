#include "subarch/solve.h"

#include <algorithm>
#include <utility>

#include "device/distance.h"
#include "layout/tb.h"
#include "layout/verifier.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "serve/transfer.h"
#include "subarch/lift.h"

namespace olsq2::subarch {

namespace {

namespace m = obs::metrics;

void count(const char* name, const char* help) {
  if (!m::enabled()) return;
  m::Registry::instance().counter(name, help).inc();
}

struct LadderResult {
  bool ok = false;
  int k = -1;
  /// Winning embedding; sub_result is in its sub-index space with the
  /// original circuit's qubit/gate labels (untransferred).
  SubDevice winner;
  layout::Result sub_result;
  SubarchOutcome outcome;
};

/// The certification ladder (§14.3). Any gate failure records a fallback
/// reason and returns ok=false; ok=true results are certified.
LadderResult run_ladder(const layout::Problem& problem,
                        const layout::EncodingConfig& config,
                        const layout::OptimizerOptions& options,
                        const SubarchOptions& subopts) {
  obs::Span span("subarch.ladder");
  LadderResult lad;
  SubarchOutcome& out = lad.outcome;
  const circuit::Circuit& circ = *problem.circuit;
  const device::Device& dev = *problem.device;
  const auto bail = [&](std::string reason) {
    out.fallback_reason = std::move(reason);
    count("subarch_fallbacks_total",
          "Pre-pass invocations that degraded to the direct solve");
    if (span.live()) span.arg("fallback", out.fallback_reason);
    return lad;
  };

  if (!subopts.enable) return bail("disabled");
  if (circ.num_qubits() > dev.num_qubits()) return bail("circuit too wide");
  if (!interaction_connected(circ)) {
    return bail("interaction graph disconnected or trivial");
  }
  if (!device::connected(dev)) return bail("device disconnected");

  Library& library =
      subopts.library != nullptr ? *subopts.library : Library::process_wide();
  const serve::CircuitCanon ccanon = serve::canonicalize_circuit(circ);
  const circuit::Circuit canon_circ = serve::apply_circuit_canon(circ, ccanon);
  // One deadline for the whole ladder: every probe runs under its remaining
  // budget and its cancel token.
  const layout::Deadline deadline(options.time_budget_ms, options.cancel);

  for (int k = 0; k <= subopts.max_extra_qubits; ++k) {
    out.rounds = k + 1;
    const int want = circ.num_qubits() + k;
    const int msize = std::min(want, dev.num_qubits());

    std::shared_ptr<const Cover> cover;
    if (msize == dev.num_qubits()) {
      // The "subarchitecture" is the whole device: one trivial class. The
      // probe below is then a plain bounded solve, which keeps the ladder
      // total on small devices (the fuzz oracle's regime).
      CoverClass cls;
      cls.rep = make_subdevice(dev, [&] {
        std::vector<int> all(dev.num_qubits());
        for (int p = 0; p < dev.num_qubits(); ++p) all[p] = p;
        return all;
      }());
      cls.canon = serve::canonicalize_device(cls.rep.device);
      cls.members = 1;
      cls.induced_edges = dev.num_edges();
      Cover whole;
      whole.size = msize;
      whole.complete = true;
      whole.enumerated = 1;
      whole.classes.push_back(std::move(cls));
      cover = std::make_shared<const Cover>(std::move(whole));
    } else {
      if (msize > subopts.extract.max_sub_qubits) {
        return bail("subgraph size cap (m=" + std::to_string(msize) + ")");
      }
      cover = enumerate_cover(dev, msize, subopts.extract);
      if (!cover->complete) return bail("enumeration budget");
    }
    out.classes_total += static_cast<std::int64_t>(cover->classes.size());

    // Classes of this round answered UNSAT, densest first. A class that
    // embeds as a spanning subgraph of one of them is refuted with it: its
    // TB solutions map onto the refuted class's couplers. Only strictly
    // denser classes can host such an embedding (equal coupler counts
    // would make it an isomorphism, i.e. the same class), and the
    // densest-first order probes them first.
    std::vector<const CoverClass*> refuted;
    const auto is_dominated = [&](const CoverClass& cls) {
      return std::any_of(refuted.begin(), refuted.end(),
                         [&](const CoverClass* host) {
                           return host->induced_edges > cls.induced_edges &&
                                  spanning_embedding(cls.rep.device,
                                                     host->rep.device);
                         });
    };

    for (const CoverClass& cls : cover->classes) {
      if (deadline.cancelled()) return bail("cancelled");
      if (deadline.expired()) return bail("budget");
      if (is_dominated(cls)) {
        ++out.dominated;
        count("subarch_dominated_total",
              "Ladder classes skipped as embedded in a refuted class");
        continue;
      }
      const std::string key =
          probe_key(cls.canon.key, ccanon.key, problem.swap_duration, k);
      Library::Probe probe;
      if (std::optional<Library::Probe> hit = library.lookup(key)) {
        probe = std::move(*hit);
        ++out.library_hits;
      } else {
        const device::Device canon_dev =
            serve::apply_device_canon(cls.rep.device, cls.canon);
        const layout::Problem sub{&canon_circ, &canon_dev,
                                  problem.swap_duration};
        // k+1 blocks suffice for any <=k-SWAP TB solution: transitions
        // without SWAPs merge, leaving at most one block per SWAP plus one.
        layout::Result r =
            layout::tb_solve_fixed(sub, k + 1, k, config, deadline);
        ++out.probes;
        count("subarch_probes_total", "Ladder feasibility SAT probes solved");
        if (r.hit_budget) return bail("probe budget");
        probe.status = r.solved ? 'S' : 'U';
        if (r.solved) probe.result = r;
        // Conclusive probes only: the canonical answer is instance-exact
        // even when the canonical *search* was inexact (inexact forms
        // split keys, never merge them), so memoization is always sound.
        library.insert(key, probe);
      }
      if (probe.status != 'S') {
        refuted.push_back(&cls);
        continue;
      }

      // Round k SAT after rounds < k were all-UNSAT: the lifted SWAP
      // count is the certified optimum.
      lad.ok = true;
      lad.k = k;
      lad.winner = cls.rep;
      const serve::InstanceCanon icanon{ccanon, cls.canon,
                                        problem.swap_duration};
      const layout::Problem rep_problem{&circ, &cls.rep.device,
                                        problem.swap_duration};
      lad.sub_result =
          serve::untransfer_result(probe.result, icanon, rep_problem);
      out.used = true;
      out.certified = true;
      out.sub_qubits = cls.rep.device.num_qubits();
      out.swap_optimum = lad.sub_result.swap_count;
      out.to_full = cls.rep.to_full;
      out.reduction_ratio =
          static_cast<double>(dev.num_qubits()) /
          static_cast<double>(std::max(1, out.sub_qubits));
      count("subarch_certified_total",
            "Ladder runs that closed with a certified optimum");
      if (m::enabled()) {
        m::Registry::instance()
            .histogram("subarch_reduction_ratio",
                       "Full-device qubits / winning subdevice qubits")
            .observe(out.reduction_ratio);
      }
      if (span.live()) {
        span.arg("k", k);
        span.arg("sub_qubits", out.sub_qubits);
        span.arg("probes", out.probes);
        span.arg("library_hits", out.library_hits);
        span.arg("dominated", out.dominated);
      }
      return lad;
    }
    // Every class UNSAT at bound k: the full-device optimum exceeds k.
  }
  return bail("ladder cap (k>" + std::to_string(subopts.max_extra_qubits) +
              ")");
}

void fill(SubarchOutcome* outcome, const SubarchOutcome& value) {
  if (outcome != nullptr) *outcome = value;
}

}  // namespace

bool should_engage(const layout::Problem& problem,
                   const SubarchOptions& subopts) {
  return subopts.enable &&
         problem.device->num_qubits() >= subopts.min_device_qubits &&
         problem.circuit->num_qubits() <= subopts.extract.max_sub_qubits &&
         problem.circuit->num_qubits() < problem.device->num_qubits();
}

layout::Result tb_synthesize_swap_optimal(const layout::Problem& problem,
                                          const layout::EncodingConfig& config,
                                          const layout::OptimizerOptions& options,
                                          const SubarchOptions& subopts,
                                          SubarchOutcome* outcome) {
  LadderResult lad = run_ladder(problem, config, options, subopts);
  if (lad.ok) {
    layout::Result lifted =
        lift_result(lad.sub_result, lad.winner, *problem.device);
    const layout::Verdict verdict =
        layout::verify_transition_based(problem, lifted);
    if (verdict.ok) {
      lifted.hit_budget = false;
      fill(outcome, lad.outcome);
      return lifted;
    }
    // A lift that fails the independent verifier is a library bug; never
    // surface it (the fuzz differential flags the optimum instead).
    lad.outcome = SubarchOutcome{};
    lad.outcome.fallback_reason = "lift verification failed";
  }
  fill(outcome, lad.outcome);
  return layout::tb_synthesize_swap_optimal(problem, config, options);
}

plan::PlanResult plan_synthesize(const layout::Problem& problem,
                                 const plan::PlanOptions& options,
                                 const SubarchOptions& subopts,
                                 SubarchOutcome* outcome) {
  layout::OptimizerOptions lopts;
  lopts.time_budget_ms = options.time_budget_ms;
  lopts.cancel = options.cancel;
  LadderResult lad = run_ladder(problem, {}, lopts, subopts);
  if (lad.ok) {
    const layout::Problem sub{problem.circuit, &lad.winner.device,
                              problem.swap_duration};
    plan::PlanResult planned = plan::synthesize(sub, options);
    // The ladder certified the optimum; the sub-device plan must land on
    // it (it hosts a witness, and anything cheaper would lift below a
    // certified bound). A mismatch is an internal inconsistency - degrade.
    if (planned.solved && planned.optimal &&
        planned.swap_count == lad.sub_result.swap_count) {
      plan::PlanResult lifted =
          lift_plan_result(planned, lad.winner, *problem.device);
      const layout::Verdict verdict =
          layout::verify_transition_based(problem, lifted.layout);
      if (verdict.ok) {
        fill(outcome, lad.outcome);
        return lifted;
      }
    }
    lad.outcome = SubarchOutcome{};
    lad.outcome.fallback_reason = "plan sub-solve mismatch";
    count("subarch_fallbacks_total",
          "Pre-pass invocations that degraded to the direct solve");
  }
  fill(outcome, lad.outcome);
  return plan::synthesize(problem, options);
}

}  // namespace olsq2::subarch
