// olsq2_fuzz: randomized differential & metamorphic fuzzer for the whole
// synthesis stack.
//
//   $ ./olsq2_fuzz [options]
//     --seed N          base seed for the instance stream       (default 1)
//     --seconds S       wall-clock budget; 0 = unlimited        (default 0)
//     --iterations K    iteration cap; 0 = unlimited            (default 0)
//     --out DIR         write reduced repros (QASM + device JSON) to DIR
//     --no-reduce       skip delta-debugging of failures
//     --stop-on-failure exit after the first failing oracle
//     --verbose         one line per iteration on stderr
//     --inject-bug      self-test: enable the deliberate encoding bug
//                       (OLSQ2_FUZZ_INJECT_ENCODING_BUG) and require the
//                       fuzzer to catch it and reduce it to <= 5 gates
//     --inject-sat-bug  self-test: enable the deliberate vivification bug
//                       (OLSQ2_FUZZ_INJECT_VIVIFY_BUG, an unjustified
//                       literal drop) and require the inprocessing on/off
//                       differential oracle to catch it
//     --inject-plan-bug self-test: enable the deliberate planning-heuristic
//                       bug (OLSQ2_FUZZ_INJECT_PLAN_BUG, a +1 overestimate
//                       that breaks admissibility) and require the plan/SAT
//                       differential oracle to catch it
//     --inject-subarch-bug
//                       self-test: enable the deliberate extractor bug
//                       (OLSQ2_FUZZ_INJECT_SUBARCH_BUG, which silently drops
//                       an induced edge from every cyclic enumerated
//                       subgraph) and require the subarch lift-soundness
//                       differential oracle to catch the inflated optimum
//     --inject-floor-bug
//                       self-test: enable the deliberate SWAP-floor bug
//                       (OLSQ2_FUZZ_INJECT_FLOOR_BUG, which raises the
//                       floor of the Pareto sweep one above what was
//                       proven) and require the engine differential's
//                       pruned-call oracle to catch a pruned SAT call
//
// Both `--flag value` and `--flag=value` spellings are accepted. At least
// one of --seconds/--iterations must be given (except with --inject-bug,
// which supplies its own bounded loop). Any failure replays exactly from
// the printed `--seed B --iterations I` pair. Exit code 0 iff no oracle
// failed (with --inject-bug: iff the bug WAS caught and reduced).
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "fuzz/fuzzer.h"

namespace {

using namespace olsq2;

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "olsq2_fuzz: " << message << "\n"
            << "usage: olsq2_fuzz [--seed N] [--seconds S] [--iterations K]\n"
            << "                  [--out DIR] [--no-reduce] [--stop-on-failure]\n"
            << "                  [--verbose] [--inject-bug] [--inject-sat-bug]\n"
            << "                  [--inject-plan-bug] [--inject-subarch-bug]\n"
            << "                  [--inject-floor-bug]\n";
  std::exit(2);
}

/// Accepts `--flag=value` and `--flag value`; returns true (with `value`
/// filled) when `arg` matches `flag`.
bool flag_value(std::vector<std::string>& args, std::size_t& i,
                const std::string& flag, std::string& value) {
  const std::string& arg = args[i];
  if (arg == flag) {
    if (i + 1 >= args.size()) usage_error(flag + " needs a value");
    value = args[++i];
    return true;
  }
  if (arg.rfind(flag + "=", 0) == 0) {
    value = arg.substr(flag.size() + 1);
    return true;
  }
  return false;
}

int run_inject_bug_selftest(fuzz::FuzzOptions options) {
  // The bug only breaks pairwise injectivity between program qubits 0 and 1,
  // so give every iteration a real chance to tickle it and stop at the first
  // catch. setenv before any model is built; model.cpp re-reads it per build.
  setenv("OLSQ2_FUZZ_INJECT_ENCODING_BUG", "1", /*overwrite=*/1);
  if (options.iterations <= 0 && options.seconds <= 0.0) {
    options.iterations = 200;
  }
  options.stop_on_failure = true;
  options.reduce_failures = true;

  const fuzz::FuzzReport report = fuzz::run_fuzz(options);
  std::cout << fuzz::format_report(report);
  unsetenv("OLSQ2_FUZZ_INJECT_ENCODING_BUG");

  if (report.failures.empty()) {
    std::cerr << "olsq2_fuzz: injected encoding bug was NOT caught\n";
    return 1;
  }
  const fuzz::FuzzFailure& f = report.failures.front();
  if (!f.reduced) {
    std::cerr << "olsq2_fuzz: failure caught but reducer did not confirm it\n";
    return 1;
  }
  if (f.reduced->circuit.num_gates() > 5) {
    std::cerr << "olsq2_fuzz: repro not minimal ("
              << f.reduced->circuit.num_gates() << " gates > 5)\n";
    return 1;
  }
  std::cout << "inject-bug self-test passed: caught by " << f.oracle
            << ", reduced to " << f.reduced->circuit.num_gates()
            << " gate(s)\n";
  return 0;
}

int run_inject_sat_bug_selftest(const fuzz::FuzzOptions& options) {
  // The vivification fault drops one literal per inprocessing round without
  // justification. A strengthened formula stays satisfiable for many seeds,
  // so sweep the seed stream until a differential flip or a DRAT rejection
  // catches it; phase-transition CNF is ~half UNSAT, where the unjustified
  // proof step is detected directly.
  setenv("OLSQ2_FUZZ_INJECT_VIVIFY_BUG", "1", /*overwrite=*/1);
  const int iterations = options.iterations > 0 ? options.iterations : 200;
  int caught_at = -1;
  std::vector<std::string> errors;
  for (int i = 0; i < iterations; ++i) {
    const std::uint64_t seed = fuzz::derive_seed(options.seed, i);
    const fuzz::OracleReport result = fuzz::check_inprocess(seed);
    if (options.verbose) {
      std::cerr << "[fuzz] iter=" << i << " seed=" << seed
                << " oracle=inprocess ok=" << (result.ok ? 1 : 0) << "\n";
    }
    if (!result.ok) {
      caught_at = i;
      errors = result.errors;
      break;
    }
  }
  unsetenv("OLSQ2_FUZZ_INJECT_VIVIFY_BUG");

  if (caught_at < 0) {
    std::cerr << "olsq2_fuzz: injected vivification bug was NOT caught in "
              << iterations << " iterations\n";
    return 1;
  }
  std::cout << "inject-sat-bug self-test passed: caught at iteration "
            << caught_at << "\n";
  for (const std::string& e : errors) std::cout << "  " << e << "\n";
  return 0;
}

int run_inject_plan_bug_selftest(const fuzz::FuzzOptions& options) {
  // The armed heuristic adds +1 whenever the true estimate is nonzero, so
  // A* typically certifies optimum+1 on instances whose real optimum is
  // >= 1, and check_plan flags the certified count exceeding TB-OLSQ2's.
  // Zero-swap instances are unaffected (some root reaches the goal with
  // h = 0, so the bug never fires on the certifying path); sweep the seed
  // stream until an instance that needs swaps comes along.
  setenv("OLSQ2_FUZZ_INJECT_PLAN_BUG", "1", /*overwrite=*/1);
  const int iterations = options.iterations > 0 ? options.iterations : 200;
  int caught_at = -1;
  std::vector<std::string> errors;
  for (int i = 0; i < iterations; ++i) {
    const std::uint64_t seed = fuzz::derive_seed(options.seed, i);
    const fuzz::Instance instance = fuzz::random_instance(seed, options.gen);
    const fuzz::OracleReport result = fuzz::check_plan(instance);
    if (options.verbose) {
      std::cerr << "[fuzz] iter=" << i << " seed=" << seed
                << " oracle=plan ok=" << (result.ok ? 1 : 0) << "\n";
    }
    if (!result.ok) {
      caught_at = i;
      errors = result.errors;
      break;
    }
  }
  unsetenv("OLSQ2_FUZZ_INJECT_PLAN_BUG");

  if (caught_at < 0) {
    std::cerr << "olsq2_fuzz: injected planning-heuristic bug was NOT caught "
              << "in " << iterations << " iterations\n";
    return 1;
  }
  std::cout << "inject-plan-bug self-test passed: caught at iteration "
            << caught_at << "\n";
  for (const std::string& e : errors) std::cout << "  " << e << "\n";
  return 0;
}

int run_inject_subarch_bug_selftest(const fuzz::FuzzOptions& options) {
  // The armed extractor drops one induced edge from every cyclic subgraph it
  // emits, so the ladder solves on an impoverished subdevice. check_subarch
  // catches that through two independent channels: probes that should be SAT
  // come back UNSAT, closing the ladder a round late (certified "optimum"
  // above the direct full-device optimum), and/or the relabeled device's
  // cover diverging (which edge gets dropped depends on the labeling, so
  // isomorphic devices stop producing identical class keys). Tree-shaped
  // subdevices are unaffected; sweep the seed stream until a cyclic
  // instance comes along.
  setenv("OLSQ2_FUZZ_INJECT_SUBARCH_BUG", "1", /*overwrite=*/1);
  const int iterations = options.iterations > 0 ? options.iterations : 200;
  int caught_at = -1;
  std::vector<std::string> errors;
  for (int i = 0; i < iterations; ++i) {
    const std::uint64_t seed = fuzz::derive_seed(options.seed, i);
    const fuzz::Instance instance = fuzz::random_instance(seed, options.gen);
    const fuzz::OracleReport result = fuzz::check_subarch(instance, seed);
    if (options.verbose) {
      std::cerr << "[fuzz] iter=" << i << " seed=" << seed
                << " oracle=subarch ok=" << (result.ok ? 1 : 0) << "\n";
    }
    if (!result.ok) {
      caught_at = i;
      errors = result.errors;
      break;
    }
  }
  unsetenv("OLSQ2_FUZZ_INJECT_SUBARCH_BUG");

  if (caught_at < 0) {
    std::cerr << "olsq2_fuzz: injected subarch-extractor bug was NOT caught "
              << "in " << iterations << " iterations\n";
    return 1;
  }
  std::cout << "inject-subarch-bug self-test passed: caught at iteration "
            << caught_at << "\n";
  for (const std::string& e : errors) std::cout << "  " << e << "\n";
  return 0;
}

int run_inject_floor_bug_selftest(const fuzz::FuzzOptions& options) {
  // The armed floor overshoots every raise by one, so a sweep prunes the
  // call at the true floor. That changes an answer only when the call was
  // SAT, i.e. on instances whose optimum sits exactly at the floor; sweep
  // the seed stream until the pruned-call oracle re-decides one as SAT.
  setenv("OLSQ2_FUZZ_INJECT_FLOOR_BUG", "1", /*overwrite=*/1);
  const int iterations = options.iterations > 0 ? options.iterations : 200;
  int caught_at = -1;
  std::vector<std::string> errors;
  for (int i = 0; i < iterations; ++i) {
    const std::uint64_t seed = fuzz::derive_seed(options.seed, i);
    const fuzz::Instance instance = fuzz::random_instance(seed, options.gen);
    const fuzz::OracleReport result = fuzz::check_engine_differential(instance);
    if (options.verbose) {
      std::cerr << "[fuzz] iter=" << i << " seed=" << seed
                << " oracle=engine_differential ok=" << (result.ok ? 1 : 0)
                << "\n";
    }
    const bool floor_caught = std::any_of(
        result.errors.begin(), result.errors.end(), [](const std::string& e) {
          return e.find("the SWAP floor pruned") != std::string::npos;
        });
    if (floor_caught) {
      caught_at = i;
      errors = result.errors;
      break;
    }
  }
  unsetenv("OLSQ2_FUZZ_INJECT_FLOOR_BUG");

  if (caught_at < 0) {
    std::cerr << "olsq2_fuzz: injected SWAP-floor bug was NOT caught in "
              << iterations << " iterations\n";
    return 1;
  }
  std::cout << "inject-floor-bug self-test passed: caught at iteration "
            << caught_at << "\n";
  for (const std::string& e : errors) std::cout << "  " << e << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  fuzz::FuzzOptions options;
  bool inject_bug = false;
  bool inject_sat_bug = false;
  bool inject_plan_bug = false;
  bool inject_subarch_bug = false;
  bool inject_floor_bug = false;

  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string value;
    if (flag_value(args, i, "--seed", value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag_value(args, i, "--seconds", value)) {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag_value(args, i, "--iterations", value)) {
      options.iterations = std::atoi(value.c_str());
    } else if (flag_value(args, i, "--out", value)) {
      options.corpus_dir = value;
    } else if (args[i] == "--no-reduce") {
      options.reduce_failures = false;
    } else if (args[i] == "--stop-on-failure") {
      options.stop_on_failure = true;
    } else if (args[i] == "--verbose") {
      options.verbose = true;
    } else if (args[i] == "--inject-bug") {
      inject_bug = true;
    } else if (args[i] == "--inject-sat-bug") {
      inject_sat_bug = true;
    } else if (args[i] == "--inject-plan-bug") {
      inject_plan_bug = true;
    } else if (args[i] == "--inject-subarch-bug") {
      inject_subarch_bug = true;
    } else if (args[i] == "--inject-floor-bug") {
      inject_floor_bug = true;
    } else {
      usage_error("unknown argument: " + args[i]);
    }
  }

  if (inject_bug) return run_inject_bug_selftest(options);
  if (inject_sat_bug) return run_inject_sat_bug_selftest(options);
  if (inject_plan_bug) return run_inject_plan_bug_selftest(options);
  if (inject_subarch_bug) return run_inject_subarch_bug_selftest(options);
  if (inject_floor_bug) return run_inject_floor_bug_selftest(options);

  if (options.seconds <= 0.0 && options.iterations <= 0) {
    usage_error("need --seconds or --iterations");
  }
  const fuzz::FuzzReport report = fuzz::run_fuzz(options);
  std::cout << fuzz::format_report(report);
  return report.ok() ? 0 : 1;
}
