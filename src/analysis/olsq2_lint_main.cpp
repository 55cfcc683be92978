// olsq2_lint: static-analysis gate for the SAT encodings.
//
//   $ ./olsq2_lint [options] <file.qasm>...
//     --device=NAME       qx2 | aspen4 | sycamore | eagle | guadalupe |
//                         tokyo | grid<R>x<C>            (default qx2)
//     --swap-duration=N   SWAP duration S_D in time steps (default 3)
//     --max-pairs=N       injectivity-obligation sampling cap  (default 2000)
//     --no-card-audit     skip the standalone cardinality-encoder audits
//
// For every circuit the tool builds each encoder variant's CNF (pairwise /
// channeling / AMO injectivity on bit-vector variables, the one-hot
// variable encoding, and the OLSQ baseline's space variables) in both
// formulations - time-resolved at T_UB steps and transition-based at the 4
// blocks the TB engines' first model has - lints the emitted clauses, and
// semantically audits the injectivity obligations through the model's own
// solver. Standalone
// audits verify the three at-most-k encoders (exhaustive small-n sweep,
// windowed structural checks at scale). The combined report is one JSON
// document on stdout; exit code 0 iff no errors. CI runs this over the
// bundled benchmarks (see .github/workflows/ci.yml and the lint_benchmarks
// ctest).
#include <cstdlib>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/card_audit.h"
#include "analysis/exclusion_audit.h"
#include "analysis/lint.h"
#include "circuit/dependency.h"
#include "device/presets.h"
#include "layout/model.h"
#include "obs/json_escape.h"
#include "qasm/parser.h"

namespace {

using namespace olsq2;

device::Device device_by_name(const std::string& name) {
  using namespace olsq2::device;
  if (name == "qx2") return ibm_qx2();
  if (name == "aspen4") return rigetti_aspen4();
  if (name == "sycamore") return google_sycamore54();
  if (name == "eagle") return ibm_eagle127();
  if (name == "guadalupe") return ibm_guadalupe16();
  if (name == "tokyo") return ibm_tokyo20();
  if (name.rfind("grid", 0) == 0) {
    const auto x = name.find('x');
    if (x != std::string::npos) {
      const int rows = std::atoi(name.substr(4, x - 4).c_str());
      const int cols = std::atoi(name.substr(x + 1).c_str());
      if (rows >= 1 && cols >= 1) return grid(rows, cols);
    }
  }
  throw std::runtime_error("unknown device: " + name);
}

std::string audit_to_json(const analysis::AuditResult& result) {
  std::ostringstream out;
  out << "{\"ok\":" << (result.ok ? "true" : "false")
      << ",\"checks\":" << result.checks << ",\"skipped\":" << result.skipped
      << ",\"errors\":[";
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    if (i > 0) out << ",";
    out << "\"" << obs::json_escape(result.errors[i]) << "\"";
  }
  out << "]}";
  return out.str();
}

struct Options {
  std::string device = "qx2";
  int swap_duration = 3;
  std::size_t max_pairs = 2000;
  bool card_audit = true;
  std::vector<std::string> files;
};

int run(const Options& options) {
  std::int64_t total_errors = 0;
  std::ostringstream out;
  out << "{";

  if (options.card_audit) {
    // Standalone encoder audits: exhaustive for small n, structural large.
    struct Case { int n; int k; };
    const Case small_cases[] = {{5, 0}, {5, 2}, {6, 3}, {7, 1}, {8, 4}, {8, 8}};
    const Case large_cases[] = {{40, 3}, {60, 10}};
    out << "\"card_audits\":[";
    bool first = true;
    for (const analysis::CardKind kind :
         {analysis::CardKind::kSeqCounter, analysis::CardKind::kTotalizer,
          analysis::CardKind::kAdder}) {
      for (const auto& cases : {std::span<const Case>(small_cases),
                                std::span<const Case>(large_cases)}) {
        for (const Case& c : cases) {
          const analysis::AuditResult result =
              analysis::audit_card_encoding(kind, c.n, c.k);
          if (!result.ok) total_errors += 1;
          if (!first) out << ",";
          first = false;
          out << "{\"encoder\":\"" << analysis::card_kind_name(kind)
              << "\",\"n\":" << c.n << ",\"k\":" << c.k
              << ",\"audit\":" << audit_to_json(result) << "}";
        }
      }
    }
    out << "],";
  }

  const device::Device dev = device_by_name(options.device);
  out << "\"files\":[";
  for (std::size_t fi = 0; fi < options.files.size(); ++fi) {
    const std::string& file = options.files[fi];
    if (fi > 0) out << ",";
    out << "{\"file\":\"" << obs::json_escape(file) << "\",\"device\":\""
        << obs::json_escape(options.device) << "\",\"configs\":[";

    const circuit::Circuit circ = qasm::parse_file(file);
    if (circ.num_qubits() > dev.num_qubits()) {
      throw std::runtime_error(file + ": circuit needs " +
                               std::to_string(circ.num_qubits()) +
                               " qubits but device " + options.device +
                               " has " + std::to_string(dev.num_qubits()));
    }
    const layout::Problem problem{&circ, &dev, options.swap_duration};
    const circuit::DependencyGraph deps(circ);
    const int t_ub = deps.default_upper_bound();
    constexpr int kBlocks = 4;

    std::vector<layout::EncodingConfig> configs(5);
    configs[1].injectivity = layout::InjectivityEncoding::kChanneling;
    configs[2].injectivity = layout::InjectivityEncoding::kAmoPerQubit;
    configs[3].vars = layout::VarEncoding::kOneHot;
    configs[4].formulation = layout::Formulation::kOlsqBaseline;

    bool first = true;
    for (const layout::SearchEngine engine :
         {layout::SearchEngine::kTimeResolved,
          layout::SearchEngine::kTransitionBased}) {
      const bool tb = engine == layout::SearchEngine::kTransitionBased;
      const int horizon = tb ? kBlocks : t_ub;
      for (const layout::EncodingConfig& config : configs) {
        layout::Model model(engine, problem, horizon, config,
                            /*proof=*/nullptr, /*log_clauses=*/true);
        const analysis::LintReport lint =
            analysis::lint_cnf(model.solver().num_vars(),
                               model.solver().clause_log());
        const auto obligations = model.injectivity_obligations();
        const analysis::AuditResult injectivity =
            analysis::audit_mutual_exclusion(model.solver(), obligations,
                                             options.max_pairs);
        total_errors += lint.errors + (injectivity.ok ? 0 : 1);
        const std::string label = (tb ? "TB-" : "") + config.label();
        if (!first) out << ",";
        first = false;
        out << "{\"label\":\"" << obs::json_escape(label) << "\",\""
            << (tb ? "blocks" : "t_ub") << "\":" << horizon
            << ",\"lint\":" << lint.to_json()
            << ",\"injectivity\":" << audit_to_json(injectivity) << "}";
        std::cerr << "[olsq2-lint] " << file << " " << label << ": "
                  << lint.errors << " lint errors, " << lint.warnings
                  << " warnings; injectivity "
                  << (injectivity.ok ? "ok" : "VIOLATED") << " ("
                  << injectivity.checks << " pairs checked, "
                  << injectivity.skipped << " sampled out)\n";
      }
    }
    out << "]}";
  }
  out << "],\"errors\":" << total_errors << "}";
  std::cout << out.str() << "\n";
  return total_errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--device=", 0) == 0) {
      options.device = arg.substr(9);
    } else if (arg.rfind("--swap-duration=", 0) == 0) {
      options.swap_duration = std::atoi(arg.substr(16).c_str());
    } else if (arg.rfind("--max-pairs=", 0) == 0) {
      options.max_pairs =
          static_cast<std::size_t>(std::atoll(arg.substr(12).c_str()));
    } else if (arg == "--no-card-audit") {
      options.card_audit = false;
    } else if (arg == "--help" || arg == "-h" || arg.rfind("--", 0) == 0) {
      std::cerr << "usage: " << argv[0]
                << " [--device=NAME] [--swap-duration=N] [--max-pairs=N]"
                   " [--no-card-audit] <file.qasm>...\n";
      return arg == "--help" || arg == "-h" ? 0 : 2;
    } else {
      options.files.push_back(arg);
    }
  }
  if (options.files.empty() && !options.card_audit) {
    std::cerr << "olsq2_lint: nothing to do\n";
    return 2;
  }
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::cerr << "olsq2_lint: error: " << e.what() << "\n";
    return 2;
  }
}
