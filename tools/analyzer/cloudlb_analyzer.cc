// Entry point for cloudlb-analyzer (see analyzer.h for the check list).
//
//   cloudlb-analyzer -p build src/sim/simulator.cc [more files...]
//   cloudlb-analyzer fixture.cc -- -std=c++17 -nostdinc -Imocks
//   cloudlb-analyzer --list-checks
//
// tools/analyzer/run_analyzer.py wraps the per-TU form over the whole
// compile database; tests/analyzer/run_selftest.py uses the `--` form
// for the hermetic fixture corpus.
#include "analyzer.h"

#include <cstring>

#include "clang/Basic/Diagnostic.h"
#include "clang/Tooling/CommonOptionsParser.h"
#include "clang/Tooling/Tooling.h"
#include "llvm/Support/CommandLine.h"
#include "llvm/Support/raw_ostream.h"

namespace {

llvm::cl::OptionCategory g_category{"cloudlb-analyzer options"};

constexpr const char* kChecks[] = {
    "analyzer-ambient-state",  "analyzer-barrier-phase",
    "analyzer-discarded-status", "analyzer-float-merge",
    "analyzer-shard-confined", "analyzer-sim-time",
    "analyzer-stale-handle",   "analyzer-unordered-accum",
    "analyzer-unranked-fanout",
};

}  // namespace

int main(int argc, const char** argv) {
  // Handled before CommonOptionsParser, which insists on source paths.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list-checks") == 0) {
      for (const char* check : kChecks) llvm::outs() << check << '\n';
      return 0;
    }
  }

  auto expected_parser =
      clang::tooling::CommonOptionsParser::create(argc, argv, g_category);
  if (!expected_parser) {
    llvm::errs() << llvm::toString(expected_parser.takeError());
    return 2;
  }
  clang::tooling::CommonOptionsParser& options = expected_parser.get();

  clang::tooling::ClangTool tool{options.getCompilations(),
                                 options.getSourcePathList()};
  // The analyzer's findings are the output; compiler diagnostics (e.g.
  // -Wunused-result triggered by the very patterns being analyzed) would
  // interleave and break machine parsing.
  clang::IgnoringDiagConsumer silent;
  tool.setDiagnosticConsumer(&silent);

  cloudlb_analyzer::AnalyzerContext ctx;
  clang::ast_matchers::MatchFinder finder;
  cloudlb_analyzer::register_ambient_state(finder, ctx);
  cloudlb_analyzer::register_discarded_status(finder, ctx);
  cloudlb_analyzer::register_sim_time(finder, ctx);
  cloudlb_analyzer::register_unordered_accum(finder, ctx);
  cloudlb_analyzer::register_stale_handle(finder, ctx);
  cloudlb_analyzer::register_shard_confined(finder, ctx);
  cloudlb_analyzer::register_barrier_phase(finder, ctx);
  cloudlb_analyzer::register_float_merge(finder, ctx);
  cloudlb_analyzer::register_unranked_fanout(finder, ctx);

  const int rc =
      tool.run(clang::tooling::newFrontendActionFactory(&finder).get());
  if (rc != 0) {
    llvm::errs() << "cloudlb-analyzer: clang reported errors while "
                    "parsing the inputs (wrong -p dir or missing "
                    "-resource-dir?)\n";
    return 2;
  }
  return ctx.flush(llvm::outs()) > 0 ? 1 : 0;
}
