#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/cli.h"
#include "util/check.h"
#include "util/thread_pool.h"
#include "util/validate.h"

namespace cloudlb {
namespace {

// ------------------------------------------------------------ CommandLine

// The parse error for a command line, or "" when the table accepts it.
std::string parse_error(const std::string& command,
                        const std::vector<std::string>& args) {
  try {
    static_cast<void>(CommandLine{command, args});
  } catch (const UsageError& error) {
    return error.what();
  }
  return "";
}

// The same for a whole command line, command first.
std::string parse_error_of(const std::vector<std::string>& args) {
  return parse_error(args[0],
                     std::vector<std::string>(args.begin() + 1, args.end()));
}

TEST(OptionsTest, ParsesEqualsForm) {
  const CommandLine line{"penalty", {"--app=wave2d", "--cores=8"}};
  EXPECT_EQ(line.text("app"), "wave2d");
  EXPECT_EQ(line.integer("cores"), 8);
}

TEST(OptionsTest, ParsesSpaceForm) {
  const CommandLine line{"penalty", {"--app", "mol3d", "--cores", "16"}};
  EXPECT_EQ(line.text("app"), "mol3d");
  EXPECT_EQ(line.integer("cores"), 16);
}

TEST(OptionsTest, BareFlagIsTrue) {
  const CommandLine line{"penalty", {"--csv", "--lb-fallback=false"}};
  EXPECT_TRUE(line.boolean("csv"));
  EXPECT_FALSE(line.boolean("lb-fallback"));
  EXPECT_TRUE(line.given("lb-fallback"));
  const CommandLine absent{"penalty", {}};
  EXPECT_FALSE(absent.boolean("csv"));
  EXPECT_FALSE(absent.given("csv"));
}

TEST(OptionsTest, PositionalArgumentsKept) {
  // Kept for the error, which names each one: no command takes any.
  const std::string error =
      parse_error("sweep", {"sweep", "--cores=4", "extra"});
  EXPECT_NE(error.find("'sweep'"), std::string::npos) << error;
  EXPECT_NE(error.find("'extra'"), std::string::npos) << error;
}

TEST(OptionsTest, DefaultsWhenMissing) {
  const CommandLine line{"penalty", {}};
  EXPECT_EQ(line.text("app"), "jacobi2d");
  EXPECT_EQ(line.integer("cores"), 8);
  EXPECT_DOUBLE_EQ(line.number("epsilon"), 0.05);
  EXPECT_EQ(CommandLine("sweep", {}).ints("cores"),
            (std::vector<int>{4, 8, 16, 32}));
}

TEST(OptionsTest, IntListParsing) {
  const CommandLine line{"sweep", {"--cores=4,8,16,32"}};
  EXPECT_EQ(line.ints("cores"), (std::vector<int>{4, 8, 16, 32}));
  const CommandLine single{"sweep", {"--cores=7"}};
  EXPECT_EQ(single.ints("cores"), (std::vector<int>{7}));
}

TEST(OptionsTest, TypeErrorsThrow) {
  EXPECT_THROW(CommandLine("penalty", {"--cores=eight"}), UsageError);
  EXPECT_THROW(CommandLine("penalty", {"--epsilon=tiny"}), UsageError);
  EXPECT_THROW(CommandLine("penalty", {"--csv=maybe"}), UsageError);
  EXPECT_THROW(CommandLine("sweep", {"--cores=1,x"}), UsageError);
}

TEST(OptionsTest, UnusedOptionsDetected) {
  const std::string error =
      parse_error("penalty", {"--app=wave2d", "--epsilan=0.1"});
  EXPECT_NE(error.find("--epsilan"), std::string::npos) << error;
  EXPECT_NE(error.find("penalty"), std::string::npos) << error;
  EXPECT_EQ(parse_error("penalty", {"--app=wave2d", "--epsilon=0.1"}), "");
}

// -------------------------------------------------------------------- CLI

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult cli(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  const int code = run_cli(args, out, err);
  return CliResult{code, out.str(), err.str()};
}

TEST(CliTest, NoArgsPrintsUsage) {
  const CliResult r = cli({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(CliTest, HelpSucceeds) {
  const CliResult r = cli({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("penalty"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  const CliResult r = cli({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(CliTest, ListsAppsAndBalancers) {
  const CliResult apps = cli({"apps"});
  EXPECT_EQ(apps.code, 0);
  EXPECT_NE(apps.out.find("jacobi2d"), std::string::npos);
  EXPECT_NE(apps.out.find("mol3d"), std::string::npos);
  const CliResult balancers = cli({"balancers"});
  EXPECT_EQ(balancers.code, 0);
  EXPECT_NE(balancers.out.find("ia-refine"), std::string::npos);
  EXPECT_NE(balancers.out.find("null"), std::string::npos);
}

TEST(CliTest, PenaltyRunsAndReports) {
  const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=4",
                           "--iterations=20", "--bg-iterations=40"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("app penalty (%)"), std::string::npos);
  EXPECT_NE(r.out.find("migrations"), std::string::npos);
}

TEST(CliTest, PenaltyCsvMode) {
  const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=4",
                           "--iterations=20", "--bg-iterations=40",
                           "--csv"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("metric,value"), std::string::npos);
}

TEST(CliTest, SweepCoversGrid) {
  const CliResult r =
      cli({"sweep", "--app=jacobi2d", "--cores=4,8", "--iterations=20",
           "--bg-iterations=40", "--balancers=null,ia-refine"});
  EXPECT_EQ(r.code, 0) << r.err;
  // 4 data rows: 2 core counts x 2 balancers.
  int rows = 0;
  std::istringstream in{r.out};
  std::string line;
  while (std::getline(in, line))
    if (line.find("ia-refine") != std::string::npos ||
        line.find("null") != std::string::npos)
      ++rows;
  EXPECT_EQ(rows, 4);
}

TEST(CliTest, SweepJobsOutputIsThreadCountInvariant) {
  // The parallel grid runner must produce byte-identical output no matter
  // how many worker threads execute the cells.
  const std::vector<std::string> base = {
      "sweep", "--app=jacobi2d", "--cores=4,8", "--iterations=20",
      "--bg-iterations=40", "--balancers=null,ia-refine"};
  auto with_jobs = [&](const std::string& jobs) {
    std::vector<std::string> args = base;
    args.push_back("--jobs=" + jobs);
    return cli(args);
  };
  const CliResult serial = with_jobs("1");
  EXPECT_EQ(serial.code, 0) << serial.err;
  for (const char* jobs : {"4", "0"}) {  // 0 = all hardware threads
    const CliResult parallel = with_jobs(jobs);
    EXPECT_EQ(parallel.code, 0) << parallel.err;
    EXPECT_EQ(parallel.out, serial.out) << "--jobs=" << jobs;
  }
}

TEST(CliTest, PenaltyShardsOutputMatchesLegacy) {
  // --shards moves the whole runtime onto the partitioned engines; the
  // report must stay byte-identical to the single-engine run, for serial
  // and parallel windows alike. 16 cores / 4 per node = 4 nodes, so both
  // shard counts genuinely partition the machine. The greedy input
  // migrates thousands of chares through tied resume bursts, which is
  // where an unranked single engine once drifted from the shards (3417
  // vs 3389 migrations).
  for (const std::vector<std::string>& base :
       std::vector<std::vector<std::string>>{
           {"penalty", "--app=jacobi2d", "--cores=16", "--iterations=20",
            "--bg-iterations=40"},
           {"penalty", "--app=jacobi2d", "--balancer=greedy", "--cores=32",
            "--iterations=40", "--bg-iterations=100", "--lb-period=5"}}) {
    const CliResult legacy = cli(base);
    EXPECT_EQ(legacy.code, 0) << legacy.err;
    for (const auto& extra : std::vector<std::vector<const char*>>{
             {"--shards=1"},
             {"--shards=2"},
             {"--shards=4", "--jobs=1"},
             {"--shards=4", "--jobs=3"}}) {
      std::vector<std::string> args = base;
      for (const char* a : extra) args.emplace_back(a);
      const CliResult sharded = cli(args);
      EXPECT_EQ(sharded.code, 0) << sharded.err;
      EXPECT_EQ(sharded.out, legacy.out) << base[2] << " " << extra[0];
    }
  }
}

TEST(CliTest, TimelineRenders) {
  const CliResult r = cli({"timeline", "--app=wave2d", "--cores=4",
                           "--iterations=16", "--bg-iterations=30",
                           "--width=60"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("core 0"), std::string::npos);
  EXPECT_NE(r.out.find("busy %"), std::string::npos);
}

TEST(CliTest, TimelineHeaderNamesTheInterference) {
  const std::vector<std::string> base = {
      "timeline", "--app=jacobi2d", "--cores=4", "--iterations=10",
      "--bg-iterations=20", "--width=40"};
  const auto header = [&base](std::vector<std::string> extra) {
    std::vector<std::string> args = base;
    args.insert(args.end(), extra.begin(), extra.end());
    const CliResult r = cli(args);
    EXPECT_EQ(r.code, 0) << r.err;
    return r.out.substr(0, r.out.find('\n'));
  };
  EXPECT_EQ(header({}),
            "jacobi2d on 4 cores, 'ia-refine', 2-core background job");
  EXPECT_EQ(header({"--tenants=4"}),
            "jacobi2d on 4 cores, 'ia-refine', 4 tenant VMs");
  EXPECT_EQ(header({"--tenants=1", "--with-bg"}),
            "jacobi2d on 4 cores, 'ia-refine', 2-core background job and 1 "
            "tenant VM");
}

TEST(CliTest, RecordThenReplayRoundTrip) {
  const std::string path = ::testing::TempDir() + "/cloudlb_trace.lbstats";
  const CliResult record =
      cli({"record", "--out=" + path, "--app=jacobi2d", "--cores=4",
           "--iterations=20", "--bg-iterations=40"});
  EXPECT_EQ(record.code, 0) << record.err;
  EXPECT_NE(record.out.find("recorded"), std::string::npos);

  const CliResult replay =
      cli({"replay", "--trace=" + path, "--balancer=ia-refine"});
  EXPECT_EQ(replay.code, 0) << replay.err;
  EXPECT_NE(replay.out.find("max load before"), std::string::npos);
  EXPECT_NE(replay.out.find("total migrations"), std::string::npos);
}

TEST(CliTest, ReplayMissingFileFails) {
  // A failed check inside a run, not a usage error: exit 1, `error: `
  // and where it failed.
  const CliResult r = cli({"replay", "--trace=/no/such/file.lbstats"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
  EXPECT_EQ(r.err.rfind("error: CHECK failed", 0), 0u) << r.err;
  EXPECT_NE(r.err.find(".cc:"), std::string::npos) << r.err;
}

TEST(CliTest, RecordRequiresOut) {
  const CliResult r = cli({"record", "--app=jacobi2d"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--out"), std::string::npos);
}

TEST(CliTest, BadOptionValueReportsError) {
  const CliResult r = cli({"penalty", "--cores=many"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("cloudlb: "), std::string::npos);
}

TEST(CliTest, UsageErrorsReadAsUsageErrors) {
  // A rejected line is the user's mistake: exit 2 and `cloudlb: `, with
  // none of a failed check's wording or source location.
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"penalty", "--cores=0"},
        {"sweep", "--cores=4", "--cores=8"},
        {"frobnicate"},
        {}}) {
    const CliResult r = cli(args);
    EXPECT_EQ(r.code, 2) << ::testing::PrintToString(args);
    EXPECT_EQ(r.err.rfind("cloudlb: ", 0), 0u) << r.err;
    EXPECT_EQ(r.err.find("CHECK failed"), std::string::npos) << r.err;
    EXPECT_EQ(r.err.find(".cc:"), std::string::npos) << r.err;
    EXPECT_EQ(r.err.find(".h:"), std::string::npos) << r.err;
    EXPECT_TRUE(r.out.empty()) << r.out;
  }
}

TEST(CliTest, UnknownOptionReportsError) {
  const CliResult r = cli({"penalty", "--coers=8", "--iterations=10",
                           "--bg-iterations=20"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--coers"), std::string::npos);
}

TEST(CliTest, UnknownBalancerReportsError) {
  const CliResult r = cli({"penalty", "--balancer=magic"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown balancer"), std::string::npos);
}

TEST(CliTest, UnknownAppReportsError) {
  const CliResult r = cli({"penalty", "--app=linpack"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown application"), std::string::npos);
}

TEST(CliTest, EstimatorWindowTooSmallFailsAtParse) {
  // 1 or 2 samples have a degenerate median; the flag takes 0 (off) or
  // >= 3, and the error must name both the flag and the rule.
  const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=4",
                           "--iterations=20", "--bg-iterations=40",
                           "--estimator-window=2"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--estimator-window"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("at least 3"), std::string::npos) << r.err;
}

TEST(CliTest, ShardCountBelowOneFailsAtParse) {
  const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=4",
                           "--iterations=20", "--bg-iterations=40",
                           "--shards=0"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--shards"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("at least 1"), std::string::npos) << r.err;
}

TEST(CliTest, ShardsWithTenantsFailsAtParse) {
  // The partitioned runtime has no tenant field; say so before running.
  const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=16",
                           "--iterations=20", "--shards=4", "--tenants=4"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--shards"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("--tenants"), std::string::npos) << r.err;
}

TEST(CliTest, ShardsWithTenantsFailsAtParseOnOneNode) {
  // Rejected whatever the node count, so the answer does not depend on
  // --cores.
  const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=4",
                           "--iterations=20", "--shards=2", "--tenants=2"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--tenants"), std::string::npos) << r.err;
}

TEST(CliTest, JobsWithoutShardsFailsAtParse) {
  // --jobs sizes the shard worker team, which one shard does not have;
  // rejected with --shards left at its default and spelled out as 1.
  std::vector<std::string> args = {"penalty", "--app=jacobi2d", "--cores=16",
                                   "--iterations=20", "--bg-iterations=40",
                                   "--jobs=2"};
  for (int pass = 0; pass < 2; ++pass) {
    const CliResult r = cli(args);
    EXPECT_EQ(r.code, 2) << pass;
    EXPECT_NE(r.err.find("--jobs"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("--shards"), std::string::npos) << r.err;
    args.emplace_back("--shards=1");
  }
}

TEST(CliTest, TimelineWithShardsFailsAtParse) {
  for (const char* cores : {"--cores=16", "--cores=4"}) {
    const CliResult r = cli({"timeline", "--app=jacobi2d", cores,
                             "--iterations=16", "--bg-iterations=30",
                             "--shards=4"});
    EXPECT_EQ(r.code, 2) << cores;
    EXPECT_NE(r.err.find("timeline"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("--shards"), std::string::npos) << r.err;
  }
}

TEST(CliTest, EstimatorClampFactorBelowOneFailsAtParse) {
  const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=4",
                           "--iterations=20", "--bg-iterations=40",
                           "--estimator-clamp-factor=0.5"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--estimator-clamp-factor"), std::string::npos)
      << r.err;
  EXPECT_NE(r.err.find("at least 1"), std::string::npos) << r.err;
}

TEST(CliTest, UnknownEstimatorModeListsTheValidOnes) {
  const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=4",
                           "--iterations=20", "--bg-iterations=40",
                           "--estimator=psychic"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("persist|ewma|trend|regress"), std::string::npos)
      << r.err;
}

TEST(CliTest, NonPositiveForecastHorizonFailsAtParse) {
  const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=4",
                           "--iterations=20", "--bg-iterations=40",
                           "--estimator=trend", "--forecast-horizon=0"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--forecast-horizon"), std::string::npos) << r.err;
}

TEST(CliTest, NegativeForecastMarginFailsAtParse) {
  const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=4",
                           "--iterations=20", "--bg-iterations=40",
                           "--estimator=ewma", "--forecast-margin=-0.5"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--forecast-margin"), std::string::npos) << r.err;
}

TEST(CliTest, EstimatorFlagsWithBlindBalancersFailAtParse) {
  // The baselines estimate no background load; a flag they would ignore
  // is an error naming the flag and the balancer, in every single-
  // balancer command.
  for (const char* balancer : {"null", "greedy", "refine", "random"}) {
    for (const std::string arg :
         {"--estimator=regress", "--estimator-window=3",
          "--estimator-clamp-factor=2", "--forecast-horizon=2",
          "--forecast-margin=1", "--lb-fallback"}) {
      const std::string name = std::string{"--balancer="} + balancer;
      const std::string flag = arg.substr(0, arg.find('='));
      const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=4",
                               "--iterations=20", name, arg});
      EXPECT_EQ(r.code, 2) << name << ' ' << arg;
      EXPECT_NE(r.err.find(flag + " has no effect"), std::string::npos)
          << r.err;
      EXPECT_NE(r.err.find(name), std::string::npos) << r.err;
    }
  }
  for (const char* command : {"record", "timeline"}) {
    const CliResult r =
        cli({command, "--out=/dev/null", "--balancer=refine",
             "--estimator=regress"});
    EXPECT_EQ(r.code, 2) << command;
    EXPECT_NE(r.err.find("--estimator"), std::string::npos) << r.err;
  }
}

TEST(CliTest, LbFallbackWithGainGatedFailsAtParse) {
  const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=4",
                           "--iterations=20", "--balancer=gain-gated",
                           "--lb-fallback"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--lb-fallback"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("--balancer=gain-gated"), std::string::npos) << r.err;
}

TEST(CliTest, GainGatedHonoursTheEstimator) {
  // gain-gated estimates through ia-refine's front end, so a forecasting
  // mode changes its decisions instead of being dropped.
  const auto run = [](const char* estimator) {
    return cli({"penalty", "--app=jacobi2d", "--cores=4", "--iterations=20",
                "--bg-iterations=40", "--balancer=gain-gated", estimator});
  };
  const CliResult persist = run("--estimator=persist");
  const CliResult regress = run("--estimator=regress");
  ASSERT_EQ(persist.code, 0) << persist.err;
  ASSERT_EQ(regress.code, 0) << regress.err;
  EXPECT_NE(persist.out, regress.out);
}

TEST(CliTest, EwmaPresetIsIaRefineWithTheEwmaEstimator) {
  const auto run = [](std::vector<std::string> extra) {
    std::vector<std::string> args = {"penalty", "--app=jacobi2d",
                                     "--cores=8", "--tenants=4",
                                     "--iterations=20", "--csv"};
    args.insert(args.end(), extra.begin(), extra.end());
    return cli(args);
  };
  CliResult preset = run({"--balancer=ia-refine-ewma"});
  const CliResult spelled = run({"--balancer=ia-refine", "--estimator=ewma"});
  ASSERT_EQ(preset.code, 0) << preset.err;
  ASSERT_EQ(spelled.code, 0) << spelled.err;
  // Only the echoed balancer name differs.
  const std::string from = "ia-refine-ewma";
  preset.out.replace(preset.out.find(from), from.size(), "ia-refine");
  EXPECT_EQ(preset.out, spelled.out);
}

TEST(CliTest, EwmaPresetWithAnotherEstimatorFailsAtParse) {
  // sweep too: the preset conflict is not a blind-balancer flag.
  const std::vector<std::pair<std::string, std::string>> runs = {
      {"penalty", "--balancer=ia-refine-ewma"},
      {"sweep", "--balancers=null,ia-refine-ewma"}};
  for (const auto& [command, balancer] : runs) {
    const CliResult r = cli({command, "--app=jacobi2d", "--cores=4",
                             "--iterations=20", balancer,
                             "--estimator=trend"});
    EXPECT_EQ(r.code, 2) << command;
    EXPECT_NE(r.err.find("--balancer=ia-refine-ewma"), std::string::npos)
        << r.err;
    EXPECT_NE(r.err.find("--estimator=trend"), std::string::npos) << r.err;
  }
}

TEST(CliTest, ForecastingPenaltyRunsEndToEnd) {
  const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=4",
                           "--iterations=20", "--bg-iterations=40",
                           "--estimator=trend", "--estimator-window=3",
                           "--forecast-margin=0.5"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("app penalty (%)"), std::string::npos);
}

// Every probe below once ran silently, or died mid-run on a CHECK that
// named no flag. Each must now fail in the table pass, before any
// simulation starts, with an error naming the flag.
void expect_rejected(const std::vector<std::string>& args,
                     const std::string& flag) {
  const std::string error = parse_error_of(args);
  EXPECT_NE(error.find(flag), std::string::npos)
      << args[1] << " -> '" << error << "'";
  const CliResult r = cli(args);
  EXPECT_EQ(r.code, 2) << args[1];
  EXPECT_NE(r.err.find(flag), std::string::npos) << r.err;
}

TEST(CliTest, NegativeCountsFailAtParse) {
  expect_rejected({"penalty", "--tenants=-2"}, "--tenants");
  expect_rejected({"penalty", "--migration-retries=-1"},
                  "--migration-retries");
  expect_rejected({"penalty", "--iterations=-5"}, "--iterations");
  expect_rejected({"penalty", "--jobs=-1", "--shards=2"}, "--jobs");
  expect_rejected({"sweep", "--jobs=-1"}, "--jobs");
}

TEST(CliTest, ValuesThatFailedMidRunFailAtParse) {
  expect_rejected({"penalty", "--cores=0"}, "--cores");
  expect_rejected({"penalty", "--lb-period=-1"}, "--lb-period");
  expect_rejected({"penalty", "--epsilon=-1"}, "--epsilon");
  expect_rejected({"penalty", "--epsilon=nan"}, "--epsilon");
  expect_rejected({"penalty", "--bg-weight=0"}, "--bg-weight");
  expect_rejected({"penalty", "--bg-iterations=0"}, "--bg-iterations");
  expect_rejected({"timeline", "--width=0"}, "--width");
}

TEST(CliTest, CoresBelowTheBackgroundJobFailAtParse) {
  expect_rejected({"penalty", "--cores=1"}, "--cores");
  expect_rejected({"sweep", "--cores=1,4"}, "--cores");
  expect_rejected({"penalty", "--cores=1", "--tenants=2", "--with-bg"},
                  "--cores");
  EXPECT_EQ(parse_error("penalty", {"--cores=1", "--tenants=2"}), "");
}

// Each core needs a chare; one core more than an app has used to fail a
// runtime check that named no flag.
TEST(CliTest, CoresAboveTheAppsChareCountFailAtParse) {
  const std::pair<std::string, int> apps[] = {
      {"jacobi2d", 512}, {"wave2d", 512}, {"mol3d", 128}};
  for (const auto& [app, chares] : apps) {
    const std::string over = std::to_string(chares + 1);
    for (const std::vector<std::string>& args :
         {std::vector<std::string>{"penalty", "--cores=" + over},
          {"timeline", "--cores=" + over},
          {"record", "--out=unused.lbstats", "--cores=" + over},
          {"sweep", "--cores=4," + over}}) {
      std::vector<std::string> line = args;
      line.push_back("--app=" + app);
      expect_rejected(line, "--cores");
      const std::string error = parse_error_of(line);
      EXPECT_NE(error.find("--app=" + app), std::string::npos) << error;
      EXPECT_NE(error.find(std::to_string(chares) + " chares"),
                std::string::npos)
          << error;
    }
    EXPECT_EQ(parse_error("penalty", {"--app=" + app,
                                      "--cores=" + std::to_string(chares)}),
              "");
  }
  const CliResult r = cli({"penalty", "--app=mol3d", "--cores=128",
                           "--iterations=4", "--bg-iterations=10"});
  EXPECT_EQ(r.code, 0) << r.err;
}

TEST(CliTest, RepeatedFlagFailsAtParse) {
  expect_rejected({"penalty", "--cores=4", "--cores=8"}, "--cores");
  EXPECT_NE(parse_error("penalty", {"--csv", "--csv"}).find("more than once"),
            std::string::npos);
}

TEST(CliTest, StrayPositionalFailsAtParse) {
  expect_rejected({"penalty", "stray"}, "stray");
  expect_rejected({"replay", "--trace=x", "stray"}, "stray");
}

TEST(CliTest, ListCommandsTakeNoFlags) {
  for (const char* command : {"apps", "balancers", "help"}) {
    const CliResult r = cli({command, "--cores=4"});
    EXPECT_EQ(r.code, 2) << command;
    EXPECT_NE(r.err.find("--cores"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find(command), std::string::npos) << r.err;
  }
  EXPECT_EQ(cli({"help", "nonsense"}).code, 2);
}

TEST(CliTest, WithBgWithoutTenantsFailsAtParse) {
  // Once misreported as an unknown option.
  expect_rejected({"penalty", "--with-bg"}, "--with-bg");
  const std::string error =
      parse_error("timeline", {"--with-bg", "--tenants=0"});
  EXPECT_NE(error.find("--tenants > 0"), std::string::npos) << error;
  EXPECT_EQ(error.find("unknown"), std::string::npos) << error;
}

TEST(CliTest, SweepEmptyBalancerFailsAtParse) {
  expect_rejected({"sweep", "--balancers="}, "--balancers");
  expect_rejected({"sweep", "--balancers=null,,ia-refine"}, "--balancers");
  expect_rejected({"sweep", "--balancers=null,"}, "--balancers");
}

TEST(CliTest, EpsilonWithBalancersWithoutToleranceFailsAtParse) {
  for (const char* balancer : {"null", "greedy", "random"}) {
    const std::string name = std::string{"--balancer="} + balancer;
    for (const char* command : {"penalty", "record", "timeline"})
      expect_rejected({command, "--out=/dev/null", name, "--epsilon=0.1"},
                      "--epsilon has no effect with " + name);
    expect_rejected({"replay", "--trace=x", name, "--epsilon=0.1"},
                    "--epsilon has no effect with " + name);
  }
  EXPECT_EQ(parse_error("replay", {"--trace=x", "--balancer=refine",
                                   "--epsilon=0.1"}),
            "");
}

TEST(CliTest, EveryViolationIsReportedAtOnce) {
  const std::string error = parse_error(
      "penalty", {"--cores=2", "--cores=3", "--coers=1", "stray",
                  "--balancer=null", "--estimator=ewma"});
  for (const char* part : {"--cores", "--coers", "stray", "--estimator"})
    EXPECT_NE(error.find(part), std::string::npos) << part << ": " << error;
}

TEST(CliTest, HelpListsEachCommandsFlagsFromTheTable) {
  for (const std::string command : {"penalty", "sweep", "timeline", "record",
                                    "replay", "apps", "balancers", "help"}) {
    const CliResult r = cli({"help", command});
    EXPECT_EQ(r.code, 0) << command;
    for (const Flag* flag : cli_flags(command))
      EXPECT_NE(r.out.find("--" + std::string{flag->name}), std::string::npos)
          << command << " --" << flag->name;
  }
  EXPECT_NE(cli({"help", "penalty"}).out.find("--with-bg"), std::string::npos);
  for (const char* command : {"penalty", "sweep", "replay"})
    EXPECT_NE(cli({"help", command}).out.find("--csv"), std::string::npos);
  EXPECT_NE(cli({"help"}).out.find("cloudlb help <command>"),
            std::string::npos);
}

// ------------------------------------------------------ pairwise flag grid
//
// For each command, every pair of its table flags at representative legal
// values drawn from the rows themselves, so a new row is covered without
// touching this test. A cell the table accepts must run to exit 0 under
// validation; a cell a constraint rejects must name one of its flags, and
// is retried with one more flag added (e.g. --shards=2 for --jobs), so a
// flag that needs a partner still runs. Every out-of-range value, one flag
// at a time, must fail the parse with an error naming that flag.

// Free-form strings have no range to draw from; each needs samples here.
// The fault specs start hog VMs of all three kinds, so every pair also
// runs beside live interference under the engine's strict clock.
std::vector<std::string> free_text_samples(const std::string& name) {
  if (name == "faults")
    return {"spike(core=1,start=0.01,duration=0.02);seed(value=3)",
            "square(core=2,start=0.005,period=0.04,on=0.02);"
            "pareto(cores=2,min_on=0.005,mean_off=0.03);seed(value=5)"};
  if (name == "out") return {::testing::TempDir() + "/cloudlb_grid.lbstats"};
  if (name == "trace")
    return {::testing::TempDir() + "/cloudlb_grid_in.lbstats"};
  return {};
}

std::string free_text_sample(const std::string& name) {
  return free_text_samples(name).front();
}

std::string arg(const Flag& flag, const std::string& value) {
  return "--" + std::string{flag.name} + "=" + value;
}

std::string num(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

// One legal value per number: the lower edge (a step inside an open one),
// moved a step up when that is the default, so the cell differs from the
// default run. Every name but the default; bools bare.
std::vector<std::string> legal_args(const Flag& flag) {
  const Range& r = flag.range;
  std::vector<std::string> values;
  switch (flag.kind) {
    case FlagKind::kBool:
      return {"--" + std::string{flag.name}};
    case FlagKind::kString:
    case FlagKind::kStringList:
      if (r.names == nullptr) {
        values = free_text_samples(flag.name);
        EXPECT_FALSE(values.empty()) << "no sample for --" << flag.name;
        break;
      }
      for (const std::string& name : r.names())
        if (name != flag.fallback) values.push_back(name);
      break;
    case FlagKind::kInt:
    case FlagKind::kDouble:
    case FlagKind::kIntList: {
      const double step = flag.kind == FlagKind::kDouble && r.open_lo ? 0.5 : 1;
      double edge = r.open_lo ? r.lo + step : r.lo;
      if (edge == std::strtod(flag.fallback, nullptr)) edge += 1;
      values = {num(edge)};
      break;
    }
  }
  std::vector<std::string> args;
  for (const std::string& v : values) args.push_back(arg(flag, v));
  return args;
}

// Out-of-range and malformed values, each of which must be rejected.
std::vector<std::string> illegal_args(const Flag& flag) {
  const Range& r = flag.range;
  std::vector<std::string> values;
  switch (flag.kind) {
    case FlagKind::kBool:
      values = {"maybe"};
      break;
    case FlagKind::kString:
      if (r.names != nullptr) values = {"bogus"};
      if (std::string{flag.name} == "faults")  // an unknown model, a bad value
        values = {"bogus", "spike(core=1,start=0.01,duration=-0.02)"};
      break;
    case FlagKind::kStringList:
      values = {"bogus", "", r.names ? r.names()[0] + "," : ","};
      break;
    case FlagKind::kInt:
    case FlagKind::kIntList:
      values = {num(r.open_lo ? r.lo : r.lo - 1), "x", "1.5", "99999999999"};
      if (flag.kind == FlagKind::kIntList)
        values.insert(values.end(), {"8,", "8," + values[0]});
      break;
    case FlagKind::kDouble:
      values = {num(r.open_lo ? r.lo : r.lo - 1), "nan", "inf", "x"};
      break;
  }
  std::vector<std::string> args;
  for (const std::string& v : values) args.push_back(arg(flag, v));
  return args;
}

std::string flag_of(const std::string& arg) {
  return arg.substr(0, arg.find('='));
}

// The command line of one cell: the small base run (one balancer for
// sweep), minus any flag the cell sets itself.
std::vector<std::string> cell_args(const std::string& command,
                                   const std::vector<std::string>& cell) {
  std::vector<std::string> args{command};
  for (const std::string& base :
       {std::string{"--cores=8"}, std::string{"--iterations=10"},
        std::string{"--bg-iterations=10"}, std::string{"--balancers=ia-refine"},
        "--out=" + free_text_sample("out"),
        "--trace=" + free_text_sample("trace")}) {
    const std::string flag = flag_of(base);
    const auto accepted = cli_flags(command);
    const bool accepts = std::any_of(
        accepted.begin(), accepted.end(),
        [&flag](const Flag* f) { return flag == "--" + std::string{f->name}; });
    const bool in_cell = std::any_of(
        cell.begin(), cell.end(),
        [&flag](const std::string& a) { return flag_of(a) == flag; });
    if (accepts && !in_cell) args.push_back(base);
  }
  args.insert(args.end(), cell.begin(), cell.end());
  return args;
}

std::string joined(const std::vector<std::string>& args) {
  std::string line;
  for (const std::string& a : args) line += a + ' ';
  return line;
}

void run_flag_grid(const std::string& command) {
  const ValidationScope validate{true};
  if (command == "replay") {
    const CliResult record =
        cli({"record", "--out=" + free_text_sample("trace"), "--cores=8",
             "--iterations=10", "--bg-iterations=10"});
    ASSERT_EQ(record.code, 0) << record.err;
  }
  const std::vector<const Flag*> flags = cli_flags(command);
  ASSERT_FALSE(flags.empty());

  for (const Flag* flag : flags)
    for (const std::string& bad : illegal_args(*flag)) {
      const std::string error = parse_error_of(cell_args(command, {bad}));
      EXPECT_NE(error.find(flag_of(bad)), std::string::npos)
          << command << ' ' << bad << " -> '" << error << "'";
    }

  std::vector<std::string> samples;
  for (const Flag* flag : flags)
    for (const std::string& a : legal_args(*flag)) samples.push_back(a);
  std::vector<std::vector<std::string>> runs;
  std::set<std::string> ran;  // samples that run in at least one cell
  int cells = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    for (std::size_t j = i + 1; j < samples.size(); ++j) {
      const std::string& a = samples[i];
      const std::string& b = samples[j];
      if (flag_of(a) == flag_of(b)) continue;
      ++cells;
      std::vector<std::string> cell{a, b};
      const std::string error = parse_error_of(cell_args(command, cell));
      if (!error.empty()) {
        EXPECT_TRUE(error.find(flag_of(a)) != std::string::npos ||
                    error.find(flag_of(b)) != std::string::npos)
            << a << ' ' << b << " -> '" << error << "'";
        // A rule may want a partner flag (--jobs wants --shards=2): try
        // each other sample as one.
        const auto partner = std::find_if(
            samples.begin(), samples.end(), [&](const std::string& extra) {
              return flag_of(extra) != flag_of(a) &&
                     flag_of(extra) != flag_of(b) &&
                     parse_error_of(cell_args(command, {a, b, extra})).empty();
            });
        if (partner == samples.end()) continue;
        cell.push_back(*partner);
      }
      ran.insert(cell.begin(), cell.end());
      runs.push_back(cell_args(command, cell));
      // Cells run concurrently, so each record writes its own trace.
      for (std::string& arg : runs.back())
        if (flag_of(arg) == "--out")
          arg += '.' + std::to_string(runs.size());
    }
  }
  // A value no partner can make legal must be a rule's on its own
  // (timeline's --shards=2), named in the rejection.
  for (const std::string& sample : samples) {
    if (ran.contains(sample)) continue;
    const std::string error = parse_error_of(cell_args(command, {sample}));
    EXPECT_NE(error.find(flag_of(sample)), std::string::npos)
        << sample << " never runs";
  }

  const std::vector<CliResult> results = parallel_map<CliResult>(
      runs.size(), 0, [&runs](std::size_t i) { return cli(runs[i]); });
  for (std::size_t i = 0; i < runs.size(); ++i)
    EXPECT_EQ(results[i].code, 0) << joined(runs[i]) << '\n' << results[i].err;
  std::cout << command << ": " << cells << " cells, " << runs.size()
            << " run\n";
}

TEST(CliFlagGrid, Penalty) { run_flag_grid("penalty"); }
TEST(CliFlagGrid, Sweep) { run_flag_grid("sweep"); }
TEST(CliFlagGrid, Timeline) { run_flag_grid("timeline"); }
TEST(CliFlagGrid, Record) { run_flag_grid("record"); }
TEST(CliFlagGrid, Replay) { run_flag_grid("replay"); }

}  // namespace
}  // namespace cloudlb
