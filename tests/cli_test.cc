#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/cli.h"
#include "util/check.h"
#include "util/options.h"

namespace cloudlb {
namespace {

// ---------------------------------------------------------------- Options

TEST(OptionsTest, ParsesEqualsForm) {
  Options options{{"--app=wave2d", "--cores=8"}};
  EXPECT_EQ(options.get_string("app"), "wave2d");
  EXPECT_EQ(options.get_int("cores"), 8);
}

TEST(OptionsTest, ParsesSpaceForm) {
  Options options{{"--app", "mol3d", "--cores", "16"}};
  EXPECT_EQ(options.get_string("app"), "mol3d");
  EXPECT_EQ(options.get_int("cores"), 16);
}

TEST(OptionsTest, BareFlagIsTrue) {
  Options options{{"--csv", "--verbose=false"}};
  EXPECT_TRUE(options.get_bool("csv"));
  EXPECT_FALSE(options.get_bool("verbose"));
  EXPECT_FALSE(options.get_bool("absent", false));
  EXPECT_TRUE(options.get_bool("absent2", true));
}

TEST(OptionsTest, PositionalArgumentsKept) {
  Options options{{"sweep", "--cores=4", "extra"}};
  EXPECT_EQ(options.positional(),
            (std::vector<std::string>{"sweep", "extra"}));
}

TEST(OptionsTest, DefaultsWhenMissing) {
  Options options{{}};
  EXPECT_EQ(options.get_string("app", "jacobi2d"), "jacobi2d");
  EXPECT_EQ(options.get_int("cores", 8), 8);
  EXPECT_DOUBLE_EQ(options.get_double("epsilon", 0.05), 0.05);
}

TEST(OptionsTest, IntListParsing) {
  Options options{{"--cores=4,8,16,32"}};
  EXPECT_EQ(options.get_int_list("cores"), (std::vector<int>{4, 8, 16, 32}));
  Options single{{"--cores=7"}};
  EXPECT_EQ(single.get_int_list("cores"), (std::vector<int>{7}));
}

TEST(OptionsTest, TypeErrorsThrow) {
  Options options{{"--cores=eight", "--epsilon=tiny", "--csv=maybe",
                   "--list=1,x"}};
  EXPECT_THROW(options.get_int("cores"), CheckFailure);
  EXPECT_THROW(options.get_double("epsilon"), CheckFailure);
  EXPECT_THROW(options.get_bool("csv"), CheckFailure);
  EXPECT_THROW(options.get_int_list("list"), CheckFailure);
}

TEST(OptionsTest, UnusedOptionsDetected) {
  Options options{{"--app=wave2d", "--epsilan=0.1"}};
  options.get_string("app");
  EXPECT_THROW(options.check_unused(), CheckFailure);
  options.get_double("epsilan");
  EXPECT_NO_THROW(options.check_unused());
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
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(CliTest, HelpSucceeds) {
  const CliResult r = cli({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("penalty"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  const CliResult r = cli({"frobnicate"});
  EXPECT_EQ(r.code, 1);
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
  const CliResult r = cli({"replay", "--trace=/no/such/file.lbstats"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("cannot open"), std::string::npos);
}

TEST(CliTest, RecordRequiresOut) {
  const CliResult r = cli({"record", "--app=jacobi2d"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--out"), std::string::npos);
}

TEST(CliTest, BadOptionValueReportsError) {
  const CliResult r = cli({"penalty", "--cores=many"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("error:"), std::string::npos);
}

TEST(CliTest, UnknownOptionReportsError) {
  const CliResult r = cli({"penalty", "--coers=8", "--iterations=10",
                           "--bg-iterations=20"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--coers"), std::string::npos);
}

TEST(CliTest, UnknownBalancerReportsError) {
  const CliResult r = cli({"penalty", "--balancer=magic"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown balancer"), std::string::npos);
}

TEST(CliTest, UnknownAppReportsError) {
  const CliResult r = cli({"penalty", "--app=linpack"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown application"), std::string::npos);
}

TEST(CliTest, EstimatorWindowTooSmallFailsAtParse) {
  // 1 or 2 samples have a degenerate median; the flag takes 0 (off) or
  // >= 3, and the error must name both the flag and the rule.
  const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=4",
                           "--iterations=20", "--bg-iterations=40",
                           "--estimator-window=2"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--estimator-window"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("at least 3"), std::string::npos) << r.err;
}

TEST(CliTest, ShardCountBelowOneFailsAtParse) {
  const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=4",
                           "--iterations=20", "--bg-iterations=40",
                           "--shards=0"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--shards"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("at least 1"), std::string::npos) << r.err;
}

TEST(CliTest, ShardsWithTenantsFailsAtParse) {
  // The partitioned runtime has no tenant field; say so before running.
  const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=16",
                           "--iterations=20", "--shards=4", "--tenants=4"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--shards"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("--tenants"), std::string::npos) << r.err;
}

TEST(CliTest, ShardsWithTenantsFailsAtParseOnOneNode) {
  // Rejected whatever the node count, so the answer does not depend on
  // --cores.
  const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=4",
                           "--iterations=20", "--shards=2", "--tenants=2"});
  EXPECT_EQ(r.code, 1);
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
    EXPECT_EQ(r.code, 1) << pass;
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
    EXPECT_EQ(r.code, 1) << cores;
    EXPECT_NE(r.err.find("timeline"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("--shards"), std::string::npos) << r.err;
  }
}

TEST(CliTest, EstimatorClampFactorBelowOneFailsAtParse) {
  const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=4",
                           "--iterations=20", "--bg-iterations=40",
                           "--estimator-clamp-factor=0.5"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--estimator-clamp-factor"), std::string::npos)
      << r.err;
  EXPECT_NE(r.err.find("at least 1"), std::string::npos) << r.err;
}

TEST(CliTest, UnknownEstimatorModeListsTheValidOnes) {
  const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=4",
                           "--iterations=20", "--bg-iterations=40",
                           "--estimator=psychic"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("persist|ewma|trend|regress"), std::string::npos)
      << r.err;
}

TEST(CliTest, NonPositiveForecastHorizonFailsAtParse) {
  const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=4",
                           "--iterations=20", "--bg-iterations=40",
                           "--estimator=trend", "--forecast-horizon=0"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--forecast-horizon"), std::string::npos) << r.err;
}

TEST(CliTest, NegativeForecastMarginFailsAtParse) {
  const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=4",
                           "--iterations=20", "--bg-iterations=40",
                           "--estimator=ewma", "--forecast-margin=-0.5"});
  EXPECT_EQ(r.code, 1);
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
      EXPECT_EQ(r.code, 1) << name << ' ' << arg;
      EXPECT_NE(r.err.find(flag + " has no effect"), std::string::npos)
          << r.err;
      EXPECT_NE(r.err.find(name), std::string::npos) << r.err;
    }
  }
  for (const char* command : {"record", "timeline"}) {
    const CliResult r =
        cli({command, "--out=/dev/null", "--balancer=refine",
             "--estimator=regress"});
    EXPECT_EQ(r.code, 1) << command;
    EXPECT_NE(r.err.find("--estimator"), std::string::npos) << r.err;
  }
}

TEST(CliTest, LbFallbackWithGainGatedFailsAtParse) {
  const CliResult r = cli({"penalty", "--app=jacobi2d", "--cores=4",
                           "--iterations=20", "--balancer=gain-gated",
                           "--lb-fallback"});
  EXPECT_EQ(r.code, 1);
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
    EXPECT_EQ(r.code, 1) << command;
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

}  // namespace
}  // namespace cloudlb
