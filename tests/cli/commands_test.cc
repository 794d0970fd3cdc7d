/**
 * @file
 * End-to-end tests of the cidre_sim subcommands (through the dispatch
 * layer, with captured output).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "cli/commands.h"
#include "cli/options.h"
#include "sim/topology.h"

namespace cidre::cli {
namespace {

struct RunResult
{
    int status;
    std::string out;
    std::string err;
};

RunResult
invoke(std::initializer_list<const char *> args)
{
    std::vector<const char *> argv = {"cidre_sim"};
    argv.insert(argv.end(), args.begin(), args.end());
    std::ostringstream out;
    std::ostringstream err;
    const int status = dispatch(static_cast<int>(argv.size()),
                                argv.data(), out, err);
    return {status, out.str(), err.str()};
}

TEST(CidreSim, NoCommandPrintsUsage)
{
    const RunResult r = invoke({});
    EXPECT_EQ(r.status, 2);
    EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(CidreSim, UnknownCommandPrintsUsage)
{
    const RunResult r = invoke({"frobnicate"});
    EXPECT_EQ(r.status, 2);
}

TEST(CidreSim, HelpPerCommand)
{
    const RunResult r = invoke({"run", "--help"});
    EXPECT_EQ(r.status, 0);
    EXPECT_NE(r.out.find("--policy"), std::string::npos);
    EXPECT_NE(r.out.find("--cache-gb"), std::string::npos);
}

TEST(CidreSim, GenerateRunAnalyzeRoundTrip)
{
    const std::string path =
        ::testing::TempDir() + "cidre_sim_test_trace.csv";
    const RunResult gen = invoke({"generate", "--out", path.c_str(),
                                  "--kind", "fc", "--scale", "0.03",
                                  "--seed", "5"});
    ASSERT_EQ(gen.status, 0) << gen.err;
    EXPECT_NE(gen.out.find("wrote"), std::string::npos);

    const RunResult run = invoke({"run", "--trace", path.c_str(),
                                  "--policy", "cidre", "--cache-gb",
                                  "20"});
    ASSERT_EQ(run.status, 0) << run.err;
    EXPECT_NE(run.out.find("avg overhead ratio %"), std::string::npos);
    EXPECT_NE(run.out.find("cold start %"), std::string::npos);

    const RunResult analyze =
        invoke({"analyze", "--trace", path.c_str()});
    ASSERT_EQ(analyze.status, 0) << analyze.err;
    EXPECT_NE(analyze.out.find("cold/exec ratio"), std::string::npos);

    std::remove(path.c_str());
}

TEST(CidreSim, ConvertedImageRunsIdentically)
{
    const std::string csv =
        ::testing::TempDir() + "cidre_sim_convert.csv";
    const std::string ctrb =
        ::testing::TempDir() + "cidre_sim_convert.ctrb";
    const RunResult gen = invoke({"generate", "--out", csv.c_str(),
                                  "--kind", "azure", "--scale", "0.03",
                                  "--seed", "9"});
    ASSERT_EQ(gen.status, 0) << gen.err;

    const RunResult convert =
        invoke({"convert", csv.c_str(), ctrb.c_str()});
    ASSERT_EQ(convert.status, 0) << convert.err;
    EXPECT_NE(convert.out.find("csv -> ctrb"), std::string::npos);

    // --trace auto-detects the format by content; both substrates must
    // produce byte-identical reports.
    const RunResult from_csv = invoke({"run", "--trace", csv.c_str(),
                                       "--policy", "cidre",
                                       "--cache-gb", "20"});
    ASSERT_EQ(from_csv.status, 0) << from_csv.err;
    const RunResult from_image = invoke({"run", "--trace", ctrb.c_str(),
                                         "--policy", "cidre",
                                         "--cache-gb", "20"});
    ASSERT_EQ(from_image.status, 0) << from_image.err;
    EXPECT_EQ(from_image.out, from_csv.out);

    // And back: ctrb -> csv must parse and simulate identically too.
    const std::string csv2 =
        ::testing::TempDir() + "cidre_sim_convert_back.csv";
    const RunResult back = invoke({"convert", ctrb.c_str(), csv2.c_str()});
    ASSERT_EQ(back.status, 0) << back.err;
    EXPECT_NE(back.out.find("ctrb -> csv"), std::string::npos);
    const RunResult from_csv2 = invoke({"run", "--trace", csv2.c_str(),
                                        "--policy", "cidre",
                                        "--cache-gb", "20"});
    ASSERT_EQ(from_csv2.status, 0) << from_csv2.err;
    EXPECT_EQ(from_csv2.out, from_csv.out);

    std::remove(csv.c_str());
    std::remove(csv2.c_str());
    std::remove(ctrb.c_str());
}

TEST(CidreSim, GenerateWritesImageWhenAsked)
{
    const std::string ctrb =
        ::testing::TempDir() + "cidre_sim_generated.ctrb";
    const RunResult gen = invoke({"generate", "--out", ctrb.c_str(),
                                  "--kind", "fc", "--scale", "0.02",
                                  "--seed", "3"});
    ASSERT_EQ(gen.status, 0) << gen.err;
    EXPECT_NE(gen.out.find("wrote"), std::string::npos);
    const RunResult analyze = invoke({"analyze", "--trace", ctrb.c_str()});
    EXPECT_EQ(analyze.status, 0) << analyze.err;
    std::remove(ctrb.c_str());
}

TEST(CidreSim, ConvertErrorsAreReported)
{
    const RunResult missing_args = invoke({"convert", "only-one"});
    EXPECT_EQ(missing_args.status, 2);
    EXPECT_NE(missing_args.err.find("two paths"), std::string::npos);

    const RunResult missing_file = invoke(
        {"convert", "/nonexistent/in.csv", "/nonexistent/out.ctrb"});
    EXPECT_EQ(missing_file.status, 2);
}

TEST(CidreSim, CompareListsEveryPolicy)
{
    const RunResult r = invoke({"compare", "--kind", "azure", "--scale",
                                "0.03", "--policies",
                                "cidre,faascache,ttl", "--cache-gb",
                                "10"});
    ASSERT_EQ(r.status, 0) << r.err;
    EXPECT_NE(r.out.find("cidre"), std::string::npos);
    EXPECT_NE(r.out.find("faascache"), std::string::npos);
    EXPECT_NE(r.out.find("ttl"), std::string::npos);
}

TEST(CidreSim, RunWithSyntheticKnobs)
{
    const RunResult r = invoke({"run", "--kind", "azure", "--scale",
                                "0.03", "--policy", "cidre-bss",
                                "--cache-gb", "10", "--workers", "2",
                                "--threads", "2", "--iat", "1.5",
                                "--exec-scale", "1.2", "--window-min",
                                "5"});
    ASSERT_EQ(r.status, 0) << r.err;
    EXPECT_NE(r.out.find("policy: cidre-bss"), std::string::npos);
}

TEST(CidreSim, ErrorsAreReported)
{
    const RunResult bad_kind =
        invoke({"run", "--kind", "aws", "--scale", "0.01"});
    EXPECT_EQ(bad_kind.status, 2);
    EXPECT_NE(bad_kind.err.find("azure or fc"), std::string::npos);

    const RunResult bad_option = invoke({"run", "--nope", "1"});
    EXPECT_EQ(bad_option.status, 2);
    EXPECT_NE(bad_option.err.find("unknown option"), std::string::npos);

    const RunResult no_out = invoke({"generate", "--kind", "azure"});
    EXPECT_EQ(no_out.status, 2);
    EXPECT_NE(no_out.err.find("--out"), std::string::npos);

    const RunResult bad_policy =
        invoke({"run", "--policy", "bogus", "--scale", "0.01"});
    EXPECT_EQ(bad_policy.status, 2);
    EXPECT_NE(bad_policy.err.find("unknown policy"), std::string::npos);
}

// ---- count options ------------------------------------------------------

TEST(CidreSim, GetCountRejectsOutOfRangeValues)
{
    const std::vector<OptionSpec> specs = {{"n", "n", "a count", "1"}};
    const auto parse = [&specs](const char *value) {
        const char *argv[] = {"cmd", "--n", value};
        return Options::parse(3, argv, specs);
    };
    EXPECT_EQ(parse("7").getCount("n", 1, 1, 8), 7u);
    EXPECT_EQ(Options::parse(1, std::vector<const char *>{"cmd"}.data(),
                             specs)
                  .getCount("n", 3, 1, 8),
              3u); // absent: the fallback
    for (const char *bad : {"-1", "0", "9", "4294967295", "x", "1.5"}) {
        try {
            (void)parse(bad).getCount("n", 1, 1, 8);
            ADD_FAILURE() << "accepted --n " << bad;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("bad integer for --n"),
                      std::string::npos)
                << e.what();
        }
    }
}

/**
 * A negative or oversized count is rejected while the options are
 * parsed: the trace path does not exist, so any later stage (loading
 * the workload, building a pool or a cluster) would fail differently.
 */
TEST(CidreSim, CountOptionsAreRejectedBeforeAnyWork)
{
    const char *missing = "/nonexistent/cidre_sim_count_test.csv";
    struct Case
    {
        std::vector<const char *> args;
        const char *option;
    };
    const std::vector<Case> cases = {
        {{"run", "--jobs", "-1"}, "jobs"},
        {{"run", "--jobs", "1025"}, "jobs"},
        {{"run", "--shards", "-1"}, "shards"},
        {{"run", "--trials", "0"}, "trials"},
        {{"run", "--workers", "-1"}, "workers"},
        {{"run", "--threads", "-1"}, "threads"},
        {{"run", "--cells", "-1"}, "cells"},
        {{"run", "--top-functions", "-1"}, "top-functions"},
        {{"compare", "--jobs", "-1"}, "jobs"},
        {{"compare", "--trials", "-2"}, "trials"},
        {{"live", "--producers", "-1"}, "producers"},
        {{"live", "--producers", "4096"}, "producers"},
        {{"live", "--batch", "0"}, "batch"},
        {{"live", "--ring-capacity", "1"}, "ring-capacity"},
        {{"live", "--ring-capacity", "16777217"}, "ring-capacity"},
        {{"live", "--ring-capacity", "16", "--batch", "17"}, "batch"},
        {{"live", "--open-loop", "--open-loop-requests", "-1"},
         "open-loop-requests"},
        {{"live", "--open-loop-iat-us", "0"}, "open-loop-iat-us"},
        // The last slot, 4 x 2^62 us, would overflow the virtual clock.
        {{"live", "--open-loop-requests", "4", "--open-loop-iat-us",
          "4611686018427387904"},
         "open-loop-iat-us"},
        {{"live", "--open-loop-exec-ms", "-1"}, "open-loop-exec-ms"},
        {{"tune", "--space", "ttl-sec=60", "--shards", "-1"}, "shards"},
    };
    for (const Case &c : cases) {
        std::vector<const char *> argv = {"cidre_sim"};
        argv.insert(argv.end(), c.args.begin(), c.args.end());
        argv.push_back("--trace");
        argv.push_back(missing);
        std::ostringstream out;
        std::ostringstream err;
        const int status = dispatch(static_cast<int>(argv.size()),
                                    argv.data(), out, err);
        EXPECT_EQ(status, 2) << c.args[0] << " --" << c.option;
        EXPECT_NE(err.str().find(std::string("bad integer for --") +
                                 c.option),
                  std::string::npos)
            << err.str();
    }

    const RunResult copies = invoke({"synth", "--out", "x.ctrb", "--copies",
                                     "0", missing});
    EXPECT_EQ(copies.status, 2);
    EXPECT_NE(copies.err.find("bad integer for --copies"),
              std::string::npos)
        << copies.err;
}

TEST(CidreSim, PinCpuIsCheckedAgainstTheTopologyBeforeAnyWork)
{
    // Each value is paired with a nonexistent --trace, so only option
    // parsing can report it; a value that parses fails on the trace.
    const char *missing = "/nonexistent/cidre_sim_pin_test.csv";
    // 4294967295 used to wrap to -1 (unpinned) and 99999 to pin nowhere;
    // both exited 0.
    for (const char *bad : {"4294967295", "99999", "-2", "1.5"}) {
        const RunResult r =
            invoke({"live", "--pin-cpu", bad, "--trace", missing});
        EXPECT_EQ(r.status, 2) << bad;
        EXPECT_NE(r.err.find("bad integer for --pin-cpu"), std::string::npos)
            << bad << ": " << r.err;
    }
    const std::string online =
        std::to_string(sim::CpuTopology::detect().cpus.front().id);
    for (const char *good : {"-1", online.c_str()}) {
        const RunResult r =
            invoke({"live", "--pin-cpu", good, "--trace", missing});
        EXPECT_EQ(r.status, 2) << good;
        EXPECT_EQ(r.err.find("--pin-cpu"), std::string::npos)
            << good << ": " << r.err;
        EXPECT_NE(r.err.find("cannot open"), std::string::npos)
            << good << ": " << r.err;
    }
}

// ---- byte-identity contracts through the CLI ---------------------------

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** The checkpoint and live contract tests share one pinned image. */
class CliContract : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        image_ = ::testing::TempDir() + "cidre_sim_contract.ctrb";
        const RunResult gen = invoke({"generate", "--out", image_.c_str(),
                                      "--scale", "0.05", "--seed", "11"});
        ASSERT_EQ(gen.status, 0) << gen.err;
    }

    static void TearDownTestSuite() { std::remove(image_.c_str()); }

    static std::string image_;
};

std::string CliContract::image_;

TEST_F(CliContract, ResumeEqualsUninterruptedRun)
{
    const std::string &image = image_;
    const std::string dir = ::testing::TempDir();
    for (const char *cells : {"1", "4"}) {
        const std::string full = dir + "cidre_sim_full_" + cells + ".json";
        const std::string resumed =
            dir + "cidre_sim_resumed_" + cells + ".json";
        const std::string ckpt = dir + "cidre_sim_" + cells + ".ckpt";
        const RunResult uninterrupted = invoke(
            {"run", "--policy", "cidre", "--trace", image.c_str(),
             "--workers", "4", "--cells", cells, "--json", full.c_str()});
        ASSERT_EQ(uninterrupted.status, 0) << uninterrupted.err;

        const RunResult stop = invoke(
            {"run", "--policy", "cidre", "--trace", image.c_str(),
             "--workers", "4", "--cells", cells, "--shards", "2",
             "--checkpoint", ckpt.c_str(), "--checkpoint-every-sec", "300",
             "--stop-at-sec", "900"});
        ASSERT_EQ(stop.status, 0) << stop.err;
        EXPECT_NE(stop.out.find("stopped at 900 s"), std::string::npos)
            << stop.out;

        const RunResult resume = invoke(
            {"run", "--policy", "cidre", "--trace", image.c_str(),
             "--workers", "4", "--cells", cells, "--shards", "2",
             "--resume-from", ckpt.c_str(), "--json", resumed.c_str()});
        ASSERT_EQ(resume.status, 0) << resume.err;
        EXPECT_EQ(resume.out, uninterrupted.out) << "cells " << cells;
        EXPECT_EQ(readFile(resumed), readFile(full)) << "cells " << cells;
        ASSERT_FALSE(readFile(full).empty());

        std::remove(full.c_str());
        std::remove(resumed.c_str());
        std::remove(ckpt.c_str());
    }
}

TEST_F(CliContract, StaleCheckpointVersionIsRejected)
{
    const std::string &image = image_;
    const std::string ckpt = ::testing::TempDir() + "cidre_sim_stale.ckpt";
    const RunResult stop = invoke(
        {"run", "--policy", "ttl", "--trace", image.c_str(), "--checkpoint",
         ckpt.c_str(), "--stop-at-sec", "600"});
    ASSERT_EQ(stop.status, 0) << stop.err;

    // Rewrite the header's version field (after the 8-byte magic) to 3,
    // the layout with CIP's per-(worker, function) scan sequences.
    {
        std::fstream file(ckpt,
                          std::ios::in | std::ios::out | std::ios::binary);
        const std::uint32_t stale = 3;
        file.seekp(8);
        file.write(reinterpret_cast<const char *>(&stale), sizeof stale);
    }
    const RunResult resume =
        invoke({"run", "--policy", "ttl", "--trace", image.c_str(),
                "--resume-from", ckpt.c_str()});
    EXPECT_EQ(resume.status, 2);
    EXPECT_NE(resume.err.find("unsupported .ckpt version 3 (expected 4)"),
              std::string::npos)
        << resume.err;
    std::remove(ckpt.c_str());
}

TEST_F(CliContract, LiveEqualsRun)
{
    const std::string &image = image_;
    const std::string dir = ::testing::TempDir();
    for (const char *cells : {"1", "2"}) {
        const std::string run_json = dir + "cidre_sim_run_" + cells + ".json";
        const std::string live_json =
            dir + "cidre_sim_live_" + cells + ".json";
        const RunResult run = invoke(
            {"run", "--policy", "cidre", "--trace", image.c_str(),
             "--workers", "4", "--cells", cells, "--json",
             run_json.c_str()});
        ASSERT_EQ(run.status, 0) << run.err;
        const RunResult live = invoke(
            {"live", "--policy", "cidre", "--trace", image.c_str(),
             "--workers", "4", "--cells", cells, "--json",
             live_json.c_str()});
        ASSERT_EQ(live.status, 0) << live.err;
        ASSERT_FALSE(readFile(run_json).empty());
        EXPECT_EQ(readFile(live_json), readFile(run_json))
            << "cells " << cells;
        // The metrics table follows the live-only timing lines.
        const std::size_t table = live.out.find("policy: cidre");
        ASSERT_NE(table, std::string::npos);
        EXPECT_EQ(live.out.substr(table), run.out) << "cells " << cells;
        std::remove(run_json.c_str());
        std::remove(live_json.c_str());
    }
}

TEST(CidreSim, TuneColdEqualsWarm)
{
    const std::string dir = ::testing::TempDir();
    const std::string warm_json = dir + "cidre_sim_tune_warm.json";
    const std::string cold_json = dir + "cidre_sim_tune_cold.json";
    const char *space = "cells=1|2,ttl-sec=30|600";
    const RunResult warm = invoke(
        {"tune", "--space", space, "--policy", "ttl", "--scale", "0.03",
         "--workers", "4", "--warmup-sec", "600", "--json",
         warm_json.c_str()});
    ASSERT_EQ(warm.status, 0) << warm.err;
    const RunResult cold = invoke(
        {"tune", "--space", space, "--policy", "ttl", "--scale", "0.03",
         "--workers", "4", "--warmup-sec", "600", "--cold", "--jobs", "2",
         "--json", cold_json.c_str()});
    ASSERT_EQ(cold.status, 0) << cold.err;
    EXPECT_NE(warm.out.find("\"evaluated\": 4"), std::string::npos)
        << warm.out;
    EXPECT_EQ(cold.out, warm.out);
    EXPECT_EQ(readFile(cold_json), readFile(warm_json));
    std::remove(warm_json.c_str());
    std::remove(cold_json.c_str());
}

} // namespace
} // namespace cidre::cli
