/**
 * @file
 * Unit tests for the CLI flag parser.
 */

#include <gtest/gtest.h>

#include <vector>

#include "util/cli.hh"

using pim::util::Cli;

namespace {

Cli
parse(std::vector<const char *> args, const std::string &known = "")
{
    args.insert(args.begin(), "prog");
    return Cli(static_cast<int>(args.size()),
               const_cast<char **>(args.data()), known);
}

} // namespace

TEST(Cli, EqualsForm)
{
    auto c = parse({"--name=value"});
    EXPECT_TRUE(c.has("name"));
    EXPECT_EQ(c.get("name", ""), "value");
}

TEST(Cli, SpaceForm)
{
    auto c = parse({"--n", "42"});
    EXPECT_EQ(c.getInt("n", 0), 42);
}

TEST(Cli, BooleanFlag)
{
    auto c = parse({"--verbose", "--on=true", "--one=1"});
    EXPECT_TRUE(c.getBool("verbose", false));
    EXPECT_TRUE(c.getBool("on", false));
    EXPECT_TRUE(c.getBool("one", false));
    EXPECT_FALSE(c.getBool("quiet", false));
}

TEST(Cli, BooleanFalseValue)
{
    auto c = parse({"--verbose=false", "--x=0"});
    EXPECT_FALSE(c.getBool("verbose", true));
    EXPECT_FALSE(c.getBool("x", true));
}

TEST(Cli, Defaults)
{
    auto c = parse({});
    EXPECT_EQ(c.get("missing", "def"), "def");
    EXPECT_EQ(c.getInt("missing", 7), 7);
    EXPECT_DOUBLE_EQ(c.getDouble("missing", 2.5), 2.5);
}

TEST(Cli, DoubleParsing)
{
    auto c = parse({"--rate=0.25"});
    EXPECT_DOUBLE_EQ(c.getDouble("rate", 0), 0.25);
}

TEST(Cli, KnownListAccepts)
{
    auto c = parse({"--a=1", "--b=2"}, "a,b,c");
    EXPECT_EQ(c.getInt("a", 0), 1);
}

TEST(CliDeath, UnknownFlagIsFatal)
{
    EXPECT_DEATH(parse({"--oops=1"}, "a,b"), "unknown flag");
}

TEST(CliDeath, PositionalIsFatal)
{
    EXPECT_DEATH(parse({"positional"}), "positional");
}

TEST(Cli, BenchKnobNamesComposeWithExtras)
{
    EXPECT_EQ(pim::util::benchKnobNames(),
              "dpus,sample,tasklets,threads,json,trace,occupancy,"
              "metrics,fault-seed,mtbf,fault-spec");
    EXPECT_EQ(pim::util::benchKnobNames("requests,rate"),
              "dpus,sample,tasklets,threads,json,trace,occupancy,"
              "metrics,fault-seed,mtbf,fault-spec,requests,rate");
}

TEST(Cli, ParseBenchKnobsReadsSharedFlags)
{
    auto c = parse({"--dpus=64", "--sample=0", "--threads=3",
                    "--json=out.json", "--trace=t.json", "--occupancy"},
                   pim::util::benchKnobNames());
    pim::util::BenchKnobs defaults;
    defaults.tasklets = 8;
    const auto k = pim::util::parseBenchKnobs(c, defaults);
    EXPECT_EQ(k.dpus, 64u);
    EXPECT_EQ(k.sample, 0u);
    EXPECT_EQ(k.tasklets, 8u); // per-bench default survives
    EXPECT_EQ(k.threads, 3u);
    EXPECT_EQ(k.jsonPath, "out.json");
    EXPECT_EQ(k.tracePath, "t.json");
    EXPECT_TRUE(k.occupancy);
    EXPECT_TRUE(k.wantsTrace());
}

TEST(Cli, ParseBenchKnobsDefaults)
{
    auto c = parse({}, pim::util::benchKnobNames());
    const auto k = pim::util::parseBenchKnobs(c);
    EXPECT_EQ(k.dpus, 512u);
    EXPECT_EQ(k.sample, 2u);
    EXPECT_EQ(k.tasklets, 16u);
    EXPECT_EQ(k.threads, 0u);
    EXPECT_TRUE(k.jsonPath.empty());
    EXPECT_TRUE(k.tracePath.empty());
    EXPECT_FALSE(k.occupancy);
    EXPECT_FALSE(k.wantsTrace());
}

TEST(CliDeath, GarbageIntegerIsFatal)
{
    auto c = parse({"--dpus=abc"});
    EXPECT_DEATH(c.getInt("dpus", 0), "expects an integer");
}

TEST(CliDeath, TrailingJunkIntegerIsFatal)
{
    auto c = parse({"--dpus=12moo"});
    EXPECT_DEATH(c.getInt("dpus", 0), "expects an integer");
}

TEST(CliDeath, GarbageDoubleIsFatal)
{
    auto c = parse({"--rate=fast"});
    EXPECT_DEATH(c.getDouble("rate", 0.0), "expects a number");
}

TEST(CliDeath, BooleanTypoIsFatal)
{
    // "no" must not read as true (the old rule: anything but false/0).
    auto c = parse({"--metrics=no"}, pim::util::benchKnobNames());
    EXPECT_DEATH(pim::util::parseBenchKnobs(c),
                 "--metrics expects true, false, 1 or 0, got 'no'");
}

TEST(CliDeath, NanDoubleIsFatal)
{
    // NaN fails every comparison, so --mtbf=nan used to pass the >= 0
    // check and then silently disable fault injection.
    auto c = parse({"--mtbf=nan"}, pim::util::benchKnobNames());
    EXPECT_DEATH(pim::util::parseBenchKnobs(c), "--mtbf must be finite");
}

TEST(CliDeath, NegativeCountIsFatal)
{
    auto c = parse({"--requests=-1"});
    EXPECT_DEATH(c.getCount("requests", 30, 1),
                 "--requests must be >= 1 and <= 4294967295, got -1");
}

TEST(CliDeath, CountAboveUintMaxIsFatal)
{
    auto c = parse({"--reps=4294967296"});
    EXPECT_DEATH(c.getCount("reps", 3, 1),
                 "--reps must be >= 1 and <= 4294967295");
}

TEST(CliDeath, ExplicitZeroThreadsIsFatal)
{
    auto c = parse({"--threads=0"}, pim::util::benchKnobNames());
    EXPECT_DEATH(pim::util::parseBenchKnobs(c),
                 "--threads must be a positive integer");
}

TEST(CliDeath, NegativeThreadsIsFatal)
{
    auto c = parse({"--threads=-4"}, pim::util::benchKnobNames());
    EXPECT_DEATH(pim::util::parseBenchKnobs(c),
                 "--threads must be a positive integer");
}

TEST(CliDeath, ThreadsAboveUintMaxIsFatal)
{
    // 2^32 would otherwise wrap to 0, which means "auto".
    auto c = parse({"--threads=4294967296"}, pim::util::benchKnobNames());
    EXPECT_DEATH(pim::util::parseBenchKnobs(c),
                 "--threads must be a positive integer");
}

TEST(CliDeath, GarbageThreadsIsFatal)
{
    auto c = parse({"--threads=many"}, pim::util::benchKnobNames());
    EXPECT_DEATH(pim::util::parseBenchKnobs(c), "expects an integer");
}

TEST(CliDeath, ZeroDpusIsFatal)
{
    auto c = parse({"--dpus=0"}, pim::util::benchKnobNames());
    EXPECT_DEATH(pim::util::parseBenchKnobs(c), "--dpus must be >= 1");
}

TEST(CliDeath, DpusAboveUintMaxIsFatal)
{
    // 2^32 would otherwise pass the >= 1 check and wrap to 0 DPUs.
    auto c = parse({"--dpus=4294967296"}, pim::util::benchKnobNames());
    EXPECT_DEATH(pim::util::parseBenchKnobs(c),
                 "--dpus must be >= 1 and <= 4294967295");
}

TEST(Cli, ThreadsFlagAcceptsPositive)
{
    auto c = parse({"--threads=7"}, pim::util::benchKnobNames());
    EXPECT_EQ(pim::util::parseBenchKnobs(c).threads, 7u);
}
