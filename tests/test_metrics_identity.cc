/**
 * @file
 * Output byte-identity contract of the --metrics knob: with no registry
 * attached (the default), the benches' txt and JSON outputs are fully
 * deterministic and unchanged — and turning metrics on only *appends*
 * (metric tables to stdout, a "metrics" member to the JSON), never
 * perturbs the figure data itself. A JSON write that fails is
 * reported and fails the run.
 *
 * These tests shell out to the bench binaries next to the test
 * executable (ctest runs with the build directory as cwd) and skip if
 * the benches were not built (PIM_BUILD_BENCH=OFF).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <vector>

namespace {

bool
exists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

/** Run @p cmd, capture combined stdout+stderr and its exit status. */
std::string
runStatus(const std::string &cmd, int &rc)
{
    FILE *p = ::popen((cmd + " 2>&1").c_str(), "r");
    if (p == nullptr) {
        ADD_FAILURE() << "popen failed for: " << cmd;
        rc = -1;
        return {};
    }
    std::string out;
    char buf[4096];
    size_t n;
    while ((n = ::fread(buf, 1, sizeof buf, p)) > 0)
        out.append(buf, n);
    rc = ::pclose(p);
    return out;
}

/** Run @p cmd, capture combined stdout+stderr, fail the test on rc!=0. */
std::string
run(const std::string &cmd)
{
    int rc = 0;
    std::string out = runStatus(cmd, rc);
    EXPECT_EQ(rc, 0) << cmd << "\n" << out;
    return out;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/**
 * The JSON body of @p plain_json up to (but excluding) the final
 * closing brace. writeBenchJson() emits the "metrics" member as the
 * last key before endObject, so this exact byte string must reappear
 * as a prefix of the metrics-enabled JSON.
 */
std::string
bodyPrefix(std::string s)
{
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
        s.pop_back();
    EXPECT_FALSE(s.empty());
    EXPECT_EQ(s.back(), '}');
    s.pop_back();
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
        s.pop_back();
    return s;
}

struct TempFile
{
    explicit TempFile(std::string p) : path(std::move(p)) {}
    ~TempFile() { std::remove(path.c_str()); }
    std::string path;
};

/**
 * The shared identity checks for one bench:
 *  1. two default runs (metrics off) are byte-identical, txt and JSON;
 *  2. the default txt output is a byte prefix of the --metrics output;
 *  3. the default JSON body is a byte prefix of the --metrics JSON,
 *     which additionally carries the "metrics" member.
 */
void
checkBench(const std::string &bin, const std::string &flags,
           const std::string &tag)
{
    if (!exists(bin))
        GTEST_SKIP() << bin << " not built (PIM_BUILD_BENCH=OFF?)";

    const std::string txt_a = run(bin + " " + flags);
    const std::string txt_b = run(bin + " " + flags);
    EXPECT_EQ(txt_a, txt_b) << bin << ": default output not deterministic";

    const std::string txt_m = run(bin + " " + flags + " --metrics");
    ASSERT_GE(txt_m.size(), txt_a.size());
    EXPECT_EQ(txt_m.compare(0, txt_a.size(), txt_a), 0)
        << bin << ": --metrics changed the figure output instead of "
                  "appending to it";

    TempFile ja("identity_" + tag + "_a.json");
    TempFile jb("identity_" + tag + "_b.json");
    TempFile jm("identity_" + tag + "_m.json");
    run(bin + " " + flags + " --json " + ja.path);
    run(bin + " " + flags + " --json " + jb.path);
    const std::string json_a = slurp(ja.path);
    EXPECT_EQ(json_a, slurp(jb.path))
        << bin << ": default JSON not deterministic";

    run(bin + " " + flags + " --metrics --json " + jm.path);
    const std::string json_m = slurp(jm.path);
    const std::string body = bodyPrefix(json_a);
    ASSERT_GE(json_m.size(), body.size());
    EXPECT_EQ(json_m.compare(0, body.size(), body), 0)
        << bin << ": --metrics changed the JSON figure data";
    EXPECT_NE(json_m.find("\"metrics\""), std::string::npos);
}

/** All values of numeric key @p key, in document order. */
std::vector<std::string>
numbersFor(const std::string &json, const std::string &key)
{
    const std::regex re("\"" + key + "\"\\s*:\\s*([-0-9.eE+]+)");
    std::vector<std::string> vals;
    for (auto it = std::sregex_iterator(json.begin(), json.end(), re);
         it != std::sregex_iterator(); ++it)
        vals.push_back((*it)[1].str());
    return vals;
}

} // namespace

TEST(MetricsIdentity, Fig15Microbench)
{
    checkBench("./bench_fig15_microbench", "", "fig15");
}

TEST(MetricsIdentity, Fig17GraphUpdate)
{
    checkBench("./bench_fig17_graph_update", "--dpus 128 --sample 2",
               "fig17");
}

TEST(MetricsIdentity, Fig18LlmServing)
{
    checkBench("./bench_fig18_llm_serving", "--requests 10", "fig18");
}

TEST(MetricsIdentity, SimThroughputCountsUnchangedByMetrics)
{
    const std::string bin = "./bench_sim_throughput";
    if (!exists(bin))
        GTEST_SKIP() << bin << " not built (PIM_BUILD_BENCH=OFF?)";

    // Wall-clock columns vary run to run, so the contract here is that
    // the *simulated* quantities — event and cycle counts — are
    // unchanged by attaching registries (which sim_throughput fills
    // outside the timed region).
    TempFile ja("identity_simtp_a.json");
    TempFile jm("identity_simtp_m.json");
    run(bin + " --allocs 256 --reps 1 --json " + ja.path);
    run(bin + " --allocs 256 --reps 1 --metrics --json " + jm.path);
    const std::string plain = slurp(ja.path);
    const std::string metered = slurp(jm.path);
    for (const char *key : {"sim_events", "elided_spin_events",
                            "model_events", "sim_cycles"}) {
        const auto a = numbersFor(plain, key);
        EXPECT_FALSE(a.empty()) << key;
        EXPECT_EQ(a, numbersFor(metered, key)) << key;
    }
    EXPECT_NE(metered.find("\"metrics\""), std::string::npos);
}

TEST(MetricsIdentity, JsonWriteFailureFailsTheRun)
{
    const std::string bin = "./bench_fig16_cache_sweep";
    if (!exists(bin))
        GTEST_SKIP() << bin << " not built (PIM_BUILD_BENCH=OFF?)";
    if (!exists("/dev/full"))
        GTEST_SKIP() << "/dev/full is not available";
    int rc = 0;
    const std::string out = runStatus(bin + " --json=/dev/full", rc);
    EXPECT_NE(rc, 0) << out;
    EXPECT_NE(out.find("write failed: /dev/full"), std::string::npos)
        << out;
}
