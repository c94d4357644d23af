#include "util/cli.hh"

#include <climits>
#include <cstdlib>
#include <set>
#include <sstream>

#include "util/logging.hh"

namespace pim::util {

Cli::Cli(int argc, char **argv, const std::string &known)
{
    std::set<std::string> allowed;
    if (!known.empty()) {
        std::istringstream is(known);
        std::string tok;
        while (std::getline(is, tok, ','))
            allowed.insert(tok);
    }

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            PIM_FATAL("unexpected positional argument '", arg, "'");
        arg = arg.substr(2);
        std::string name;
        std::string value;
        auto eq = arg.find('=');
        if (eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
        } else {
            name = arg;
            // --flag value (if next token is not a flag), else boolean.
            if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0)
                value = argv[++i];
            else
                value = "true";
        }
        if (!allowed.empty() && !allowed.count(name))
            PIM_FATAL("unknown flag --", name);
        values_[name] = value;
    }
}

bool
Cli::has(const std::string &name) const
{
    return values_.count(name) > 0;
}

std::string
Cli::get(const std::string &name, const std::string &def) const
{
    auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
}

int64_t
Cli::getInt(const std::string &name, int64_t def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    char *end = nullptr;
    const int64_t v = std::strtoll(it->second.c_str(), &end, 0);
    if (end == it->second.c_str() || *end != '\0')
        PIM_FATAL("flag --", name, " expects an integer, got '",
                  it->second, "'");
    return v;
}

double
Cli::getDouble(const std::string &name, double def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    char *end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        PIM_FATAL("flag --", name, " expects a number, got '",
                  it->second, "'");
    return v;
}

bool
Cli::getBool(const std::string &name, bool def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    return it->second != "false" && it->second != "0";
}

std::string
benchKnobNames(const std::string &extra)
{
    std::string names = "dpus,sample,tasklets,threads,json,trace,"
                        "occupancy,metrics,fault-seed,mtbf,fault-spec";
    if (!extra.empty()) {
        names += ',';
        names += extra;
    }
    return names;
}

namespace {

/** Read an integer knob, enforcing @p min <= value <= @p max. The
 *  default bound is the largest value an unsigned knob can hold, so a
 *  huge count is rejected instead of wrapping to a small one. */
int64_t
knobInt(const Cli &cli, const char *name, int64_t def, int64_t min,
        int64_t max = UINT_MAX)
{
    const int64_t v = cli.getInt(name, def);
    if (v < min || v > max)
        PIM_FATAL("flag --", name, " must be >= ", min, " and <= ", max,
                  ", got ", v);
    return v;
}

} // namespace

BenchKnobs
parseBenchKnobs(const Cli &cli, const BenchKnobs &defaults)
{
    BenchKnobs k = defaults;
    k.dpus = static_cast<unsigned>(knobInt(cli, "dpus", k.dpus, 1));
    k.sample =
        static_cast<unsigned>(knobInt(cli, "sample", k.sample, 0));
    k.tasklets =
        static_cast<unsigned>(knobInt(cli, "tasklets", k.tasklets, 1));
    // 0 means "auto" internally, but an *explicit* --threads=0 (or a
    // negative count, or one too large to hold) is a config error, not
    // a request for the default.
    if (cli.has("threads")) {
        const int64_t t = cli.getInt("threads", 0);
        if (t <= 0 || t > UINT_MAX)
            PIM_FATAL("flag --threads must be a positive integer, got ",
                      t, " (omit the flag or set PIM_SIM_THREADS for "
                      "the automatic thread count)");
        k.threads = static_cast<unsigned>(t);
    }
    k.jsonPath = cli.get("json", k.jsonPath);
    k.tracePath = cli.get("trace", k.tracePath);
    k.occupancy = cli.getBool("occupancy", k.occupancy);
    k.metrics = cli.getBool("metrics", k.metrics);
    k.faultSeed = static_cast<uint64_t>(
        knobInt(cli, "fault-seed", static_cast<int64_t>(k.faultSeed), 0,
                INT64_MAX));
    k.mtbf = cli.getDouble("mtbf", k.mtbf);
    if (k.mtbf < 0)
        PIM_FATAL("flag --mtbf must be >= 0, got ", k.mtbf);
    k.faultSpec = cli.get("fault-spec", k.faultSpec);
    return k;
}

} // namespace pim::util
