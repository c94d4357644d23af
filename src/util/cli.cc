#include "util/cli.hh"

#include <climits>
#include <cmath>
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

int64_t
Cli::getCount(const std::string &name, int64_t def, int64_t min,
              int64_t max) const
{
    const int64_t v = getInt(name, def);
    if (v < min || v > max)
        PIM_FATAL("flag --", name, " must be >= ", min, " and <= ", max,
                  ", got ", v);
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
    if (!std::isfinite(v))
        PIM_FATAL("flag --", name, " must be finite, got '", it->second,
                  "'");
    return v;
}

bool
Cli::getBool(const std::string &name, bool def) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return def;
    // A bare --name is stored as "true" by the constructor.
    if (it->second == "true" || it->second == "1")
        return true;
    if (it->second == "false" || it->second == "0")
        return false;
    PIM_FATAL("flag --", name, " expects true, false, 1 or 0, got '",
              it->second, "'");
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

BenchKnobs
parseBenchKnobs(const Cli &cli, const BenchKnobs &defaults)
{
    BenchKnobs k = defaults;
    k.dpus = static_cast<unsigned>(cli.getCount("dpus", k.dpus, 1));
    k.sample =
        static_cast<unsigned>(cli.getCount("sample", k.sample, 0));
    k.tasklets =
        static_cast<unsigned>(cli.getCount("tasklets", k.tasklets, 1));
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
        cli.getCount("fault-seed", static_cast<int64_t>(k.faultSeed), 0,
                     INT64_MAX));
    k.mtbf = cli.getDouble("mtbf", k.mtbf);
    if (k.mtbf < 0)
        PIM_FATAL("flag --mtbf must be >= 0, got ", k.mtbf);
    k.faultSpec = cli.get("fault-spec", k.faultSpec);
    return k;
}

} // namespace pim::util
