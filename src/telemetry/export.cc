#include "telemetry/export.hh"

#include <fstream>
#include <iostream>

#include "trace/chrome_trace.hh"
#include "util/json.hh"

namespace pim::telemetry {

bool
writeBenchJson(const std::string &path, const std::string &bench,
               const trace::ObserverSet *obs,
               const std::function<void(util::JsonWriter &)> &fields)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot open " << path << "\n";
        return false;
    }
    util::JsonWriter j(out);
    j.beginObject();
    j.key("bench").value(bench);
    fields(j);
    if (obs != nullptr && obs->metricsEnabled()) {
        j.key("metrics").beginObject();
        for (const trace::TraceProcess &p : obs->processes()) {
            j.key(p.name);
            p.metrics->writeJson(j);
        }
        j.endObject();
    }
    j.endObject();
    out.flush();
    if (!out) {
        std::cerr << "write failed: " << path << "\n";
        return false;
    }
    return true;
}

} // namespace pim::telemetry
