#include "telemetry/export.hh"

#include <fstream>
#include <iostream>

#include "util/json.hh"
#include "util/table.hh"

namespace pim::telemetry {

Registry *
MetricSet::add(std::string name)
{
    if (!enabled_)
        return nullptr;
    registries_.emplace_back();
    names_.push_back(std::move(name));
    return &registries_.back();
}

const Registry *
MetricSet::find(const std::string &name) const
{
    for (size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name)
            return &registries_[i];
    }
    return nullptr;
}

std::vector<MetricSet::Entry>
MetricSet::entries() const
{
    std::vector<Entry> out;
    for (size_t i = 0; i < names_.size(); ++i)
        out.push_back({names_[i], &registries_[i]});
    return out;
}

void
printMetrics(std::ostream &out, const MetricSet &metrics,
             bool print_tables)
{
    if (!metrics.enabled() || !print_tables)
        return;
    for (const MetricSet::Entry &e : metrics.entries()) {
        for (const util::Table &t : e.registry->tables(e.name)) {
            out << "\n";
            t.print(out);
        }
    }
}

bool
writeBenchJson(const std::string &path, const std::string &bench,
               const MetricSet *metrics,
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
    if (metrics != nullptr && metrics->enabled()) {
        j.key("metrics").beginObject();
        for (const MetricSet::Entry &e : metrics->entries()) {
            j.key(e.name);
            e.registry->writeJson(j);
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
