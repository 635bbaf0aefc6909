#include "trace.hh"

#include "metrics/json_stats.hh"
#include "prof/profiler.hh"
#include "sweep.hh"

namespace perfbench {

int
Spans::open(const char *name, int parent, int config)
{
    spans_.push_back({name, nowS(), 0.0, parent, config});
    return static_cast<int>(spans_.size()) - 1;
}

void
Spans::close(int idx)
{
    spans_[static_cast<std::size_t>(idx)].end = nowS();
}

void
Spans::writeJson(std::ostream &os) const
{
    mtsim::JsonWriter w(os);
    w.beginArray();
    for (const Span &sp : spans_) {
        w.beginObject();
        w.kv("name", sp.name);
        w.kv("start_s", sp.start);
        w.kv("end_s", sp.end);
        w.kv("parent", static_cast<std::int64_t>(sp.parent));
        w.kv("config", static_cast<std::int64_t>(sp.config));
        w.endObject();
    }
    w.endArray();
    os << '\n';
}

namespace {

void
addSelf(const mtsim::prof::ProfNode &node,
        std::map<std::string, double> &out)
{
    out[node.name] += static_cast<double>(node.selfNs()) / 1e9;
    for (const auto &c : node.children)
        addSelf(*c, out);
}

} // namespace

std::map<std::string, double>
profilerSelfSeconds()
{
    std::map<std::string, double> out;
    for (const auto &c : mtsim::prof::Profiler::instance().root().children)
        addSelf(*c, out);
    return out;
}

} // namespace perfbench
