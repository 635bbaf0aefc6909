/**
 * @file
 * The traced run's instruments: the benchmark's own spans around each
 * public call it makes, a probe sink that counts modelled events, and
 * the per-layer self times read from the simulator's prof::Profiler
 * cost tree.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/probe.hh"

namespace perfbench {

/** One span: a public call the benchmark made, timed on its side. */
struct Span
{
    const char *name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;   ///< index of the enclosing span, -1 = none
    int config = -1;   ///< configuration id within the sweep, -1 = none
};

/** In-memory span store, written out once at the end of a run. */
class Spans
{
  public:
    /** Open a span now; returns its index for close(). */
    int open(const char *name, int parent, int config);
    void close(int idx);

    void writeJson(std::ostream &os) const;

  private:
    std::vector<Span> spans_;
};

/** Opens a span on construction and closes it on destruction; a null
 *  store makes both no-ops (untraced runs). */
class SpanScope
{
  public:
    SpanScope(Spans *s, const char *name, int parent, int config)
        : s_(s), idx_(s ? s->open(name, parent, config) : -1)
    {
    }
    ~SpanScope()
    {
        if (s_)
            s_->close(idx_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int id() const { return idx_; }

  private:
    Spans *s_;
    int idx_;
};

/** Counts every probe event by kind. */
class CountingSink : public mtsim::ProbeSink
{
  public:
    void
    onEvent(const mtsim::ProbeEvent &ev) override
    {
        ++counts_[static_cast<std::size_t>(ev.kind)];
    }

    std::uint64_t
    count(mtsim::ProbeKind k) const
    {
        return counts_[static_cast<std::size_t>(k)];
    }

  private:
    std::array<std::uint64_t,
               static_cast<std::size_t>(mtsim::ProbeKind::NumKinds)>
        counts_{};
};

/**
 * Self seconds per scope name, summed over every place the scope
 * occurs in the profiler's main-thread cost tree. The traced round
 * runs every configuration on the main thread, so no worker tree
 * holds anything.
 */
std::map<std::string, double> profilerSelfSeconds();

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
