/**
 * @file
 * The benchmark's sweep: the configurations each workload runs (one
 * configuration = one operation), how one configuration is driven
 * through the simulator's public API, and the instruction-count
 * oracle the multiprocessor checks use.
 */

#ifndef PERFBENCH_SWEEP_HH
#define PERFBENCH_SWEEP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "obs/probe.hh"

namespace perfbench {

using mtsim::Cycle;
using mtsim::Scheme;

/** How a configuration advances simulated time. */
enum class Loop { Uni, MpSequential, MpRelaxed };

/** One configuration of a workload's sweep. */
struct Op
{
    std::string name;        ///< e.g. "DC/interleaved/4ctx"
    Loop loop = Loop::Uni;
    std::string app;         ///< Table 5 mix or SPLASH application
    Scheme scheme = Scheme::Single;
    std::uint8_t contexts = 1;
    std::uint64_t seed = 1;  ///< Config::seed of the simulated system
    bool observed = false;   ///< checker + why ledger + probe digest
};

/** Uniprocessor windows: the paper's warm-up slice and measurement. */
inline constexpr Cycle kUniWarmup = 600000;
inline constexpr Cycle kUniMeasure = 600000;
/** Multiprocessor shape of Table 10 / Figures 8-9. */
inline constexpr std::uint16_t kMpNodes = 8;
/** Relaxed-tier quantum (EXPERIMENTS.md drift table row). */
inline constexpr Cycle kRelaxedQuantum = 256;

/** What one configuration produced. */
struct Result
{
    Cycle simCycles = 0;           ///< simulated clock at the end
    Cycle measuredCycles = 0;      ///< measured window / parallel part
    std::uint64_t retiredAll = 0;  ///< every instruction retired
    std::uint64_t retiredMeasured = 0;
    mtsim::CycleBreakdown breakdown;    ///< measured window
    std::vector<Cycle> nodeSlots;       ///< per node breakdown total
    std::vector<std::uint64_t> appRetired; ///< uni: per app, measured
    bool finished = true;          ///< MP: every thread drained
    Cycle ffCycles = 0;
    Cycle batchedCycles = 0;
    double setupS = 0.0;           ///< construction + addApp/loadApp
    double simS = 0.0;             ///< run() calls
    // Observed configurations only.
    std::uint64_t digest = 0;
    std::size_t checkerViolations = 0;
    std::size_t whyMismatches = 0;
};

class Spans;

/** Knobs of one execution of a configuration. */
struct RunCtl
{
    std::uint32_t hostThreads = 1;       ///< relaxed-tier workers
    bool fastForward = true;
    bool setupOnly = false;              ///< construct + load, no run
    mtsim::ProbeSink *counter = nullptr; ///< traced runs only
    Spans *spans = nullptr;              ///< traced runs only
    int parentSpan = -1;
    int configId = -1;
};

/** Drive one configuration through UniSystem / MpSystem. */
Result runOp(const Op &op, const RunCtl &ctl);

/** Names of the workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * The sweep of @p workload. @p seed feeds the simulated inputs of the
 * uniprocessor configurations; @p mp_seed feeds the multiprocessor
 * ones, observed included (see README.md, "Seeds").
 * Throws std::invalid_argument on an unknown workload.
 */
std::vector<Op> workloadOps(const std::string &workload,
                            std::uint64_t seed, std::uint64_t mp_seed);

/**
 * The relaxed-tier (quantum 256) counterparts of the sequential
 * multiprocessor configurations in @p ops. They leave out pthor,
 * whose sequential run misses its last instructions on the default
 * seed (the run-loop-exit fault), and locus, whose cycle drift at
 * this quantum is far outside the EXPERIMENTS.md drift table.
 */
std::vector<Op> relaxedOps(const std::vector<Op> &ops);

/**
 * Instruction-count oracle: drain every thread of SPLASH application
 * @p app at @p threads threads through its own ThreadSource, apart
 * from any system, and count the instructions a processor retires
 * (every micro-op except explicit switch and backoff, which consume
 * an issue slot without retiring). Adds the micro-ops drained to
 * @p drained.
 */
std::uint64_t mpOracle(const std::string &app, std::uint32_t threads,
                       std::uint64_t seed, std::uint64_t &drained);

/** Drain @p ops micro-ops from each kernel of uniprocessor mix
 *  @p mix; returns the micro-ops drained (outside-timing decode). */
std::uint64_t drainUniMix(const std::string &mix, std::uint64_t seed,
                          std::uint64_t ops);

/** Seconds on a monotonic clock. */
double nowS();

} // namespace perfbench

#endif // PERFBENCH_SWEEP_HH
