/**
 * @file
 * perfbench: runs one workload of the paper sweep for a fixed host
 * time, checks every configuration's outputs against independently
 * computed references, and prints the end-to-end metrics (untraced
 * run) or the per-layer metrics (traced run) as the last line of
 * standard output. See README.md for the workloads and metrics.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--mp-seed N] [--out-dir DIR]
 */

#include <sched.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "metrics/json_stats.hh"
#include "prof/host_info.hh"
#include "prof/profiler.hh"
#include "sweep.hh"
#include "trace.hh"

using namespace perfbench;
using mtsim::CycleClass;
using mtsim::ProbeKind;

namespace {

/**
 * Largest relaxed-tier cycle drift, in percent, a configuration may
 * show against the sequential loop. EXPERIMENTS.md's quantum-256 row
 * (+1%) was measured on water/8p/1ctx alone; the kept applications
 * drift up to 2.5% run to run on a 4-core host, so a 1% gate would
 * fail configurations at random. 5% sits halfway to the
 * quantum-1024 row (10%).
 */
constexpr double kDriftGatePct = 5.0;

/**
 * Setup takes milliseconds, so it is sampled on its own: this many
 * construct-and-load passes over the sweep, none of them run, before
 * the measured rounds. Taking it from the measured rounds instead
 * would mix samples of a hot and a cold heap.
 */
constexpr std::size_t kSetupSamples = 31;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30.0;
    bool trace = false;
    std::uint64_t mpSeed = 1;
    std::string outDir = ".bench_build/perfbench-out";
};

[[noreturn]] void
usage(const std::string &err)
{
    std::cerr << "error: " << err << "\n"
              << "usage: perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1]\n"
                 "                 [--mp-seed N] [--out-dir DIR]\n"
                 "workloads:";
    for (const std::string &w : workloadNames())
        std::cerr << ' ' << w;
    std::cerr << '\n';
    std::exit(2);
}

std::uint64_t
parseU64(const std::string &flag, const std::string &v)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || v[0] == '-' || *end != '\0' || errno != 0)
        usage(flag + " wants a non-negative integer, got '" + v + "'");
    return x;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = parseU64(flag, v);
        else if (flag == "--seconds") {
            const std::uint64_t s = parseU64(flag, v);
            if (s < 1 || s > 600)
                usage("--seconds must be 1..600");
            a.seconds = static_cast<double>(s);
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace must be 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--mp-seed")
            a.mpSeed = parseU64(flag, v);
        else if (flag == "--out-dir")
            a.outDir = v;
        else
            usage("unknown flag " + flag);
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) == names.end())
        usage("unknown or missing --workload '" + a.workload + "'");
    return a;
}

/** Host CPUs this process may run on (what nproc prints). */
std::uint32_t
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<std::uint32_t>(std::max(1, CPU_COUNT(&set)));
    return 1;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** One pass over every configuration of the workload. */
struct Round
{
    std::vector<Result> results;
    double wallS = 0.0;
    double simS = 0.0;
    double instructions = 0.0;
    double cycles = 0.0;
};

Round
runRound(const std::vector<Op> &ops, RunCtl ctl)
{
    Round rd;
    SpanScope s(ctl.spans, "round", -1, -1);
    ctl.parentSpan = s.id();
    const double t0 = nowS();
    for (std::size_t i = 0; i < ops.size(); ++i) {
        ctl.configId = static_cast<int>(i);
        rd.results.push_back(runOp(ops[i], ctl));
    }
    rd.wallS = nowS() - t0;
    for (const Result &r : rd.results) {
        rd.simS += r.simS;
        rd.instructions += static_cast<double>(r.retiredAll);
        rd.cycles += static_cast<double>(r.simCycles);
    }
    return rd;
}

/** Construct and load every configuration without running any. */
double
setupOnlyRound(const std::vector<Op> &ops, RunCtl ctl)
{
    ctl.setupOnly = true;
    double s = 0.0;
    for (const Op &op : ops)
        s += runOp(op, ctl).setupS;
    return s;
}

/** Verdict on one configuration of one round. */
struct Verdict
{
    std::vector<std::string> failures;
    bool namedFault = false;   ///< the run-loop-exit fault, and only it
};

/** References the checks compare against, computed once per run. */
struct References
{
    std::map<std::string, std::uint64_t> oracle;  ///< "app/threads/seed"
    std::size_t ffOffIndex = 0;
    std::optional<Result> ffOff;   ///< that config without fast-forward
    /** Per configuration: the sequential run of a relaxed config and
     *  the unobserved run of an observed one (empty otherwise). */
    std::vector<Result> sequential;
    std::vector<Result> plain;
    double drainS = 0.0;
    std::uint64_t drainedOps = 0;
};

std::string
oracleKey(const Op &op)
{
    return op.app + "/" + std::to_string(op.contexts * kMpNodes) + "/" +
           std::to_string(op.seed);
}

bool
sameOutputs(const Result &a, const Result &b)
{
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(CycleClass::NumClasses); ++c) {
        const auto cls = static_cast<CycleClass>(c);
        if (a.breakdown.get(cls) != b.breakdown.get(cls))
            return false;
    }
    return a.retiredMeasured == b.retiredMeasured &&
           a.retiredAll == b.retiredAll;
}

double
driftPct(const Result &relaxed, const Result &seq)
{
    return 100.0 * (static_cast<double>(relaxed.measuredCycles) /
                        static_cast<double>(seq.measuredCycles) -
                    1.0);
}

/**
 * Oracle counts for the multiprocessor configurations, the
 * fast-forward-off rerun and the plain runs of observed
 * configurations. With
 * @p drain_all (traced runs) every kernel of the workload is drained
 * and timed, for workload.drain_mops_per_s.
 */
References
buildReferences(const Args &a, const std::vector<Op> &ops,
                const RunCtl &base, bool drain_all, Spans *spans)
{
    References ref;
    SpanScope checks(spans, "checks", -1, -1);
    {
        SpanScope s(spans, "drain", checks.id(), -1);
        const double t0 = nowS();
        std::set<std::string> mixes;
        for (const Op &op : ops) {
            if (op.loop == Loop::Uni) {
                if (drain_all && mixes.insert(op.app).second)
                    ref.drainedOps +=
                        drainUniMix(op.app, op.seed, 200000);
                continue;
            }
            const std::string key = oracleKey(op);
            if (!ref.oracle.count(key))
                ref.oracle[key] =
                    mpOracle(op.app, op.contexts * kMpNodes, op.seed,
                             ref.drainedOps);
        }
        ref.drainS = nowS() - t0;
    }
    RunCtl ctl = base;
    ctl.spans = spans;
    ctl.parentSpan = checks.id();
    ctl.counter = nullptr;
    // One configuration per workload, rerun without fast-forward;
    // which one rotates with the seed.
    ref.ffOffIndex = static_cast<std::size_t>(a.seed % ops.size());
    RunCtl off = ctl;
    off.fastForward = false;
    off.configId = static_cast<int>(ref.ffOffIndex);
    ref.ffOff = runOp(ops[ref.ffOffIndex], off);
    ref.plain.resize(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
        ctl.configId = static_cast<int>(i);
        if (ops[i].observed) {
            Op plain = ops[i];
            plain.observed = false;
            ref.plain[i] = runOp(plain, ctl);
        }
    }
    return ref;
}

Verdict
judge(const Op &op, std::size_t i, const Result &r, const Result &first,
      const References &ref)
{
    Verdict v;
    auto fail = [&](const std::string &why) { v.failures.push_back(why); };
    const bool uni = op.loop == Loop::Uni;
    const double nodes = uni ? 1.0 : kMpNodes;
    const mtsim::Config cfg =
        uni ? mtsim::Config::make(op.scheme, op.contexts)
            : mtsim::Config::makeMp(op.scheme, op.contexts, kMpNodes);
    const double width = cfg.issueWidth;
    const double slots =
        width * nodes * static_cast<double>(r.measuredCycles);

    // Uniprocessor: every slot of the window is attributed. A
    // multiprocessor node leaves the slots after its last thread
    // finished unattributed (Processor::attributeIdle), so there the
    // sum may only fall short, node by node.
    const double nodeSlots = width * static_cast<double>(r.measuredCycles);
    for (Cycle n : r.nodeSlots) {
        if (uni ? static_cast<double>(n) != nodeSlots
                : static_cast<double>(n) > nodeSlots)
            fail("breakdown sums to " + std::to_string(n) + " of " +
                 std::to_string(static_cast<std::uint64_t>(nodeSlots)) +
                 " slots of a node");
    }
    if (static_cast<double>(r.retiredMeasured) > slots ||
        static_cast<double>(r.retiredAll) >
            width * nodes * static_cast<double>(r.simCycles))
        fail("retired more than width x cycles");
    for (std::size_t k = 0; k < r.appRetired.size(); ++k) {
        if (r.appRetired[k] == 0)
            fail("app " + std::to_string(k) + " of the mix retired nothing");
    }
    if (op.loop != Loop::MpRelaxed &&
        (!sameOutputs(r, first) || r.digest != first.digest))
        fail("outputs differ from the round-1 run of the same config");
    if (ref.ffOff && i == ref.ffOffIndex && !sameOutputs(r, *ref.ffOff))
        fail("fast-forward off changes retired count or breakdown");

    // Every thread drained its stream, yet instructions are missing,
    // no more than the pipelines can hold: the run loop exited with
    // them still in flight. An instruction retires pipeDepth cycles
    // after it issues (Processor::issueFrom), and a node issues at
    // most issueWidth a cycle, so each node holds at most width x the
    // deepest pipeline. A larger shortfall is some other fault.
    bool inFlightShortfall = false;
    if (!uni) {
        const std::uint64_t maxInFlight =
            static_cast<std::uint64_t>(cfg.issueWidth) * kMpNodes *
            std::max(cfg.intPipeDepth, cfg.fpPipeDepth);
        const std::uint64_t want = ref.oracle.at(oracleKey(op));
        if (!r.finished) {
            fail("threads did not finish");
        } else if (r.retiredAll != want) {
            fail("retired " + std::to_string(r.retiredAll) + " of " +
                 std::to_string(want) + " oracle instructions");
            inFlightShortfall = r.retiredAll < want &&
                                want - r.retiredAll <= maxInFlight;
        }
    }
    if (op.loop == Loop::MpRelaxed) {
        const double d = driftPct(r, ref.sequential[i]);
        if (std::fabs(d) > kDriftGatePct)
            fail("cycle drift " + std::to_string(d) + "% beyond the gate");
    }
    if (op.observed) {
        if (r.checkerViolations != 0)
            fail(std::to_string(r.checkerViolations) +
                 " checker violations");
        if (r.whyMismatches != 0)
            fail("why ledger does not reconcile (" +
                 std::to_string(r.whyMismatches) + " cells)");
        if (!sameOutputs(r, ref.plain[i]) ||
            r.measuredCycles != ref.plain[i].measuredCycles)
            fail("retired or breakdown differ from the plain run");
        if (r.digest == 0)
            fail("probe digest saw no events");
    }
    v.namedFault = inFlightShortfall && v.failures.size() == 1;
    return v;
}

/** Operations attempted and failed, and whether every failure is the
 *  named fault. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
};

/** Judge every configuration of every round, log the first round to
 *  standard error and write every verdict to the ops file. */
Tally
checkRounds(const Args &a, const std::vector<Op> &ops,
            const std::vector<const Round *> &rounds,
            const References &ref, const char *file_tag)
{
    Tally t;
    std::ofstream opsOut(a.outDir + "/" + a.workload + "-seed" +
                         std::to_string(a.seed) + "-trace" +
                         (a.trace ? "1" : "0") + "-" + file_tag + ".json");
    mtsim::JsonWriter w(opsOut);
    w.beginArray();
    const Round &first = *rounds.front();
    for (std::size_t rd = 0; rd < rounds.size(); ++rd) {
        for (std::size_t i = 0; i < ops.size(); ++i) {
            const Result &r = rounds[rd]->results[i];
            const Verdict v = judge(ops[i], i, r, first.results[i], ref);
            ++t.attempted;
            if (!v.failures.empty()) {
                ++t.failed;
                if (!v.namedFault)
                    t.correct = false;
            }
            if (rd == 0) {
                std::cerr << "  " << ops[i].name << ": cycles "
                          << r.measuredCycles << ", retired "
                          << r.retiredAll << ", sim "
                          << r.simS << " s";
                if (ops[i].loop == Loop::MpRelaxed) {
                    std::cerr << ", drift "
                              << driftPct(r, ref.sequential[i]) << "%";
                }
                for (const std::string &f : v.failures)
                    std::cerr << (v.namedFault ? "\n    FAILED (run-loop "
                                                 "exit fault): "
                                               : "\n    FAILED: ")
                              << f;
                std::cerr << '\n';
            }
            w.beginObject();
            w.kv("round", static_cast<std::uint64_t>(rd));
            w.kv("config", ops[i].name);
            w.kv("ok", v.failures.empty());
            w.kv("named_fault", v.namedFault);
            w.key("failures");
            w.beginArray();
            for (const std::string &f : v.failures)
                w.value(f);
            w.endArray();
            w.endObject();
        }
    }
    w.endArray();
    opsOut << '\n';
    return t;
}

/** Metric name -> (value, unit), in output order. */
using Metrics =
    std::vector<std::pair<std::string, std::pair<double, const char *>>>;

/** The result line: the last line of standard output. */
void
printResult(const Tally &t, const Metrics &metrics)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (t.correct ? "true" : "false")
       << ", \"attempted\": " << t.attempted
       << ", \"failed\": " << t.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << '"' << metrics[i].first
           << "\": {\"value\": " << metrics[i].second.first
           << ", \"unit\": \"" << metrics[i].second.second << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

int
runPlain(const Args &a, const std::vector<Op> &ops, const RunCtl &ctl)
{
    std::vector<double> setup;
    while (setup.size() < kSetupSamples)
        setup.push_back(setupOnlyRound(ops, ctl));
    std::vector<Round> rounds;
    const double t0 = nowS();
    do {
        rounds.push_back(runRound(ops, ctl));
    } while (nowS() - t0 + rounds.back().wallS <= a.seconds);
    std::vector<double> wall, kips, mcps;
    for (const Round &r : rounds) {
        wall.push_back(r.wallS);
        kips.push_back(r.instructions / r.simS / 1e3);
        mcps.push_back(r.cycles / r.simS / 1e6);
    }
    const double rssMb =
        static_cast<double>(mtsim::prof::peakRssKb()) / 1024.0;

    const References ref = buildReferences(a, ops, ctl, false, nullptr);
    std::vector<const Round *> rp;
    for (const Round &r : rounds)
        rp.push_back(&r);
    std::cerr << a.workload << ": " << rounds.size() << " round(s) of "
              << ops.size() << " configs, wall s:";
    for (double w : wall)
        std::cerr << ' ' << w;
    std::cerr << '\n';
    const Tally t = checkRounds(a, ops, rp, ref, "ops");
    printResult(t, {{"wall_s", {median(wall), "s"}},
                    {"setup_s", {median(setup), "s"}},
                    {"kips", {median(kips), "kinstr/s"}},
                    {"mcps", {median(mcps), "Mcycles/s"}},
                    {"peak_rss_mb", {rssMb, "MB"}}});
    return 0;
}

int
runTraced(const Args &a, const std::vector<Op> &ops, const RunCtl &ctl)
{
    auto &prof = mtsim::prof::Profiler::instance();
    const Round plain = runRound(ops, ctl);

    Spans spans;
    CountingSink counter;
    RunCtl traced = ctl;
    traced.spans = &spans;
    traced.counter = &counter;
    prof.reset();
    prof.enable(true);
    const Round tr = runRound(ops, traced);
    prof.enable(false);
    const std::map<std::string, double> self = profilerSelfSeconds();
    const double allocs =
        static_cast<double>(mtsim::prof::Profiler::allocCount());

    const References ref = buildReferences(a, ops, ctl, true, &spans);
    Tally t = checkRounds(a, ops, {&plain, &tr}, ref, "ops");

    // The relaxed tier (src/par) over the same configurations, run
    // once untraced: its simulate time against the plain round's
    // sequential runs, and its cycle drift, are the par layer. Its
    // runs are not operations of the workload: their timing is too
    // erratic on a shared host to gate (README.md), but a failed
    // check still makes the result incorrect.
    double seqS = 0, relaxedS = 0, drift = 0;
    if (a.workload == "mp-splash") {
        const std::vector<Op> rel = relaxedOps(ops);
        const Round rr = runRound(rel, ctl);
        References rref;
        rref.oracle = ref.oracle;
        for (const Op &op : rel) {
            for (std::size_t j = 0; j < ops.size(); ++j) {
                if (ops[j].name == op.name)
                    rref.sequential.push_back(plain.results[j]);
            }
        }
        const Tally rt = checkRounds(a, rel, {&rr}, rref, "relaxed");
        t.correct = t.correct && rt.failed == 0;
        for (std::size_t i = 0; i < rel.size(); ++i) {
            seqS += rref.sequential[i].simS;
            relaxedS += rr.results[i].simS;
            drift = std::max(drift, std::fabs(driftPct(
                                        rr.results[i], rref.sequential[i])));
        }
    }
    {
        std::ofstream out(a.outDir + "/" + a.workload + "-seed" +
                          std::to_string(a.seed) + "-spans.json");
        spans.writeJson(out);
    }

    auto layer = [&](std::initializer_list<const char *> names) {
        double s = 0.0;
        for (const char *n : names) {
            const auto it = self.find(n);
            if (it != self.end())
                s += it->second;
        }
        return s;
    };
    auto events = [&](ProbeKind k) {
        return static_cast<double>(counter.count(k));
    };
    double sim = 0, ff = 0, batched = 0;
    for (const Result &r : tr.results) {
        sim += static_cast<double>(r.simCycles);
        ff += static_cast<double>(r.ffCycles);
        batched += static_cast<double>(r.batchedCycles);
    }
    // Ratios read 0 on workloads that bypass the layer.
    double observedS = 0, plainS = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].observed) {
            observedS += plain.results[i].simS;
            plainS += ref.plain[i].simS;
        }
    }
    printResult(
        t,
        {{"workload.decode_s",
          {layer({"frontend.emit", "frontend.replay"}), "s"}},
         {"workload.drain_mops_per_s",
          {static_cast<double>(ref.drainedOps) / ref.drainS / 1e6,
           "Mops/s"}},
         {"core.pipeline_self_s", {layer({"pipeline"}), "s"}},
         {"core.issue_events", {events(ProbeKind::ContextIssue), "count"}},
         {"core.squash_events",
          {events(ProbeKind::ContextSquash), "count"}},
         {"core.switch_events",
          {events(ProbeKind::ContextSwitch), "count"}},
         {"cache.icache_s", {layer({"icache"}), "s"}},
         {"cache.dcache_s", {layer({"dcache"}), "s"}},
         {"cache.write_buffer_s", {layer({"write_buffer"}), "s"}},
         {"mem.tick_s", {layer({"mem.tick", "events", "mshr", "bus"}), "s"}},
         {"cache.imiss_events", {events(ProbeKind::IMissStart), "count"}},
         {"cache.dmiss_events", {events(ProbeKind::DMissStart), "count"}},
         {"mem.bus_requests", {events(ProbeKind::BusRequest), "count"}},
         {"coherence.directory_s", {layer({"directory"}), "s"}},
         {"coherence.dir_msgs", {events(ProbeKind::DirectoryMsg), "count"}},
         {"sync.sync_s", {layer({"sync"}), "s"}},
         {"sync.lock_acquires", {events(ProbeKind::LockAcquire), "count"}},
         {"sync.barrier_releases",
          {events(ProbeKind::BarrierRelease), "count"}},
         {"os.os_s", {layer({"os"}), "s"}},
         {"os.reschedules", {events(ProbeKind::OsReschedule), "count"}},
         {"system.fastforward_s", {layer({"fastforward"}), "s"}},
         {"system.sim_cycles", {sim, "cycles"}},
         {"system.ff_cycles", {ff, "cycles"}},
         {"system.batched_cycles", {batched, "cycles"}},
         {"system.stepped_cycles", {sim - ff - batched, "cycles"}},
         {"par.speedup", {relaxedS > 0 ? seqS / relaxedS : 0.0, "x"}},
         {"par.sequential_s", {seqS, "s"}},
         {"par.cycle_drift_pct", {drift, "%"}},
         {"check.checker_s", {layer({"checker"}), "s"}},
         {"obs.why_s", {layer({"why"}), "s"}},
         {"obs.probe_s", {layer({"probe"}), "s"}},
         {"obs.overhead_x", {plainS > 0 ? observedS / plainS : 0.0, "x"}},
         {"host.allocs", {allocs, "count"}},
         {"trace.overhead_pct",
          {100.0 * (tr.wallS / plain.wallS - 1.0), "%"}}});
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    try {
        std::filesystem::create_directories(a.outDir);
        const std::vector<Op> ops = workloadOps(a.workload, a.seed, a.mpSeed);
        RunCtl ctl;
        // The relaxed tier's workers plus this coordinating thread
        // stay within the CPUs the process may use.
        ctl.hostThreads = std::min<std::uint32_t>(
            kMpNodes, std::max<std::uint32_t>(1, usableCpus() - 1));
        return a.trace ? runTraced(a, ops, ctl) : runPlain(a, ops, ctl);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        return 1;
    }
}
