#include "sweep.hh"

#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "check/check_config.hh"
#include "check/digest.hh"
#include "check/why_reconcile.hh"
#include "obs/why_ledger.hh"
#include "spec/spec_suite.hh"
#include "splash/splash_suite.hh"
#include "system/mp_system.hh"
#include "system/uni_system.hh"
#include "trace.hh"
#include "workload/emitter.hh"

namespace perfbench {

using namespace mtsim;

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

/** The four applications of a Table 5 mix, SP included. */
std::vector<std::string>
mixApps(const std::string &mix)
{
    return mix == "SP" ? spWorkload() : uniWorkload(mix);
}

KernelFn
mixKernel(const std::string &mix, const std::string &app)
{
    return mix == "SP" ? splashUniKernel(app) : specKernel(app);
}

/** Everything a configuration's run leaves to be read back. */
struct Observers
{
    std::optional<WhyLedger> why;
    ProbeDigest digest;
};

void
attachObservers(Observers &obs, const Config &cfg,
                std::vector<Processor *> procs, auto &sys)
{
    CheckConfig cc;
    cc.abortOnViolation = false;   // count violations, keep running
    sys.enableChecking(cc);
    obs.why.emplace(cfg, std::move(procs));
    sys.attachWhyLedger(&*obs.why);
    sys.probes().addSink(&obs.digest);
}

void
readObservers(const Observers &obs, auto &sys, Result &r)
{
    r.digest = obs.digest.digest();
    r.checkerViolations = sys.checker()->violations().size();
    r.whyMismatches = auditWhyReconciliation(*obs.why).size();
}

Result
runUni(const Op &op, const RunCtl &ctl, int parent)
{
    Result r;
    Config cfg = Config::make(op.scheme, op.contexts);
    cfg.seed = op.seed;
    // Declared before the system so they outlive its probe bus.
    Observers obs;
    const double t0 = nowS();
    std::unique_ptr<UniSystem> sys;
    {
        SpanScope s(ctl.spans, "construct", parent, ctl.configId);
        sys = std::make_unique<UniSystem>(cfg);
    }
    std::vector<std::uint32_t> apps;
    {
        SpanScope s(ctl.spans, "addApp", parent, ctl.configId);
        for (const std::string &app : mixApps(op.app))
            apps.push_back(sys->addApp(app, mixKernel(op.app, app)));
    }
    r.setupS = nowS() - t0;
    if (ctl.setupOnly)
        return r;

    if (op.observed)
        attachObservers(obs, cfg, {&sys->processor()}, *sys);
    if (ctl.counter)
        sys->probes().addSink(ctl.counter);
    sys->setFastForward(ctl.fastForward);
    const double t1 = nowS();
    {
        SpanScope s(ctl.spans, "run.warmup", parent, ctl.configId);
        sys->run(kUniWarmup, 0);
    }
    {
        SpanScope s(ctl.spans, "run.measure", parent, ctl.configId);
        sys->run(0, kUniMeasure);
    }
    r.simS = nowS() - t1;

    const Processor &proc = sys->processor();
    r.simCycles = sys->now();
    r.measuredCycles = sys->measuredCycles();
    r.retiredMeasured = sys->retired();
    r.breakdown = sys->breakdown();
    r.nodeSlots.push_back(r.breakdown.total());
    for (CtxId c = 0; c < proc.numContexts(); ++c)
        r.retiredAll += proc.context(c).retired();
    for (std::uint32_t a : apps)
        r.appRetired.push_back(sys->retiredForApp(a));
    r.ffCycles = sys->fastForwardedCycles();
    r.batchedCycles = sys->stallBatchedCycles();
    if (op.observed)
        readObservers(obs, *sys, r);
    return r;
}

Result
runMp(const Op &op, const RunCtl &ctl, int parent)
{
    Result r;
    Config cfg = Config::makeMp(op.scheme, op.contexts, kMpNodes);
    cfg.seed = op.seed;
    Observers obs;
    const double t0 = nowS();
    std::unique_ptr<MpSystem> sys;
    {
        SpanScope s(ctl.spans, "construct", parent, ctl.configId);
        sys = std::make_unique<MpSystem>(cfg);
        sys->setStatsBarrier(kStatsBarrier);
    }
    {
        SpanScope s(ctl.spans, "loadApp", parent, ctl.configId);
        sys->loadApp(splashApp(op.app));
    }
    r.setupS = nowS() - t0;
    if (ctl.setupOnly)
        return r;

    if (op.loop == Loop::MpRelaxed)
        sys->setHostParallel(ctl.hostThreads, kRelaxedQuantum);
    if (op.observed) {
        std::vector<Processor *> procs;
        for (ProcId p = 0; p < kMpNodes; ++p)
            procs.push_back(&sys->processor(p));
        attachObservers(obs, cfg, std::move(procs), *sys);
    }
    if (ctl.counter)
        sys->probes().addSink(ctl.counter);
    sys->setFastForward(ctl.fastForward);
    const double t1 = nowS();
    {
        SpanScope s(ctl.spans, "run", parent, ctl.configId);
        sys->run();
    }
    r.simS = nowS() - t1;

    r.simCycles = sys->now();
    r.measuredCycles = sys->measuredCycles();
    r.retiredMeasured = sys->retired();
    r.breakdown = sys->aggregateBreakdown();
    for (ProcId p = 0; p < kMpNodes; ++p) {
        const Processor &proc = sys->processor(p);
        r.nodeSlots.push_back(proc.breakdown().total());
        for (CtxId c = 0; c < proc.numContexts(); ++c)
            r.retiredAll += proc.context(c).retired();
    }
    r.finished = sys->finished();
    r.ffCycles = sys->fastForwardedCycles();
    if (op.observed)
        readObservers(obs, *sys, r);
    return r;
}

Op
uniOp(const std::string &mix, Scheme s, std::uint8_t ctx,
      std::uint64_t seed, bool observed)
{
    return {mix + "/" + schemeName(s) + "/" + std::to_string(ctx) +
                "ctx",
            Loop::Uni, mix, s, ctx, seed, observed};
}

Op
mpOp(const std::string &app, Scheme s, std::uint8_t ctx,
     std::uint64_t seed, Loop loop, bool observed)
{
    return {app + "/" + std::to_string(kMpNodes) + "p/" +
                std::to_string(ctx) + "ctx/" + schemeName(s),
            loop, app, s, ctx, seed, observed};
}

} // namespace

Result
runOp(const Op &op, const RunCtl &ctl)
{
    SpanScope s(ctl.spans, "config", ctl.parentSpan, ctl.configId);
    return op.loop == Loop::Uni ? runUni(op, ctl, s.id())
                                : runMp(op, ctl, s.id());
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{
        "uni-multiprogram", "mp-splash", "observed"};
    return names;
}

std::vector<Op>
workloadOps(const std::string &workload, std::uint64_t seed,
            std::uint64_t mp_seed)
{
    const Scheme I = Scheme::Interleaved;
    const Scheme B = Scheme::Blocked;
    std::vector<Op> ops;
    if (workload == "uni-multiprogram") {
        // Table 7 / Figures 6-7: every Table 5 mix, SP included.
        std::vector<std::string> mixes = uniWorkloadNames();
        mixes.push_back("SP");
        for (const std::string &mix : mixes) {
            ops.push_back(uniOp(mix, Scheme::Single, 1, seed, false));
            for (Scheme s : {B, I}) {
                for (std::uint8_t n : {2, 4})
                    ops.push_back(uniOp(mix, s, n, seed, false));
            }
        }
    } else if (workload == "mp-splash") {
        // Table 10 / Figures 8-9 on the sequential loop.
        for (const std::string &app : splashApps()) {
            for (std::uint8_t n : {1, 4}) {
                for (Scheme s : {I, B})
                    ops.push_back(mpOp(app, s, n, mp_seed,
                                       Loop::MpSequential, false));
            }
        }
    } else if (workload == "observed") {
        // Slices of both matrices: two mixes at the three scheme
        // points, and three applications across both context counts
        // and both schemes.
        for (const char *mix : {"DC", "SP"}) {
            ops.push_back(uniOp(mix, Scheme::Single, 1, seed, true));
            ops.push_back(uniOp(mix, I, 4, seed, true));
            ops.push_back(uniOp(mix, B, 4, seed, true));
        }
        ops.push_back(mpOp("water", I, 4, mp_seed, Loop::MpSequential,
                           true));
        ops.push_back(mpOp("ocean", B, 4, mp_seed, Loop::MpSequential,
                           true));
        ops.push_back(mpOp("locus", I, 1, mp_seed, Loop::MpSequential,
                           true));
    } else {
        throw std::invalid_argument("unknown workload '" + workload +
                                    "'");
    }
    return ops;
}

std::vector<Op>
relaxedOps(const std::vector<Op> &ops)
{
    std::vector<Op> out;
    for (Op op : ops) {
        if (op.loop != Loop::MpSequential || op.observed ||
            op.app == "pthor" || op.app == "locus")
            continue;
        op.loop = Loop::MpRelaxed;
        out.push_back(op);
    }
    return out;
}

std::uint64_t
mpOracle(const std::string &app, std::uint32_t threads,
         std::uint64_t seed, std::uint64_t &drained)
{
    // Mirrors MpSystem::loadApp: the shared segment base, the
    // per-thread segment layout and the per-thread kernel seeds. The
    // kernels capture shared addresses, so the same base and the same
    // allocation sequence give the same streams.
    AddressSpace shared(0x4000000000ull);
    const std::vector<KernelFn> kernels =
        splashApp(app)(threads, shared, seed);
    std::uint64_t retiring = 0;
    std::vector<MicroOp> buf;
    for (std::uint32_t t = 0; t < threads; ++t) {
        const Addr code = ((static_cast<Addr>(t) + 1) << 32) +
                          static_cast<Addr>(t) * 0x7000;
        const Addr data =
            code + 0x10000000ull + static_cast<Addr>(t) * 0x13000;
        ThreadSource src(code, data, seed + 577 * (t + 1), kernels[t]);
        bool more = true;
        while (more) {
            buf.clear();
            more = src.drainTo(buf, 1 << 16);
            for (const MicroOp &op : buf) {
                if (op.op != mtsim::Op::Backoff &&
                    op.op != mtsim::Op::CtxSwitch)
                    ++retiring;
            }
            drained += buf.size();
        }
    }
    return retiring;
}

std::uint64_t
drainUniMix(const std::string &mix, std::uint64_t seed,
            std::uint64_t ops)
{
    std::uint64_t drained = 0;
    std::vector<MicroOp> buf;
    const std::vector<std::string> apps = mixApps(mix);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const Addr base = (static_cast<Addr>(i) + 1) << 32;
        ThreadSource src(base, base + 0x10000000ull,
                         seed + 101 * (i + 1), mixKernel(mix, apps[i]));
        buf.clear();
        src.drainTo(buf, ops);
        drained += buf.size();
    }
    return drained;
}

} // namespace perfbench
