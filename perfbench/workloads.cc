#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <ostream>

#include "bench/harness.hh"
#include "common/rng.hh"
#include "core/fusion.hh"
#include "core/kernel_rewriter.hh"
#include "core/lc_opg.hh"
#include "multidnn/scheduler.hh"
#include "obs/trace.hh"
#include "serving/admission.hh"
#include "serving/sweep.hh"
#include "spans.hh"

namespace perfbench {

namespace {

using namespace flashmem;
using models::ModelId;

/** Passes every run makes, even when they overrun --seconds. A traced
 * run makes one more, so it has two traced passes. */
constexpr int kMinPasses = 3;
/** No new pass starts once this much host time has gone (keeps a run
 * inside its 180 s limit on a slow host). */
constexpr double kHardStopSeconds = 120.0;
/** Replan ladder: fractions of each model's shipped plan budget. */
constexpr double kLadder[] = {0.5, 0.25, 0.1};
/** SLO bound = slack x the slowest calibrated full-budget service. */
constexpr double kSloSlack = 4.0;
/** Shared working-set budget of the multi-DNN scheduler. */
constexpr Bytes kMixCapacityBudget = mib(768);
/** Requests the tracing-overhead comparison replays. */
constexpr std::size_t kObsRequests = 100000;
/** Requests per capacity-sweep probe. */
constexpr std::size_t kProbeRequests = 200000;

enum class Serve
{
    FastSim,   ///< serving::simulateServing over calibrated services
    Scheduler, ///< multidnn::EventScheduler with real executions
};

struct WorkloadSpec
{
    std::string name;
    std::vector<std::pair<ModelId, double>> mix; ///< model, weight
    Serve serve = Serve::FastSim;
    /** Offered load as a share of the cluster's calibrated capacity. */
    double load = 0.0;
    std::size_t requests = 0; ///< per trace
    int traces = 1;           ///< independent traces per pass
    int devices = 1;
    /** DeadlinePolicy + arrival AdmissionController + SLO stamped on
     * every request; otherwise FIFO (memory-aware on the scheduler). */
    bool deadline = false;
};

const std::vector<WorkloadSpec> &
specs()
{
    static const std::vector<WorkloadSpec> all = [] {
        std::vector<WorkloadSpec> v;

        WorkloadSpec zoo;
        zoo.name = "zoo_plan";
        for (const auto &s : models::modelZoo())
            zoo.mix.emplace_back(s.id, 1.0);
        zoo.serve = Serve::FastSim;
        // At 0.7 the library's P2 p99 estimate of 300k requests jumped
        // by half on 2 of 8 seeds; at 0.5 it moves about 1 %.
        zoo.load = 0.5;
        zoo.requests = 1000000;
        v.push_back(zoo);

        WorkloadSpec mix;
        mix.name = "multidnn_mix";
        mix.mix = {{ModelId::DepthAnythingS, 1.0},
                   {ModelId::ViT, 1.0},
                   {ModelId::SDUNet, 1.0},
                   {ModelId::WhisperMedium, 1.0},
                   {ModelId::GPTNeo1_3B, 1.0}};
        mix.serve = Serve::Scheduler;
        // Memory-aware admission shrinks the budgets of co-resident
        // models, which slows them, so the device runs well above the
        // nominal share and requests queue (p99 ~2.5x the slowest
        // service at 0.4). At 0.8 the pooled p99 of 8k requests moved
        // +-25 % from seed to seed; at 0.4 its quartiles sit ~8 % apart.
        mix.load = 0.4;
        mix.requests = 1000;
        mix.traces = 8;
        v.push_back(mix);

        WorkloadSpec srv;
        srv.name = "serving_overload";
        srv.mix = {{ModelId::ResNet50, 0.45},
                   {ModelId::DepthAnythingS, 0.25},
                   {ModelId::ViT, 0.20},
                   {ModelId::GPTNeoS, 0.10}};
        srv.serve = Serve::FastSim;
        srv.load = 2.0;
        srv.requests = 1000000;
        srv.devices = 4;
        srv.deadline = true;
        v.push_back(srv);
        return v;
    }();
    return all;
}

// ------------------------------------------------------------ helpers

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / static_cast<double>(v.size()));
}

/** Nearest-rank percentile. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
exact(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

const std::string &
abbr(ModelId id)
{
    return models::modelSpec(id).abbr;
}

// -------------------------------------------------------------- set-up

/** Everything the timed passes consume; built by one set-up. */
struct Setup
{
    std::vector<graph::Graph> graphs; ///< parallel to spec.mix
    serving::ServiceTable services;
    serving::ModelMix mix;
    SimTime sloBound = 0;
    double capacityQps = 0.0; ///< whole cluster, calibrated
    std::vector<std::vector<multidnn::ModelRequest>> traces;
    std::unique_ptr<serving::ServiceEstimator> estimator;
    std::unique_ptr<serving::AdmissionController> gate;

    /** Host seconds of this set-up. */
    struct Times
    {
        double build = 0.0;
        double calibrate = 0.0;
        double traceGen = 0.0;
        double total = 0.0;
    } times;
};

/** Set-up spans carry this pass id. */
constexpr int kSetupPass = -1;

/** Graph builds, service calibration (a cold compile + execute +
 * degraded replan + execute per model, on its own memo, which is also
 * the warm-up of every planner and runtime path the passes time) and
 * trace generation. It runs first in its process, so it pays the
 * first-compile-in-process cost. */
Setup
makeSetup(const WorkloadSpec &spec, std::uint64_t seed, SpanRecorder *rec)
{
    Setup s;
    auto dev = gpusim::DeviceProfile::onePlus12();
    Phase total(rec, "setup", kSetupPass);
    {
        Phase p(rec, "models.build", kSetupPass);
        for (const auto &[id, w] : spec.mix)
            s.graphs.push_back(models::buildModel(id));
        s.times.build = p.stop();
    }
    {
        Phase p(rec, "serving.calibrate", kSetupPass);
        core::PlanMemo memo;
        core::FlashMemOptions opt;
        opt.opg.memo = &memo;
        core::FlashMem fm(dev, opt);
        std::vector<ModelId> ids;
        for (const auto &[id, w] : spec.mix)
            ids.push_back(id);
        multidnn::SchedulerConfig cfg;
        if (spec.serve == Serve::Scheduler)
            cfg.capacityBudget = kMixCapacityBudget;
        s.services = serving::calibrateServices(fm, ids, 0.5,
                                                Precision::FP16, cfg);
        s.times.calibrate = p.stop();
    }

    SimTime slowest = 0;
    for (const auto &[id, profile] : s.services)
        slowest = std::max(slowest, profile.service);
    s.sloBound = static_cast<SimTime>(kSloSlack *
                                      static_cast<double>(slowest));
    for (const auto &[id, w] : spec.mix)
        s.mix.entries.push_back(
            {id, w, spec.deadline ? s.sloBound : 0, 0});
    s.capacityQps = spec.devices /
                    toSeconds(serving::meanService(s.services, spec.mix));

    {
        Phase p(rec, "serving.trace_gen", kSetupPass);
        for (int k = 0; k < spec.traces; ++k)
            s.traces.push_back(serving::poissonTrace(
                s.mix, spec.load * s.capacityQps, spec.requests,
                seed * 1000003ull + static_cast<std::uint64_t>(k)));
        s.times.traceGen = p.stop();
    }
    if (spec.deadline) {
        s.estimator =
            std::make_unique<serving::ServiceEstimator>(s.services);
        s.gate = std::make_unique<serving::AdmissionController>(
            *s.estimator);
    }
    s.times.total = total.stop();
    return s;
}

// --------------------------------------------------------------- passes

struct BaselineCell
{
    baselines::FrameworkId fw{};
    std::size_t model = 0;
    std::optional<core::RunResult> run;
};

/** Direct per-layer calls of a traced pass, summed over models. */
struct LayerSplit
{
    double fusionS = 0.0;
    double planS = 0.0;
    double replanS = 0.0;
    double rewriteS = 0.0;
    /** Phase seconds summed over every planner call of the split. */
    core::PlanStats planStats;
    std::size_t kernels = 0;
    double obsOffS = 0.0;
    double obsOnS = 0.0;
    std::size_t obsEvents = 0;
};

/** Everything one pass produced. */
struct PassData
{
    bool traced = false;
    double compileS = 0.0;
    double replanS = 0.0;
    double executeS = 0.0;
    double baselinesS = 0.0;
    double serveS = 0.0;
    double sweepS = 0.0;
    /** Whether the pass ran the capacity sweep (pass 0 and traced
     * passes; see runPass). */
    bool swept = false;
    /** Whole pass without the sweep and the layer split, so traced
     * and untraced passes compare like with like. */
    double coreS = 0.0;

    std::vector<core::CompiledModel> compiled; ///< by spec index
    std::vector<core::RunResult> runs;         ///< solo, full budget
    std::vector<double> energyJ;
    std::vector<gpusim::ActivitySummary> activity;
    std::vector<core::CompiledModel> ladder; ///< model-major
    core::PlanMemo::Stats memo;
    std::vector<BaselineCell> cells;

    serving::ServingOutcome serve;
    std::vector<multidnn::ScheduleOutcome> schedules;
    serving::AdmissionDecisions decisions;
    serving::SweepResult sweep;
    std::size_t submitted = 0;

    LayerSplit split;

    /** Every simulated value of the pass, keyed, for the determinism
     * guard. */
    std::vector<std::pair<std::string, std::string>> signature;
};

/** The (seeded) order a pass compiles and replans models in. Plans
 * must not depend on it; the determinism guard checks that. */
std::vector<std::size_t>
passOrder(std::size_t n, std::uint64_t seed, int pass)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    Rng rng(seed * 7919ull + static_cast<std::uint64_t>(pass));
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1],
                  order[static_cast<std::size_t>(rng.uniformInt(
                      0, static_cast<std::int64_t>(i) - 1))]);
    return order;
}

serving::ServingSimParams
simParams(const WorkloadSpec &spec, const Setup &s)
{
    serving::ServingSimParams p;
    p.readyLimit = 0; // drain everything: accounting must close
    p.cluster.deviceCount = spec.devices;
    p.cluster.overlapInitWithExec = spec.devices > 1;
    p.arrival = s.gate.get();
    return p;
}

std::unique_ptr<multidnn::SchedulingPolicy>
servePolicy(const WorkloadSpec &spec)
{
    if (spec.deadline)
        return std::make_unique<multidnn::DeadlinePolicy>();
    return std::make_unique<multidnn::FifoPolicy>();
}

/** Redoes the planning work of a pass's compiles and replans one layer
 * at a time, on the same graphs: per model, fusion and a fresh
 * planner's plan() for every round compile ran, the kernel rewriter
 * once, and each ladder step's replan() on a fresh planner, as
 * FlashMem::replan does. Compile's later rounds plan partitions only
 * its penalty ranking knows; the split plans the shipped fused graph in
 * their place. */
void
splitLayers(const Setup &s, PassData &d, SpanRecorder *rec, int pass)
{
    auto dev = gpusim::DeviceProfile::onePlus12();
    core::FlashMemOptions opt;
    gpusim::KernelModel km(dev);
    profiler::AnalyticCapacityProvider capacity(km, opt.thresholds);
    core::PlanMemo memo;
    core::OpgParams params = opt.opg;
    params.memo = &memo;
    auto &ls = d.split;
    auto addPhases = [&](const core::PlanStats &st) {
        ls.planStats.processNodesSeconds += st.processNodesSeconds;
        ls.planStats.stageSeconds += st.stageSeconds;
        ls.planStats.buildModelSeconds += st.buildModelSeconds;
        ls.planStats.solveSeconds += st.solveSeconds;
        ls.planStats.mergeSeconds += st.mergeSeconds;
    };
    for (std::size_t i = 0; i < s.graphs.size(); ++i) {
        const auto &cm = d.compiled[i];
        for (int round = 0; round <= cm.fusionRounds; ++round) {
            graph::Graph unsplit;
            {
                Phase p(rec, "fusion", pass);
                core::FusionPass fusion(s.graphs[i], opt.fusion);
                unsplit = fusion.materialize(fusion.initialPartition());
                ls.fusionS += p.stop();
            }
            core::LcOpgPlanner planner(round == 0 ? unsplit : cm.fusedGraph,
                                       capacity, km, params);
            core::PlanStats st;
            {
                Phase p(rec, "lc_opg.plan", pass);
                planner.plan(&st);
                ls.planS += p.stop();
            }
            addPhases(st);
        }
        {
            Phase p(rec, "rewriter", pass);
            core::KernelRewriter rewriter(cm.fusedGraph, cm.plan,
                                          opt.kernelRewriting);
            ls.kernels += rewriter.rewriteAll().size();
            ls.rewriteS += p.stop();
        }
        for (double share : kLadder) {
            core::LcOpgPlanner planner(cm.fusedGraph, capacity, km, params);
            core::PlanStats st;
            {
                Phase p(rec, "lc_opg.replan", pass);
                planner.replan(static_cast<Bytes>(
                                   share *
                                   static_cast<double>(cm.planBudget)),
                               &st);
                ls.replanS += p.stop();
            }
            addPhases(st);
        }
    }
}

/** Tracing overhead of the library's own recorder on the serving
 * path: the same trace prefix with and without a TraceRecorder. */
void
measureObs(const WorkloadSpec &spec, const Setup &s, PassData &d,
           SpanRecorder *rec, int pass, std::vector<std::string> &errors)
{
    if (spec.serve != Serve::FastSim)
        return;
    const auto &trace = s.traces[0];
    std::vector<multidnn::ModelRequest> prefix(
        trace.begin(),
        trace.begin() + static_cast<std::ptrdiff_t>(
                            std::min(kObsRequests, trace.size())));
    auto policy = servePolicy(spec);
    std::vector<double> off, on;
    std::size_t completed_off = 0, completed_on = 0;
    for (int rep = 0; rep < 3; ++rep) {
        auto p = simParams(spec, s);
        {
            Phase ph(rec, "obs.untraced", pass);
            completed_off =
                serving::simulateServing(prefix, *policy, s.services, p)
                    .stats.completed();
            off.push_back(ph.stop());
        }
        obs::TraceRecorder trec;
        p.trace = &trec;
        {
            Phase ph(rec, "obs.traced", pass);
            completed_on =
                serving::simulateServing(prefix, *policy, s.services, p)
                    .stats.completed();
            on.push_back(ph.stop());
        }
        d.split.obsEvents = trec.size();
    }
    if (completed_on != completed_off)
        errors.push_back("obs: a TraceRecorder changed the served "
                         "outcome");
    d.split.obsOffS = median(off);
    d.split.obsOnS = median(on);
}

void
buildSignature(const WorkloadSpec &spec, PassData &d)
{
    auto &sig = d.signature;
    auto add = [&](const std::string &k, const std::string &v) {
        sig.emplace_back(k, v);
    };
    for (std::size_t i = 0; i < d.compiled.size(); ++i) {
        const auto &a = abbr(spec.mix[i].first);
        add("plan." + a, std::to_string(fnv1a(d.compiled[i].plan
                                                  .serialize())));
        const auto &r = d.runs[i];
        add("latency." + a, std::to_string(r.integratedLatency()));
        add("init." + a, std::to_string(r.initLatency()));
        add("stall." + a, std::to_string(r.stallTime));
        add("peak." + a, std::to_string(r.peakMemory));
        add("energy." + a, exact(d.energyJ[i]));
    }
    for (std::size_t j = 0; j < d.ladder.size(); ++j)
        add("ladder." + std::to_string(j),
            std::to_string(fnv1a(d.ladder[j].plan.serialize())));
    for (const auto &c : d.cells) {
        std::string key = std::string("cell.") +
                          baselines::frameworkName(c.fw) + "." +
                          abbr(spec.mix[c.model].first);
        if (!c.run)
            add(key, "-");
        else
            add(key, c.run->oom ? "OOM"
                                : std::to_string(c.run->initLatency()) +
                                      "/" +
                                      std::to_string(c.run->execLatency()));
    }
    if (spec.serve == Serve::FastSim) {
        const auto &st = d.serve.stats;
        add("serve.completed", std::to_string(st.completed()));
        add("serve.shed", std::to_string(st.shedCount()));
        add("serve.goodput", std::to_string(st.goodput()));
        add("serve.p50", std::to_string(st.p50()));
        add("serve.p99", std::to_string(st.p99()));
        add("serve.makespan", std::to_string(d.serve.makespan));
        add("serve.peak", std::to_string(d.serve.peakMemory));
    }
    for (std::size_t k = 0; k < d.schedules.size(); ++k) {
        const auto &o = d.schedules[k];
        std::string run_times;
        for (const auto &r : o.runs)
            run_times += std::to_string(r.start) + ":" +
                         std::to_string(r.end) + ";";
        std::string p = "schedule." + std::to_string(k) + ".";
        add(p + "runs", std::to_string(fnv1a(run_times)));
        add(p + "makespan", std::to_string(o.makespan));
        add(p + "peak", std::to_string(o.peakMemory));
        add(p + "energy", exact(o.energyJoules));
        add(p + "replans", std::to_string(o.replans));
        add(p + "shed", std::to_string(o.shed.size()));
    }
}

PassData
runPass(const WorkloadSpec &spec, const Setup &s, std::uint64_t seed,
        int pass, SpanRecorder *rec, std::vector<std::string> &errors)
{
    PassData d;
    d.traced = rec != nullptr;
    auto dev = gpusim::DeviceProfile::onePlus12();
    // A fresh memo per pass: PlanMemo::global() would hand later passes
    // the earlier passes' incumbents and time warm compiles as cold.
    core::PlanMemo memo;
    core::FlashMemOptions opt;
    opt.opg.memo = &memo;
    core::FlashMem fm(dev, opt);
    const std::size_t n = s.graphs.size();
    auto order = passOrder(n, seed, pass);

    Phase whole(rec, "pass", pass);
    d.compiled.resize(n);
    {
        Phase p(rec, "compile", pass);
        for (auto i : order) {
            Phase c(rec, "flashmem.compile", pass);
            d.compiled[i] = fm.compile(s.graphs[i]);
        }
        d.compileS = p.stop();
    }
    {
        constexpr std::size_t kSteps = std::size(kLadder);
        d.ladder.resize(n * kSteps);
        Phase p(rec, "replan", pass);
        for (auto i : order) {
            for (std::size_t k = 0; k < kSteps; ++k) {
                Phase r(rec, "flashmem.replan", pass);
                auto budget = static_cast<Bytes>(
                    kLadder[k] *
                    static_cast<double>(d.compiled[i].planBudget));
                d.ladder[i * kSteps + k] = fm.replan(d.compiled[i], budget);
            }
        }
        d.replanS = p.stop();
    }
    d.memo = memo.stats();
    {
        Phase p(rec, "runtime.execute", pass);
        for (std::size_t i = 0; i < n; ++i) {
            gpusim::GpuSimulator sim(dev);
            d.runs.push_back(fm.execute(sim, d.compiled[i]));
            d.energyJ.push_back(sim.energyJoules(d.runs.back().end));
            d.activity.push_back(sim.activity(d.runs.back().end));
        }
        d.executeS = p.stop();
    }
    {
        Phase p(rec, "baselines", pass);
        for (std::size_t i = 0; i < n; ++i)
            for (auto fw : baselines::allFrameworks())
                d.cells.push_back(
                    {fw, i, bench::runBaseline(fw, s.graphs[i], dev)});
        d.baselinesS = p.stop();
    }

    auto params = simParams(spec, s);
    auto policy = servePolicy(spec);
    if (spec.serve == Serve::FastSim) {
        if (s.gate)
            s.gate->resetDecisions();
        Phase p(rec, "serving.simulate", pass);
        d.serve = serving::simulateServing(s.traces[0], *policy,
                                           s.services, params);
        d.serveS = p.stop();
        if (s.gate)
            d.decisions = s.gate->decisions();
        d.submitted = s.traces[0].size();
    } else {
        // Its own cold memo, so the compiles and replans the scheduler
        // triggers are not warm-started by this pass's compile phase.
        core::PlanMemo smemo;
        core::FlashMemOptions sopt;
        sopt.opg.memo = &smemo;
        core::FlashMem sfm(dev, sopt);
        multidnn::SchedulerConfig cfg;
        cfg.capacityBudget = kMixCapacityBudget;
        multidnn::EventScheduler sched(sfm, cfg);
        Phase p(rec, "multidnn.schedule", pass);
        for (const auto &trace : s.traces) {
            Phase r(rec, "multidnn.run", pass);
            d.schedules.push_back(
                sched.run(trace, multidnn::MemoryAwarePolicy{}));
            d.submitted += trace.size();
        }
        d.serveS = p.stop();
    }
    // The sweep's host time is no end-to-end metric and its result is
    // the same in every pass, so untraced passes after the first skip
    // it: cheaper passes give the host medians more samples.
    d.swept = pass == 0 || rec != nullptr;
    if (d.swept) {
        serving::SweepParams sp;
        sp.loQps = 0.05 * s.capacityQps;
        sp.hiQps = 8.0 * s.capacityQps;
        sp.requestsPerProbe = kProbeRequests;
        sp.seed = seed;
        sp.slo.p99Bound = s.sloBound;
        sp.slo.minGoodput = 0.95;
        sp.sim = params;
        // Probes above capacity must abort on the backlog bound rather
        // than drain a diverging queue.
        sp.sim.readyLimit = serving::ServingSimParams{}.readyLimit;
        Phase p(rec, "serving.sweep", pass);
        d.sweep = serving::findMaxSustainableQps(s.mix, *policy,
                                                 s.services, sp);
        d.sweepS = p.stop();
    }
    d.coreS = whole.stop() - d.sweepS;

    if (rec) {
        Phase p(rec, "layer_split", pass);
        splitLayers(s, d, rec, pass);
        measureObs(spec, s, d, rec, pass, errors);
    }
    buildSignature(spec, d);
    return d;
}

/** Correctness checks of one pass; returns (attempted, failed). */
std::pair<std::uint64_t, std::uint64_t>
checkPass(const WorkloadSpec &spec, const Setup &s, const PassData &d,
          std::vector<std::string> &errors)
{
    std::uint64_t attempted = 0, failed = 0;
    auto fail = [&](const std::string &what) {
        ++failed;
        if (errors.size() < 20)
            errors.push_back(what);
    };
    for (std::size_t i = 0; i < d.compiled.size(); ++i) {
        const auto &a = abbr(spec.mix[i].first);
        attempted += 2;
        if (!d.compiled[i].plan.validate(d.compiled[i].fusedGraph, false))
            fail("compiled plan of " + a + " fails validate");
        if (d.runs[i].oom)
            fail("FlashMem run of " + a + " OOMs");
        // Calibration compiled the same model first in the process on
        // another memo: the plan, and so its simulation, must match.
        const auto &svc = s.services.at(spec.mix[i].first);
        if (svc.service != d.runs[i].integratedLatency() ||
            svc.initService != d.runs[i].initLatency() ||
            svc.peakBytes != d.runs[i].peakMemory)
            fail("solo run of " + a + " differs from its calibration");
    }
    for (std::size_t j = 0; j < d.ladder.size(); ++j) {
        ++attempted;
        const auto &cm = d.ladder[j];
        if (!cm.plan.validate(cm.fusedGraph, false))
            fail("ladder replan " + std::to_string(j) +
                 " fails validate");
    }
    attempted += d.cells.size();
    if (spec.serve == Serve::FastSim) {
        attempted += d.submitted;
        const auto &st = d.serve.stats;
        if (st.completed() + st.shedCount() != d.submitted ||
            d.serve.unstable)
            fail("serving accounting: completed + shed != submitted");
    }
    for (std::size_t k = 0; k < d.schedules.size(); ++k) {
        const auto &o = d.schedules[k];
        attempted += s.traces[k].size();
        if (o.runs.size() + o.shed.size() != s.traces[k].size())
            fail("scheduler accounting: completed + shed != submitted");
        for (const auto &r : o.runs)
            if (r.oom)
                fail("scheduled run of " + r.model + " OOMs");
    }
    attempted += d.sweep.probes.size();
    if (d.swept && d.sweep.maxSustainableQps <= 0.0)
        fail("capacity sweep found no sustainable rate");
    return {attempted, failed};
}

/** First signature entry that differs between pass 0 and a later
 * pass, or "". The sweep is compared when the later pass ran one. */
std::string
signatureDiff(const PassData &first, const PassData &b)
{
    if (first.signature.size() != b.signature.size())
        return "signature length";
    for (std::size_t i = 0; i < first.signature.size(); ++i)
        if (first.signature[i] != b.signature[i])
            return first.signature[i].first + " (" +
                   first.signature[i].second + " vs " +
                   b.signature[i].second + ")";
    if (b.swept) {
        auto qps = [](const PassData &d) {
            return exact(d.sweep.maxSustainableQps);
        };
        if (qps(first) != qps(b))
            return "sweep.max_qps (" + qps(first) + " vs " + qps(b) + ")";
        if (first.sweep.probes.size() != b.sweep.probes.size())
            return "sweep.probes";
    }
    return "";
}

// ------------------------------------------------------------- metrics

/** PlanStats::symmetryRows; trees older than the symmetry-breaking
 * solver lack the field, and the metric is then reported absent. */
template <typename Stats>
std::optional<double>
symmetryRows(const Stats &st)
{
    if constexpr (requires { st.symmetryRows; })
        return st.symmetryRows;
    else
        return std::nullopt;
}

/** Simulated end-to-end values; identical in every pass. */
struct SimFigures
{
    double latencyMs = 0.0;
    double peakMb = 0.0;
    double clusterPeakMb = 0.0;
    double energyJ = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    double maxQps = 0.0;
    double paperError = 0.0;
    double goodput = 0.0;
};

SimFigures
simFigures(const WorkloadSpec &spec, const PassData &d)
{
    SimFigures f;
    std::vector<double> lat, peak, energy;
    double weighted_energy = 0.0, weight = 0.0;
    for (std::size_t i = 0; i < d.runs.size(); ++i) {
        lat.push_back(toMilliseconds(d.runs[i].integratedLatency()));
        peak.push_back(toMiB(d.runs[i].peakMemory));
        energy.push_back(d.energyJ[i]);
        weighted_energy += spec.mix[i].second * d.energyJ[i];
        weight += spec.mix[i].second;
    }
    // Table 7 / Table 8 analogues: per-model geo-means of the solo runs,
    // so they do not depend on the seed.
    f.latencyMs = geomean(lat);
    f.peakMb = geomean(peak);

    std::vector<double> errs;
    for (const auto &c : d.cells) {
        auto paper = bench::paperTable7(c.fw, spec.mix[c.model].first);
        if (!paper.supported() || !c.run || c.run->oom)
            continue;
        errs.push_back(std::fabs(std::log(
            toMilliseconds(c.run->initLatency()) / paper.init)));
        errs.push_back(std::fabs(std::log(
            toMilliseconds(c.run->execLatency()) / paper.exec)));
    }
    f.paperError = geomean(errs);
    f.maxQps = d.sweep.maxSustainableQps;

    if (spec.serve == Serve::FastSim) {
        const auto &st = d.serve.stats;
        f.p50Ms = st.p50Ms();
        f.p99Ms = st.p99Ms();
        f.goodput = st.goodputRate();
        f.clusterPeakMb = toMiB(d.serve.peakMemory);
        // Table 9 analogue on one device; mix-weighted on a cluster.
        f.energyJ = spec.devices == 1 ? geomean(energy)
                                      : weighted_energy / weight;
    } else {
        std::vector<double> req;
        double joules = 0.0;
        std::size_t good = 0;
        Bytes cluster_peak = 0;
        for (const auto &o : d.schedules) {
            for (const auto &r : o.runs)
                req.push_back(toMilliseconds(r.requestLatency()));
            joules += o.energyJoules;
            good += o.goodput();
            cluster_peak = std::max(cluster_peak, o.peakMemory);
        }
        f.p50Ms = percentile(req, 0.50);
        f.p99Ms = percentile(req, 0.99);
        f.clusterPeakMb = toMiB(cluster_peak);
        f.energyJ = joules / static_cast<double>(req.size());
        f.goodput = static_cast<double>(good) /
                    static_cast<double>(d.submitted);
    }
    return f;
}

std::vector<Metric>
endToEnd(const WorkloadSpec &spec, const std::vector<PassData> &passes,
         double setup_s)
{
    std::vector<double> compile, replan, serve;
    for (const auto &d : passes) {
        if (d.traced)
            continue;
        compile.push_back(d.compileS);
        replan.push_back(d.replanS);
        serve.push_back(d.serveS);
    }
    auto f = simFigures(spec, passes.front());
    double schedule = median(serve);
    return {
        {"setup_s", setup_s, "s"},
        {"compile_s", median(compile), "s"},
        {"replan_s", median(replan), "s"},
        {"schedule_s", schedule, "s"},
        {"host_us_per_req",
         1e6 * schedule / static_cast<double>(passes.front().submitted),
         "us"},
        {"sim_latency_ms", f.latencyMs, "sim_ms"},
        {"sim_peak_mb", f.peakMb, "MB"},
        {"sim_cluster_peak_mb", f.clusterPeakMb, "MB"},
        {"sim_energy_j", f.energyJ, "J"},
        {"sim_p50_ms", f.p50Ms, "sim_ms"},
        {"sim_p99_ms", f.p99Ms, "sim_ms"},
        {"max_qps", f.maxQps, "req/s"},
        {"paper_error", f.paperError, "ln-ratio"},
        {"goodput", f.goodput, "fraction"},
    };
}

/** Per-layer metrics from a traced run: host times are medians over
 * the traced passes, counts come from the last one. */
std::vector<Metric>
perLayer(const WorkloadSpec &spec, const std::vector<PassData> &passes,
         const Setup::Times &setup, const SpanRecorder &rec)
{
    std::vector<const PassData *> traced, untraced;
    for (const auto &d : passes)
        (d.traced ? traced : untraced).push_back(&d);
    const PassData &d = *traced.back();

    auto med = [&](auto field) {
        std::vector<double> v;
        for (const auto *p : traced)
            v.push_back(field(*p));
        return median(v);
    };

    std::vector<Metric> m;
    auto add = [&](const std::string &name, double v, const char *unit) {
        m.push_back({name, v, unit});
    };

    add("models.build_s", setup.build, "s");

    // core/fusion
    double rounds = 0, split = 0, fused = 0;
    for (const auto &cm : d.compiled) {
        rounds += cm.fusionRounds;
        split += cm.groupsSplit;
        fused += static_cast<double>(cm.fusedGraph.layerCount());
    }
    add("fusion.s", med([](const PassData &p) { return p.split.fusionS; }),
        "s");
    add("fusion.rounds", rounds, "count");
    add("fusion.groups_split", split, "count");
    add("fusion.fused_layers", fused, "count");

    // core/lc_opg (compile-path PlanStats: the shipped round of each
    // model, plus the ladder replans)
    core::PlanStats sum;
    std::optional<double> symmetry_rows;
    double overlap = 0.0, preload = 0.0;
    auto accumulate = [&](const core::PlanStats &st) {
        sum.windows += st.windows;
        sum.optimalWindows += st.optimalWindows;
        sum.greedyWindows += st.greedyWindows;
        sum.softRelaxations += st.softRelaxations;
        sum.forcedPreloads += st.forcedPreloads;
        sum.rebalancedChunks += st.rebalancedChunks;
        sum.solverDecisions += st.solverDecisions;
        sum.solverConflicts += st.solverConflicts;
        sum.solverRestarts += st.solverRestarts;
        sum.solverPropagations += st.solverPropagations;
        if (auto rows = symmetryRows(st))
            symmetry_rows = symmetry_rows.value_or(0.0) + *rows;
        sum.solveSeconds += st.solveSeconds;
    };
    for (const auto &cm : d.compiled) {
        accumulate(cm.stats);
        overlap += cm.overlapFraction();
        preload += toMiB(cm.plan.preloadBytes(cm.fusedGraph));
    }
    for (const auto &cm : d.ladder)
        accumulate(cm.stats);
    const double lookups =
        static_cast<double>(d.memo.hits + d.memo.misses);
    add("lc_opg.plan_s", med([](const PassData &p) { return p.split.planS; }),
        "s");
    add("lc_opg.replan_s",
        med([](const PassData &p) { return p.split.replanS; }), "s");
    add("lc_opg.process_s", med([](const PassData &p) {
            return p.split.planStats.processNodesSeconds;
        }),
        "s");
    add("lc_opg.stage_s", med([](const PassData &p) {
            return p.split.planStats.stageSeconds;
        }),
        "s");
    add("lc_opg.build_s", med([](const PassData &p) {
            return p.split.planStats.buildModelSeconds;
        }),
        "s");
    add("lc_opg.solve_s", med([](const PassData &p) {
            return p.split.planStats.solveSeconds;
        }),
        "s");
    add("lc_opg.merge_s", med([](const PassData &p) {
            return p.split.planStats.mergeSeconds;
        }),
        "s");
    add("lc_opg.memo_hits", static_cast<double>(d.memo.hits), "count");
    add("lc_opg.memo_hit_ratio",
        lookups > 0 ? static_cast<double>(d.memo.hits) / lookups : 0.0,
        "fraction");
    add("lc_opg.windows", sum.windows, "count");
    add("lc_opg.greedy_windows", sum.greedyWindows, "count");
    add("lc_opg.soft_relaxations", sum.softRelaxations, "count");
    add("lc_opg.forced_preloads", sum.forcedPreloads, "count");
    add("lc_opg.rebalanced_chunks",
        static_cast<double>(sum.rebalancedChunks), "count");
    add("lc_opg.overlap_fraction",
        overlap / static_cast<double>(d.compiled.size()), "fraction");
    add("lc_opg.preload_mb", preload, "MB");

    // solver
    add("solver.decisions", static_cast<double>(sum.solverDecisions),
        "count");
    add("solver.conflicts", static_cast<double>(sum.solverConflicts),
        "count");
    add("solver.restarts", static_cast<double>(sum.solverRestarts),
        "count");
    add("solver.propagations", static_cast<double>(sum.solverPropagations),
        "count");
    m.push_back({"solver.symmetry_rows", symmetry_rows.value_or(0.0),
                 "count", !symmetry_rows});
    add("solver.decisions_per_s",
        sum.solveSeconds > 0
            ? static_cast<double>(sum.solverDecisions) / sum.solveSeconds
            : 0.0,
        "1/s");
    add("solver.optimal_ratio",
        sum.windows > 0 ? static_cast<double>(sum.optimalWindows) /
                              sum.windows
                        : 0.0,
        "fraction");

    // core/kernel_rewriter
    add("rewriter.s", med([](const PassData &p) { return p.split.rewriteS; }),
        "s");
    add("rewriter.kernels", static_cast<double>(d.split.kernels), "count");

    // core/runtime + gpusim (solo full-budget runs)
    double kernels = 0, init = 0, exec = 0, stall = 0, lat = 0,
           compute = 0, disk = 0, moved = 0;
    for (std::size_t i = 0; i < d.runs.size(); ++i) {
        const auto &r = d.runs[i];
        kernels += static_cast<double>(r.kernels);
        init += toMilliseconds(r.initLatency());
        exec += toMilliseconds(r.execLatency());
        stall += toMilliseconds(r.stallTime);
        lat += toMilliseconds(r.integratedLatency());
        compute += toMilliseconds(d.activity[i].computeBusy);
        disk += toMilliseconds(d.activity[i].diskBusy);
        moved += toMiB(d.activity[i].bytesMoved);
    }
    double execute_s = med([](const PassData &p) { return p.executeS; });
    add("runtime.execute_s", execute_s, "s");
    add("runtime.host_us_per_kernel", 1e6 * execute_s / kernels, "us");
    add("gpusim.init_ms", init, "sim_ms");
    add("gpusim.exec_ms", exec, "sim_ms");
    add("gpusim.stall_ms", stall, "sim_ms");
    add("gpusim.stall_share", stall / lat, "fraction");
    add("gpusim.compute_busy_share", compute / lat, "fraction");
    add("gpusim.disk_busy_share", disk / lat, "fraction");
    add("gpusim.bytes_moved_mb", moved, "MB");
    for (const auto &spec_model : models::modelZoo()) {
        double l = 0.0, p = 0.0;
        for (std::size_t i = 0; i < spec.mix.size(); ++i)
            if (spec.mix[i].first == spec_model.id) {
                l = toMilliseconds(d.runs[i].integratedLatency());
                p = toMiB(d.runs[i].peakMemory);
            }
        add("gpusim.latency_ms." + spec_model.abbr, l, "sim_ms");
        add("gpusim.peak_mb." + spec_model.abbr, p, "MB");
    }

    // baselines
    add("baselines.host_s",
        med([](const PassData &p) { return p.baselinesS; }), "s");
    for (auto fw : baselines::allFrameworks()) {
        std::vector<double> errs, speedups;
        for (const auto &c : d.cells) {
            if (c.fw != fw || !c.run || c.run->oom)
                continue;
            speedups.push_back(
                static_cast<double>(c.run->integratedLatency()) /
                static_cast<double>(d.runs[c.model].integratedLatency()));
            auto paper = bench::paperTable7(fw, spec.mix[c.model].first);
            if (!paper.supported())
                continue;
            errs.push_back(std::fabs(std::log(
                toMilliseconds(c.run->initLatency()) / paper.init)));
            errs.push_back(std::fabs(std::log(
                toMilliseconds(c.run->execLatency()) / paper.exec)));
        }
        std::string name = baselines::frameworkName(fw);
        add("baselines.log_error." + name, geomean(errs), "ln-ratio");
        add("baselines.speedup." + name, geomean(speedups), "x");
    }

    // multidnn (scheduler workload only)
    double replans = 0, replan_hits = 0, queue = 0, cbusy = 0, dbusy = 0,
           switches = 0, shed = 0, degraded = 0, runs = 0;
    for (const auto &o : d.schedules) {
        replans += o.replans;
        replan_hits += static_cast<double>(o.replanMemoHits);
        for (const auto &r : o.runs)
            queue += toMilliseconds(r.queueDelay());
        runs += static_cast<double>(o.runs.size());
        for (const auto &u : o.devices) {
            cbusy += u.computeUtilization;
            dbusy += u.dmaUtilization;
            switches += u.planSwitches;
        }
        shed += static_cast<double>(o.shed.size());
        degraded += o.degradedRuns;
    }
    double nsched = std::max<double>(1.0, static_cast<double>(
                                              d.schedules.size()));
    add("multidnn.schedule_s",
        spec.serve == Serve::Scheduler
            ? med([](const PassData &p) { return p.serveS; })
            : 0.0,
        "s");
    add("multidnn.replans", replans, "count");
    add("multidnn.replan_s", med([](const PassData &p) {
            double sum = 0.0;
            for (const auto &o : p.schedules)
                sum += o.replanSeconds;
            return sum;
        }),
        "s");
    add("multidnn.replan_memo_hits", replan_hits, "count");
    add("multidnn.queue_ms", runs > 0 ? queue / runs : 0.0, "sim_ms");
    add("multidnn.compute_busy", cbusy / nsched, "fraction");
    add("multidnn.dma_busy", dbusy / nsched, "fraction");
    add("multidnn.plan_switches", switches, "count");
    add("multidnn.shed", shed, "count");
    add("multidnn.degraded_runs", degraded, "count");

    // serving
    const bool fast = spec.serve == Serve::FastSim;
    const auto &st = d.serve.stats;
    double dev_busy = 0.0;
    for (const auto &u : d.serve.devices)
        dev_busy += u.computeUtilization;
    if (!d.serve.devices.empty())
        dev_busy /= static_cast<double>(d.serve.devices.size());
    add("serving.calibrate_s", setup.calibrate, "s");
    add("serving.trace_gen_s", setup.traceGen, "s");
    add("serving.simulate_s",
        fast ? med([](const PassData &p) { return p.serveS; }) : 0.0, "s");
    add("serving.arrival_sheds", static_cast<double>(d.serve.arrivalSheds),
        "count");
    add("serving.dispatch_sheds",
        static_cast<double>(st.shedCount() - d.serve.arrivalSheds),
        "count");
    add("serving.slo_misses", static_cast<double>(st.sloViolations()),
        "count");
    add("serving.admitted", static_cast<double>(d.decisions.admitted),
        "count");
    add("serving.tier_calibrated",
        static_cast<double>(d.decisions.tierCalibrated), "count");
    add("serving.tier_predicted",
        static_cast<double>(d.decisions.tierPredicted), "count");
    add("serving.tier_pessimistic",
        static_cast<double>(d.decisions.tierPessimistic), "count");
    add("serving.sweep_s", med([](const PassData &p) { return p.sweepS; }),
        "s");
    add("serving.sweep_probes", static_cast<double>(d.sweep.probes.size()),
        "count");
    add("serving.device_busy", dev_busy, "fraction");

    // obs: the library's simulated-time recorder on the serving path
    double obs_off = med([](const PassData &p) { return p.split.obsOffS; });
    double obs_on = med([](const PassData &p) { return p.split.obsOnS; });
    add("obs.trace_events", static_cast<double>(d.split.obsEvents),
        "count");
    add("obs.overhead_ratio", obs_off > 0 ? obs_on / obs_off : 0.0,
        "ratio");

    // The benchmark's own spans: traced vs untraced pass wall.
    std::vector<double> on, off;
    for (const auto *p : traced)
        on.push_back(p->coreS);
    for (const auto *p : untraced)
        off.push_back(p->coreS);
    add("trace.overhead_ratio", median(on) / median(off), "ratio");
    add("trace.spans", static_cast<double>(rec.spans().size()), "count");
    return m;
}

/** Which end-to-end metric (and workload) each per-layer group should
 * move; printed beside the traced run's values. */
const char *
movesFor(const std::string &name)
{
    static const std::vector<std::pair<std::string, const char *>> map = {
        {"models.", "setup_s (all)"},
        {"fusion.", "compile_s (zoo_plan)"},
        {"lc_opg.windows", "sim_latency_ms / sim_peak_mb (zoo_plan)"},
        {"lc_opg.greedy", "sim_latency_ms / sim_peak_mb (zoo_plan)"},
        {"lc_opg.soft", "sim_latency_ms / sim_peak_mb (zoo_plan)"},
        {"lc_opg.forced", "sim_latency_ms / sim_peak_mb (zoo_plan)"},
        {"lc_opg.rebalanced", "sim_latency_ms / sim_peak_mb (zoo_plan)"},
        {"lc_opg.overlap", "sim_latency_ms / sim_peak_mb (zoo_plan)"},
        {"lc_opg.preload", "sim_latency_ms / sim_peak_mb (zoo_plan)"},
        {"lc_opg.", "compile_s / replan_s (zoo_plan), schedule_s "
                    "(multidnn_mix)"},
        {"solver.", "compile_s / replan_s (zoo_plan)"},
        {"rewriter.", "compile_s (zoo_plan)"},
        {"runtime.", "schedule_s (multidnn_mix)"},
        {"gpusim.", "sim_latency_ms / sim_peak_mb / sim_energy_j "
                    "(zoo_plan)"},
        {"baselines.host", "none: host cost of the baseline cells"},
        {"baselines.speedup", "sim_latency_ms (zoo_plan)"},
        {"baselines.", "paper_error (zoo_plan)"},
        {"multidnn.replan", "schedule_s (multidnn_mix)"},
        {"multidnn.schedule", "schedule_s (multidnn_mix)"},
        {"multidnn.shed", "goodput (multidnn_mix)"},
        {"multidnn.degraded", "goodput (multidnn_mix)"},
        {"multidnn.", "sim_p50_ms / sim_p99_ms (multidnn_mix)"},
        {"serving.calibrate", "setup_s (all)"},
        {"serving.trace_gen", "setup_s (all)"},
        {"serving.simulate", "host_us_per_req (serving_overload)"},
        {"serving.sweep", "max_qps (serving_overload)"},
        {"serving.device", "max_qps (serving_overload)"},
        {"serving.", "goodput / sim_p99_ms (serving_overload)"},
        {"obs.", "host_us_per_req (serving_overload)"},
        {"trace.", "none: cost of the benchmark's own spans"},
    };
    for (const auto &[prefix, moves] : map)
        if (name.compare(0, prefix.size(), prefix) == 0)
            return moves;
    return "";
}

void
printSpanTable(const SpanRecorder &rec, int traced_passes,
               std::ostream &log)
{
    auto self = rec.selfTimes();
    struct Row
    {
        std::size_t calls = 0;
        double total = 0.0, self = 0.0;
    };
    std::map<std::string, Row> rows;
    for (std::size_t i = 0; i < rec.spans().size(); ++i) {
        const auto &s = rec.spans()[i];
        auto &r = rows[s.name];
        ++r.calls;
        r.total += s.end - s.start;
        r.self += self[i];
    }
    log << "spans (host seconds per traced pass; set-up spans once):\n";
    char buf[160];
    for (const auto &[name, r] : rows) {
        bool setup = name == "setup" || name == "models.build" ||
                     name == "serving.calibrate" ||
                     name == "serving.trace_gen";
        double per = setup ? 1 : std::max(1, traced_passes);
        std::snprintf(buf, sizeof(buf),
                      "  %-22s calls %6zu  total %9.4f  self %9.4f\n",
                      name.c_str(), r.calls, r.total / per, r.self / per);
        log << buf;
    }
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const auto &s : specs())
            v.push_back(s.name);
        return v;
    }();
    return names;
}

RunReport
runWorkload(const RunOptions &opts, std::ostream &log)
{
    const WorkloadSpec *spec = nullptr;
    for (const auto &s : specs())
        if (s.name == opts.workload)
            spec = &s;
    RunReport report;
    if (!spec) {
        report.correct = false;
        report.errors.push_back("unknown workload " + opts.workload);
        return report;
    }

    SpanRecorder recorder;
    SpanRecorder *rec = opts.trace ? &recorder : nullptr;

    Setup s = makeSetup(*spec, opts.seed, rec);
    log << "setup: " << s.graphs.size() << " models, "
        << s.traces.size() << " trace(s) of " << spec->requests
        << " requests at " << spec->load * s.capacityQps
        << " req/s (cluster capacity " << s.capacityQps
        << " req/s), SLO bound " << toMilliseconds(s.sloBound)
        << " ms; set-up " << s.times.total << " s\n";
    if (opts.setupOnly) {
        report.attempted = 1;
        report.metrics = {
            {"setup_s", s.times.total, "s"},
            {"models.build_s", s.times.build, "s"},
            {"serving.calibrate_s", s.times.calibrate, "s"},
            {"serving.trace_gen_s", s.times.traceGen, "s"},
        };
        return report;
    }

    // Traced runs alternate untraced and traced passes, so the span
    // overhead is measured on like passes.
    std::vector<PassData> passes;
    const double start = hostSeconds();
    double last_elapsed = 0.0;
    double pass_s[2] = {0.0, 0.0};
    for (int pass = 0;; ++pass) {
        bool traced = opts.trace && pass % 2 == 1;
        passes.push_back(runPass(*spec, s, opts.seed, pass,
                                 traced ? rec : nullptr, report.errors));
        const auto &d = passes.back();
        auto [att, fail] = checkPass(*spec, s, d, report.errors);
        report.attempted += att;
        report.failed += fail;
        std::string diff = signatureDiff(passes.front(), d);
        if (!diff.empty()) {
            ++report.failed;
            report.errors.push_back("pass " + std::to_string(pass) +
                                    " is not bit-identical to pass 0: " +
                                    diff);
        }
        char buf[300];
        std::snprintf(buf, sizeof(buf),
                      "pass %d%s: compile %.4f s, replan %.4f s, execute "
                      "%.4f s, baselines %.4f s, serve %.4f s",
                      pass, traced ? " (traced)" : "", d.compileS, d.replanS,
                      d.executeS, d.baselinesS, d.serveS);
        log << buf;
        if (d.swept) {
            std::snprintf(buf, sizeof(buf), ", sweep %.4f s", d.sweepS);
            log << buf;
        }
        log << "\n";
        // The next pass is estimated by the longer of the last two (a
        // traced run alternates short and long ones; pass 0 sweeps).
        double elapsed = hostSeconds() - start;
        pass_s[pass % 2] = elapsed - last_elapsed;
        last_elapsed = elapsed;
        double per_pass = pass == 0 ? pass_s[0]
                                    : std::max(pass_s[0], pass_s[1]);
        int min_passes = opts.trace ? kMinPasses + 1 : kMinPasses;
        if (pass + 1 >= min_passes && elapsed + per_pass > opts.seconds)
            break;
        if (elapsed + per_pass > kHardStopSeconds)
            break;
    }

    report.correct = report.failed == 0 && report.errors.empty();
    if (opts.trace) {
        report.metrics = perLayer(*spec, passes, s.times, recorder);
        int traced_passes = 0;
        for (const auto &d : passes)
            traced_passes += d.traced;
        printSpanTable(recorder, traced_passes, log);
        log << "per-layer metrics (value, unit, should move):\n";
        for (const auto &m : report.metrics) {
            char buf[200];
            if (m.absent)
                std::snprintf(buf, sizeof(buf), "  %-34s %16s %-9s %s\n",
                              m.name.c_str(), "absent", m.unit.c_str(),
                              movesFor(m.name));
            else
                std::snprintf(buf, sizeof(buf),
                              "  %-34s %16.6f %-9s %s\n", m.name.c_str(),
                              m.value, m.unit.c_str(), movesFor(m.name));
            log << buf;
        }
        if (!opts.outDir.empty()) {
            std::string path = opts.outDir + "/spans-" + spec->name +
                               "-" + std::to_string(opts.seed) + ".json";
            std::ofstream os(path);
            recorder.writeJson(os);
            log << "spans written to " << path << "\n";
        }
    } else {
        report.metrics = endToEnd(*spec, passes, s.times.total);
    }
    return report;
}

} // namespace perfbench
