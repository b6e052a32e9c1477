/**
 * @file
 * Tests for arrival-time admission (serving/admission.hh): the
 * three-tier service-estimate ladder (calibrated / GBT-predicted /
 * pessimistic), the backlog gate's verdicts on hand-built cluster
 * states, drop accounting through the fast simulator, and the
 * fast-sim-vs-EventScheduler bit-exact cross-validation with the gate
 * enabled and a cold model in the mix, the event loop's skipped
 * dispatch-point admission passes against a pass at every dispatch,
 * and its policy-ordered ready set against entry-order twins of the
 * ordered policies.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <string>

#include "core/flashmem.hh"
#include "multidnn/faults.hh"
#include "multidnn/scheduler.hh"
#include "obs/trace.hh"
#include "serving/admission.hh"
#include "serving/sweep.hh"

namespace flashmem::serving {
namespace {

using models::ModelId;
using multidnn::Admission;
using multidnn::DeadlinePolicy;
using multidnn::DeviceCluster;
using multidnn::DropReason;
using multidnn::ReadyRequest;

/** Hand-written calibration: ResNet 10 ms, ViT 40 ms; degraded plans
 * run 50% longer at half the budget. */
ServiceTable
handTable()
{
    ServiceTable table;
    table[ModelId::ResNet50] = {milliseconds(10), milliseconds(15),
                                mib(200), mib(120), mib(512),
                                mib(256)};
    table[ModelId::ViT] = {milliseconds(40), milliseconds(60),
                           mib(300), mib(180), mib(512), mib(256)};
    return table;
}

ReadyRequest
request(ModelId model, SimTime arrival, SimTime bound)
{
    ReadyRequest r;
    r.model = model;
    r.arrival = arrival;
    r.latencyBound = bound;
    return r;
}

// --------------------------------------------- the estimate ladder

TEST(Estimator, CalibratedTierPassesThrough)
{
    ServiceEstimator est(handTable());
    EXPECT_EQ(est.calibratedCount(), 2u);
    const auto &e = est.estimate(ModelId::ResNet50);
    EXPECT_EQ(e.tier, EstimateTier::Calibrated);
    EXPECT_EQ(e.service, milliseconds(10));
    EXPECT_EQ(e.degradedService, milliseconds(15));
}

TEST(Estimator, PessimisticWithoutPredictor)
{
    EstimatorParams params;
    params.usePredictor = false;
    ServiceEstimator est(handTable(), params);
    EXPECT_FALSE(est.predictorTrained());
    // 2x the slowest calibrated service (ViT: 40 / 60 ms).
    const auto &e = est.estimate(ModelId::DeepViT);
    EXPECT_EQ(e.tier, EstimateTier::Pessimistic);
    EXPECT_EQ(e.service, milliseconds(80));
    EXPECT_EQ(e.degradedService, milliseconds(120));
}

TEST(Estimator, PessimisticWhenTooFewCalibratedModels)
{
    // One calibrated model cannot train a predictor (no held-out
    // residual exists); cold models get the pessimistic tier.
    ServiceTable table;
    table[ModelId::ResNet50] = handTable()[ModelId::ResNet50];
    ServiceEstimator est(table);
    EXPECT_FALSE(est.predictorTrained());
    EXPECT_EQ(est.estimate(ModelId::ViT).tier,
              EstimateTier::Pessimistic);
    EXPECT_EQ(est.estimate(ModelId::ViT).service, milliseconds(20));
}

TEST(Estimator, EmptyTableFallsBackToFixedService)
{
    EstimatorParams params;
    ServiceEstimator est(ServiceTable{}, params);
    EXPECT_EQ(est.calibratedCount(), 0u);
    const auto &e = est.estimate(ModelId::ResNet50);
    EXPECT_EQ(e.tier, EstimateTier::Pessimistic);
    EXPECT_EQ(e.service, params.fallbackService);
}

TEST(Estimator, PredictedTierIsInflatedAndDeterministic)
{
    ServiceEstimator a(handTable());
    ASSERT_TRUE(a.predictorTrained());
    EXPECT_GE(a.inflation(), EstimatorParams{}.minInflation);
    const auto &cold = a.estimate(ModelId::DeepViT);
    EXPECT_EQ(cold.tier, EstimateTier::Predicted);
    EXPECT_GT(cold.service, 0);
    EXPECT_GT(cold.degradedService, cold.service); // degraded is slower

    // Same inputs, second estimator: bit-identical ladder (seeded GBT,
    // no row subsampling).
    ServiceEstimator b(handTable());
    EXPECT_EQ(a.inflation(), b.inflation());
    for (const auto &spec : models::modelZoo()) {
        EXPECT_EQ(a.estimate(spec.id).service,
                  b.estimate(spec.id).service);
        EXPECT_EQ(a.estimate(spec.id).degradedService,
                  b.estimate(spec.id).degradedService);
    }
}

TEST(Estimator, PredictionTracksModelScale)
{
    // Train on four models spanning 10 ms .. 200 ms; a cold LLM far
    // bigger than everything calibrated must land near the slow end,
    // and a cold vision model near the fast end — the graph features
    // carry the size signal.
    ServiceTable table = handTable();
    table[ModelId::DepthAnythingS] = {milliseconds(20),
                                      milliseconds(30), mib(200),
                                      mib(120), mib(512), mib(256)};
    table[ModelId::GPTNeoS] = {milliseconds(200), milliseconds(300),
                               mib(400), mib(240), mib(512),
                               mib(256)};
    ServiceEstimator est(table);
    ASSERT_TRUE(est.predictorTrained());
    // The efficiency target keeps the ordering even though both cold
    // models are bigger than everything calibrated (a raw service
    // target would saturate them into one leaf).
    EXPECT_GT(est.estimate(ModelId::GPTNeo1_3B).service,
              est.estimate(ModelId::DeepViT).service);
    EXPECT_GT(est.estimate(ModelId::GPTNeo2_7B).service,
              est.estimate(ModelId::GPTNeo1_3B).service);
}

// ------------------------------------------------ the backlog gate

TEST(Controller, AdmitsUnboundedRequests)
{
    ServiceEstimator est(handTable());
    AdmissionController ctrl(est);
    DeviceCluster cluster({});
    auto verdict = ctrl.admitAtArrival(
        0, request(ModelId::ViT, 0, /*bound=*/0), {}, cluster);
    EXPECT_EQ(verdict, Admission::Admit);
    EXPECT_EQ(ctrl.decisions().admitted, 1u);
    EXPECT_EQ(ctrl.decisions().tierCalibrated, 1u);
}

TEST(Controller, ShedsWhenDeviceHorizonBlowsDeadline)
{
    ServiceEstimator est(handTable());
    AdmissionController ctrl(est);
    DeviceCluster cluster({});
    // Busy the lone device's compute until t = 100 ms.
    auto t = cluster.planTimes(0, 0, 0, milliseconds(100));
    cluster.commit(0, ModelId::ViT, 0, t);

    // ResNet (10 ms) due by 50 ms: projected completion 110 ms → shed.
    EXPECT_EQ(ctrl.admitAtArrival(
                  0, request(ModelId::ResNet50, 0, milliseconds(50)),
                  {}, cluster),
              Admission::Shed);
    // Same request due by 200 ms: 110 ms fits → admit.
    EXPECT_EQ(ctrl.admitAtArrival(
                  0, request(ModelId::ResNet50, 0, milliseconds(200)),
                  {}, cluster),
              Admission::Admit);
    EXPECT_EQ(ctrl.decisions().shed, 1u);
    EXPECT_EQ(ctrl.decisions().admitted, 1u);
}

TEST(Controller, QueuedWorkCountsAgainstTheDeadline)
{
    ServiceEstimator est(handTable());
    AdmissionController ctrl(est);
    DeviceCluster cluster({}); // idle
    // Five queued ViTs (40 ms each) due no later than the arriving
    // request = 200 ms of unplaced backlog ahead of it under EDF.
    std::vector<ReadyRequest> ready(
        5, request(ModelId::ViT, 0, milliseconds(100)));

    // ResNet due by 100 ms: starts at ~200 ms → shed.
    EXPECT_EQ(ctrl.admitAtArrival(
                  0, request(ModelId::ResNet50, 0, milliseconds(100)),
                  ready, cluster),
              Admission::Shed);
    // Empty queue: the same request admits.
    EXPECT_EQ(ctrl.admitAtArrival(
                  0, request(ModelId::ResNet50, 0, milliseconds(100)),
                  {}, cluster),
              Admission::Admit);
    // A degraded queued request contributes its degraded estimate:
    // one degraded ViT (60 ms) + bound 100 ms still fits (70 ms).
    std::vector<ReadyRequest> degraded_ready(
        1, request(ModelId::ViT, 0, milliseconds(100)));
    degraded_ready[0].degraded = true;
    EXPECT_EQ(ctrl.admitAtArrival(
                  0, request(ModelId::ResNet50, 0, milliseconds(100)),
                  degraded_ready, cluster),
              Admission::Admit);
}

TEST(Controller, LaterDeadlineQueueDoesNotBlockAdmission)
{
    // Under EDF only earlier-deadline work runs ahead of the arriving
    // request, so a queue full of later-deadline stragglers (the
    // normal shape of an overloaded queue) must not shed a tight
    // request that would actually jump straight to the front.
    ServiceEstimator est(handTable());
    AdmissionController ctrl(est);
    DeviceCluster cluster({}); // idle
    std::vector<ReadyRequest> ready(
        5, request(ModelId::ViT, 0, milliseconds(400)));
    EXPECT_EQ(ctrl.admitAtArrival(
                  0, request(ModelId::ResNet50, 0, milliseconds(100)),
                  ready, cluster),
              Admission::Admit);
}

TEST(Controller, BacklogSpreadsAcrossLiveDevices)
{
    ServiceEstimator est(handTable());
    AdmissionController ctrl(est);
    multidnn::ClusterConfig cfg;
    cfg.deviceCount = 4;
    DeviceCluster cluster(cfg);
    // 200 ms of same-deadline backlog over 4 devices = 50 ms projected
    // start; a ResNet due by 100 ms fits where the single-device case
    // shed.
    std::vector<ReadyRequest> ready(
        5, request(ModelId::ViT, 0, milliseconds(100)));
    EXPECT_EQ(ctrl.admitAtArrival(
                  0, request(ModelId::ResNet50, 0, milliseconds(100)),
                  ready, cluster),
              Admission::Admit);
    // A crashed device drops out of the projection: 200 ms / 3 ≈ 66 ms
    // start + 10 ms still fits; with three of four down (200 ms on one
    // device) it sheds.
    cluster.crash(1, 0);
    EXPECT_EQ(ctrl.admitAtArrival(
                  0, request(ModelId::ResNet50, 0, milliseconds(100)),
                  ready, cluster),
              Admission::Admit);
    cluster.crash(2, 0);
    cluster.crash(3, 0);
    EXPECT_EQ(ctrl.admitAtArrival(
                  0, request(ModelId::ResNet50, 0, milliseconds(100)),
                  ready, cluster),
              Admission::Shed);
}

TEST(Controller, DegradeModeDegradesInsteadOfShedding)
{
    ServiceEstimator est(handTable());
    AdmissionControllerParams params;
    params.mode = DeadlinePolicy::Overload::Degrade;
    AdmissionController ctrl(est, params);
    DeviceCluster cluster({});
    auto t = cluster.planTimes(0, 0, 0, milliseconds(100));
    cluster.commit(0, ModelId::ViT, 0, t);
    EXPECT_EQ(ctrl.admitAtArrival(
                  0, request(ModelId::ResNet50, 0, milliseconds(50)),
                  {}, cluster),
              Admission::Degrade);
    EXPECT_EQ(ctrl.decisions().degraded, 1u);
    EXPECT_EQ(ctrl.decisions().shed, 0u);
}

TEST(Controller, AllDownClusterAdmits)
{
    // Starvation accounting owns the dead-cluster case; the gate must
    // not shed into a momentary total outage racing the rejoins.
    ServiceEstimator est(handTable());
    AdmissionController ctrl(est);
    DeviceCluster cluster({});
    cluster.crash(0, 0);
    EXPECT_EQ(ctrl.admitAtArrival(
                  0, request(ModelId::ResNet50, 0, milliseconds(1)),
                  {}, cluster),
              Admission::Admit);
}

// -------------------------------------------- cold-model influx mix

TEST(ColdInflux, ReweightsMixToTheColdFraction)
{
    ModelMix base;
    base.entries = {{ModelId::ResNet50, 3.0, milliseconds(150), 0},
                    {ModelId::ViT, 1.0, milliseconds(250), 0}};
    auto mix = withColdInflux(
        base, {{ModelId::DeepViT, 1.0, milliseconds(300), 0}}, 0.25);
    ASSERT_EQ(mix.entries.size(), 3u);
    double total = 0.0, cold = 0.0;
    for (const auto &e : mix.entries) {
        total += e.weight;
        if (e.model == ModelId::DeepViT)
            cold += e.weight;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
    EXPECT_NEAR(cold / total, 0.25, 1e-12);
    // Base entries keep their relative weights and latency bounds.
    EXPECT_NEAR(mix.entries[0].weight / mix.entries[1].weight, 3.0,
                1e-9);
    EXPECT_EQ(mix.entries[2].latencyBound, milliseconds(300));
}

// -------------------------------- the gate inside the event loop

TEST(ArrivalGate, FastSimShedsAtArrivalWithCompleteAccounting)
{
    auto table = handTable();
    ServiceEstimator est(table);
    AdmissionController ctrl(est);

    ModelMix mix;
    mix.entries = {{ModelId::ResNet50, 2.0, milliseconds(30), 0},
                   {ModelId::ViT, 1.0, milliseconds(80), 0}};
    // ~3x the single-device capacity: the backlog gate must engage.
    auto trace = poissonTrace(mix, 150.0, 4000, /*seed=*/11);
    DeadlinePolicy policy;
    ServingSimParams params;
    params.readyLimit = 0;
    params.arrival = &ctrl;
    auto out = simulateServing(trace, policy, table, params);

    ASSERT_GT(out.arrivalSheds, 0u);
    EXPECT_GE(out.stats.shedCount(), out.arrivalSheds);
    // Every submitted request is accounted: completed + shed.
    EXPECT_EQ(out.stats.completed() + out.stats.shedCount(),
              out.submitted);
    // The controller's own ledger covers every arrival it saw.
    EXPECT_EQ(ctrl.decisions().shed, out.arrivalSheds);
}

TEST(ArrivalGate, ImprovesGoodputUnderOverload)
{
    // 4 devices with overlap at 2x capacity: dispatch-point admission
    // checks now + service against the deadline, but the dispatched
    // run queues behind the device's compute horizon (pipeline depth),
    // so under sustained overload the dispatch point is structurally
    // optimistic by about one pipelined run — it concentrates
    // dispatches at the marginal edge and completes them late, burning
    // capacity for zero goodput. The arrival gate projects that
    // backlog and sheds the marginal requests up front. Both models
    // cost the same 10 ms (only their bounds differ), so the
    // comparison is pure timing — the gate cannot win by skewing the
    // served mix toward cheaper requests.
    ServiceTable table;
    table[ModelId::ResNet50] = {milliseconds(10), milliseconds(15),
                                mib(200), mib(120), mib(512),
                                mib(256)};
    table[ModelId::DepthAnythingS] = {milliseconds(10),
                                      milliseconds(15), mib(200),
                                      mib(120), mib(512), mib(256)};
    ServiceEstimator est(table);
    AdmissionController ctrl(est);

    ModelMix mix;
    mix.entries = {{ModelId::ResNet50, 1.0, milliseconds(40), 0},
                   {ModelId::DepthAnythingS, 1.0, milliseconds(80),
                    0}};
    auto trace = poissonTrace(mix, 800.0, 20000, /*seed=*/13);
    DeadlinePolicy policy;
    ServingSimParams params;
    params.readyLimit = 0;
    params.cluster.deviceCount = 4;
    params.cluster.overlapInitWithExec = true;

    auto baseline = simulateServing(trace, policy, table, params);
    params.arrival = &ctrl;
    auto gated = simulateServing(trace, policy, table, params);

    ASSERT_GT(gated.arrivalSheds, 0u);
    EXPECT_EQ(baseline.arrivalSheds, 0u);
    EXPECT_GT(gated.stats.goodputRate(), baseline.stats.goodputRate());
    EXPECT_LE(gated.stats.sloViolations(),
              baseline.stats.sloViolations());
}

TEST(ArrivalGate, CrossValidatesBitExactWithColdModelAtScale)
{
    // The acceptance bar: thousands of requests at 2x overload through
    // both execution paths with the arrival gate enabled AND a cold
    // model in the mix (ViT is absent from the gate's calibration view
    // and estimated by the GBT tier; execution still uses the full
    // oracle table). Counts, goodput, makespan, the full streaming-
    // percentile state, and the arrival-shed ledger must agree
    // exactly — the gate reads only state the two paths share.
    core::FlashMem fm(gpusim::DeviceProfile::onePlus12());
    ModelMix mix;
    mix.entries = {{ModelId::ResNet50, 2.0, milliseconds(150), 0},
                   {ModelId::DepthAnythingS, 1.0, milliseconds(400),
                    0},
                   {ModelId::ViT, 0.5, milliseconds(250), 0}};
    auto oracle = calibrateServices(fm, mix.distinctModels());

    ServiceTable view = oracle;
    view.erase(ModelId::ViT); // ViT is cold for the gate
    ServiceEstimator estimator(view);
    ASSERT_TRUE(estimator.predictorTrained());
    ASSERT_EQ(estimator.estimate(ModelId::ViT).tier,
              EstimateTier::Predicted);
    AdmissionController ctrl(estimator);

    auto trace = poissonTrace(mix, 30.0, 2500, /*seed=*/43);
    DeadlinePolicy policy;

    ServingSimParams params;
    params.readyLimit = 0;
    params.arrival = &ctrl;
    auto fast = simulateServing(trace, policy, oracle, params);
    auto fast_decisions = ctrl.decisions();
    ctrl.resetDecisions();

    multidnn::SchedulerConfig cfg;
    cfg.arrivalAdmission = &ctrl;
    multidnn::EventScheduler sched(fm, cfg);
    auto real = sched.run(trace, policy);
    auto real_stats = ServingStats::fromOutcome(real);

    std::size_t real_arrival_sheds = 0;
    for (const auto &s : real.shed)
        real_arrival_sheds += s.reason == DropReason::ArrivalShed;

    ASSERT_GT(real.runs.size(), 1000u);
    ASSERT_GT(fast.arrivalSheds, 100u); // the gate carried real load
    EXPECT_EQ(real.runs.size(), fast.stats.completed());
    EXPECT_EQ(real.shed.size(), fast.stats.shedCount());
    EXPECT_EQ(real_arrival_sheds, fast.arrivalSheds);
    EXPECT_EQ(real.goodput(), fast.stats.goodput());
    EXPECT_EQ(real.makespan, fast.makespan);
    EXPECT_EQ(real_stats.p50(), fast.stats.p50());
    EXPECT_EQ(real_stats.p95(), fast.stats.p95());
    EXPECT_EQ(real_stats.p99(), fast.stats.p99());
    EXPECT_DOUBLE_EQ(real_stats.meanLatencyMs(),
                     fast.stats.meanLatencyMs());
    // The controller made identical decisions on both paths.
    EXPECT_EQ(ctrl.decisions().admitted, fast_decisions.admitted);
    EXPECT_EQ(ctrl.decisions().shed, fast_decisions.shed);
    EXPECT_EQ(ctrl.decisions().tierPredicted,
              fast_decisions.tierPredicted);
    ASSERT_GT(fast_decisions.tierPredicted, 0u); // cold tier exercised
}

// ------------------------------------ skipping the admission pass

/** DeadlinePolicy whose admitUntil() never vouches for a request, so
 * the event loop runs the admission pass at every dispatch. */
class EveryDispatchDeadlinePolicy : public DeadlinePolicy
{
  public:
    using DeadlinePolicy::DeadlinePolicy;
    SimTime
    admitUntil(const ReadyRequest &) const override
    {
        return std::numeric_limits<SimTime>::min();
    }
};

void
expectSameEvents(const obs::TraceRecorder &a, const obs::TraceRecorder &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto &x = a.events()[i];
        const auto &y = b.events()[i];
        ASSERT_TRUE(x.time == y.time && x.a == y.a && x.b == y.b &&
                    x.c == y.c && x.id == y.id && x.runId == y.runId &&
                    x.device == y.device && x.model == y.model &&
                    x.kind == y.kind && x.flag == y.flag)
            << "event " << i;
    }
}

void
expectSameOutcome(const ServingOutcome &a, const ServingOutcome &b)
{
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.stats.completed(), b.stats.completed());
    EXPECT_EQ(a.stats.shedCount(), b.stats.shedCount());
    EXPECT_EQ(a.stats.degradedCount(), b.stats.degradedCount());
    EXPECT_EQ(a.stats.goodput(), b.stats.goodput());
    EXPECT_EQ(a.stats.p50(), b.stats.p50());
    EXPECT_EQ(a.stats.p95(), b.stats.p95());
    EXPECT_EQ(a.stats.p99(), b.stats.p99());
    EXPECT_EQ(a.stats.meanLatencyMs(), b.stats.meanLatencyMs());
    EXPECT_EQ(a.stats.maxLatencyMs(), b.stats.maxLatencyMs());
    EXPECT_EQ(a.stats.meanQueueDelayMs(), b.stats.meanQueueDelayMs());
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.peakMemory, b.peakMemory);
    EXPECT_EQ(a.unstable, b.unstable);
    EXPECT_EQ(a.submitted, b.submitted);
    EXPECT_EQ(a.arrivalSheds, b.arrivalSheds);
    ASSERT_EQ(a.devices.size(), b.devices.size());
    for (std::size_t d = 0; d < a.devices.size(); ++d) {
        const auto &x = a.devices[d];
        const auto &y = b.devices[d];
        EXPECT_EQ(x.dispatched, y.dispatched) << "device " << d;
        EXPECT_EQ(x.planSwitches, y.planSwitches) << "device " << d;
        EXPECT_EQ(x.computeBusyTime, y.computeBusyTime) << "device " << d;
        EXPECT_EQ(x.dmaBusyTime, y.dmaBusyTime) << "device " << d;
        EXPECT_EQ(x.peakMemory, y.peakMemory) << "device " << d;
        EXPECT_EQ(x.downTime, y.downTime) << "device " << d;
    }
    EXPECT_EQ(a.faults.crashes, b.faults.crashes);
    EXPECT_EQ(a.faults.timeouts, b.faults.timeouts);
    EXPECT_EQ(a.faults.dmaAborts, b.faults.dmaAborts);
    EXPECT_EQ(a.faults.retries, b.faults.retries);
    EXPECT_EQ(a.faults.failovers, b.faults.failovers);
    EXPECT_EQ(a.faults.faultSheds, b.faults.faultSheds);
    EXPECT_EQ(a.faults.starved, b.faults.starved);
}

/** Requests the dispatch-point pass dropped (DropReason::Admission). */
std::size_t
dispatchSheds(const obs::TraceRecorder &rec)
{
    std::size_t n = 0;
    for (const auto &e : rec.events())
        n += e.kind == obs::EventKind::RequestShed &&
             e.a == static_cast<std::int64_t>(DropReason::Admission);
    return n;
}

/** 2x overload of handTable() on two pipelined devices, with bounds
 * tight enough that the dispatch-point pass sheds or degrades. */
std::vector<multidnn::ModelRequest>
floorTrace()
{
    ModelMix mix;
    mix.entries = {{ModelId::ResNet50, 2.0, milliseconds(30), 0},
                   {ModelId::ViT, 1.0, milliseconds(90), 0},
                   {ModelId::ResNet50, 0.5, 0, 0}};
    return poissonTrace(mix, 110.0, 3000, /*seed=*/29);
}

/** A crash, stalls and DMA errors over floorTrace()'s two devices. */
multidnn::FaultPlan
floorFaults()
{
    multidnn::FaultPlanParams fp;
    fp.stallsPerSecond = 0.5;
    fp.meanStall = milliseconds(40);
    fp.dmaErrorsPerSecond = 1.0;
    return multidnn::mergeFaultPlans(
        multidnn::crashAndRejoin(0, milliseconds(800),
                                 milliseconds(300)),
        multidnn::generateFaultPlan(fp, 2, seconds(30), 5));
}

TEST(AdmissionFloor, SkippedPassesMatchAPassAtEveryDispatch)
{
    // Every mix of overload mode, arrival gate and fault plan.
    auto table = handTable();
    ServiceEstimator est(table);
    auto trace = floorTrace();
    auto plan = floorFaults();

    for (auto mode : {DeadlinePolicy::Overload::Shed,
                      DeadlinePolicy::Overload::Degrade}) {
        for (bool gated : {false, true}) {
            for (bool faulty : {false, true}) {
                SCOPED_TRACE(::testing::Message()
                             << "degrade=" << (mode ==
                                               DeadlinePolicy::Overload::
                                                   Degrade)
                             << " gated=" << gated
                             << " faults=" << faulty);
                AdmissionControllerParams cp;
                cp.mode = mode;
                AdmissionController ctrl(est, cp);
                ServingSimParams params;
                params.readyLimit = 0;
                params.cluster.deviceCount = 2;
                params.cluster.overlapInitWithExec = true;
                if (gated)
                    params.arrival = &ctrl;
                if (faulty)
                    params.faults = plan;

                DeadlinePolicy policy(mode);
                obs::TraceRecorder rec;
                params.trace = &rec;
                auto out = simulateServing(trace, policy, table, params);
                auto decisions = ctrl.decisions();

                ctrl.resetDecisions();
                EveryDispatchDeadlinePolicy every(mode);
                obs::TraceRecorder every_rec;
                params.trace = &every_rec;
                auto want =
                    simulateServing(trace, every, table, params);

                expectSameOutcome(out, want);
                expectSameEvents(rec, every_rec);
                EXPECT_EQ(decisions.admitted, ctrl.decisions().admitted);
                EXPECT_EQ(decisions.degraded, ctrl.decisions().degraded);
                EXPECT_EQ(decisions.shed, ctrl.decisions().shed);

                // Each arm exercises the path it is named after.
                if (mode == DeadlinePolicy::Overload::Shed && !gated) {
                    EXPECT_GT(dispatchSheds(rec), 0u);
                }
                if (mode == DeadlinePolicy::Overload::Degrade) {
                    EXPECT_GT(out.stats.degradedCount(), 0u);
                }
                if (gated) {
                    EXPECT_GT(decisions.total(), 0u);
                }
                if (faulty) {
                    EXPECT_GT(out.faults.retries, 0);
                }
            }
        }
    }
}

TEST(AdmissionFloor, DeadlineAdmitUntilIsTheLastAdmittingInstant)
{
    for (auto mode : {DeadlinePolicy::Overload::Shed,
                      DeadlinePolicy::Overload::Degrade}) {
        DeadlinePolicy policy(mode);
        auto r = request(ModelId::ViT, milliseconds(5), milliseconds(50));
        r.estimatedLatency = milliseconds(20);
        SimTime until = policy.admitUntil(r);
        EXPECT_EQ(until, milliseconds(35));
        EXPECT_EQ(policy.admit(until, r), Admission::Admit);
        EXPECT_NE(policy.admit(until + 1, r), Admission::Admit);

        // Unbounded requests are admitted forever.
        auto unbounded = request(ModelId::ViT, 0, 0);
        EXPECT_EQ(policy.admitUntil(unbounded), kTimeNever);

        // A degraded request stays as it is in Degrade mode.
        r.degraded = true;
        if (mode == DeadlinePolicy::Overload::Degrade) {
            EXPECT_EQ(policy.admitUntil(r), kTimeNever);
            EXPECT_EQ(policy.admit(until + 1, r), Admission::Admit);
        } else {
            EXPECT_EQ(policy.admitUntil(r), until);
        }
    }
}

// ------------------------------- the ready set in policy order

/** A policy's ranking key, compared before the FIFO tie-break. */
using RankKey = SimTime (*)(const ReadyRequest &);
SimTime fifoKey(const ReadyRequest &) { return 0; }
SimTime sjfKey(const ReadyRequest &r) { return r.estimatedLatency; }
SimTime edfKey(const ReadyRequest &r) { return r.deadline(); }

/**
 * Oracle twin of an ordered policy: before() is always false, so the
 * event loop keeps the ready set in entry order, and select() is the
 * linear (key, arrival, queueIndex) scan the policies ran before the
 * ready set was kept in their order.
 */
template <typename Base, RankKey Key>
class EntryOrderTwin : public Base
{
  public:
    using Base::Base;
    bool
    before(const ReadyRequest &, const ReadyRequest &) const override
    {
        return false;
    }
    std::size_t
    select(SimTime, std::span<const ReadyRequest> ready) const override
    {
        std::size_t best = 0;
        for (std::size_t i = 1; i < ready.size(); ++i) {
            const auto &a = ready[i];
            const auto &b = ready[best];
            bool less = Key(a) != Key(b) ? Key(a) < Key(b)
                        : a.arrival != b.arrival
                            ? a.arrival < b.arrival
                            : a.queueIndex < b.queueIndex;
            if (less)
                best = i;
        }
        return best;
    }
};

/** An ordered policy that counts the dispatches whose ready set was
 * not in entry order, i.e. where its order did real work. */
template <typename Base>
class ReorderProbe : public Base
{
  public:
    using Base::Base;
    std::size_t
    select(SimTime now, std::span<const ReadyRequest> ready) const override
    {
        reordered += !std::is_sorted(
            ready.begin(), ready.end(),
            [](const ReadyRequest &a, const ReadyRequest &b) {
                return a.readySeq < b.readySeq;
            });
        return Base::select(now, ready);
    }
    mutable std::size_t reordered = 0;
};

/** Run @p body(ordered, twin, mode, reorders) for FIFO, SJF and
 * Deadline in Shed and in Degrade mode; @p mode also sets the arrival
 * gate's, and @p reorders says the policy's order is not arrival
 * order. */
template <typename Body>
void
forEachOrderedPolicy(Body &&body)
{
    using Overload = DeadlinePolicy::Overload;
    {
        SCOPED_TRACE("fifo");
        ReorderProbe<multidnn::FifoPolicy> ordered;
        EntryOrderTwin<multidnn::FifoPolicy, fifoKey> twin;
        body(ordered, twin, Overload::Shed, false);
    }
    {
        SCOPED_TRACE("sjf");
        ReorderProbe<multidnn::SjfPolicy> ordered;
        EntryOrderTwin<multidnn::SjfPolicy, sjfKey> twin;
        body(ordered, twin, Overload::Shed, true);
    }
    for (auto mode : {Overload::Shed, Overload::Degrade}) {
        SCOPED_TRACE(mode == Overload::Shed ? "deadline"
                                            : "deadline-degrade");
        ReorderProbe<DeadlinePolicy> ordered(mode);
        EntryOrderTwin<DeadlinePolicy, edfKey> twin(mode);
        body(ordered, twin, mode, true);
    }
}

void
expectSameSchedule(const multidnn::ScheduleOutcome &a,
                   const multidnn::ScheduleOutcome &b)
{
    EXPECT_EQ(a.policy, b.policy);
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (std::size_t i = 0; i < a.runs.size(); ++i) {
        const auto &x = a.runs[i];
        const auto &y = b.runs[i];
        ASSERT_TRUE(x.model == y.model && x.device == y.device &&
                    x.arrival == y.arrival && x.start == y.start &&
                    x.initDone == y.initDone && x.end == y.end &&
                    x.degraded == y.degraded &&
                    x.peakMemory == y.peakMemory)
            << "run " << i;
    }
    ASSERT_EQ(a.shed.size(), b.shed.size());
    for (std::size_t i = 0; i < a.shed.size(); ++i) {
        const auto &x = a.shed[i];
        const auto &y = b.shed[i];
        ASSERT_TRUE(x.queueIndex == y.queueIndex && x.model == y.model &&
                    x.shedAt == y.shedAt && x.reason == y.reason)
            << "shed " << i;
    }
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.peakMemory, b.peakMemory);
    EXPECT_EQ(a.energyJoules, b.energyJoules);
    EXPECT_EQ(a.replans, b.replans);
    EXPECT_EQ(a.degradedRuns, b.degradedRuns);
    EXPECT_EQ(a.faults.retries, b.faults.retries);
    EXPECT_EQ(a.faults.failovers, b.faults.failovers);
    EXPECT_EQ(a.faults.faultSheds, b.faults.faultSheds);
    EXPECT_EQ(a.faults.starved, b.faults.starved);
    ASSERT_EQ(a.devices.size(), b.devices.size());
    for (std::size_t d = 0; d < a.devices.size(); ++d) {
        EXPECT_EQ(a.devices[d].dispatched, b.devices[d].dispatched);
        EXPECT_EQ(a.devices[d].planSwitches, b.devices[d].planSwitches);
        EXPECT_EQ(a.devices[d].computeBusyTime,
                  b.devices[d].computeBusyTime);
    }
}

/**
 * The ReadyOrder matrix: each ordered policy against its entry-order
 * twin, with the arrival gate on and off and faults on and off.
 * @p run(policy, gate, faulty, recorder) drains the trace through one
 * execution path (@p gate null when off); @p same compares the two
 * outcomes. Gate decisions and the full event stream, drop order
 * included, must match too.
 */
template <typename Run, typename Same>
void
expectTwinsAgree(const ServiceEstimator &est, Run &&run, Same &&same)
{
    forEachOrderedPolicy([&](auto &ordered, auto &twin,
                             DeadlinePolicy::Overload mode,
                             bool reorders) {
        for (bool gated : {false, true}) {
            for (bool faulty : {false, true}) {
                SCOPED_TRACE(::testing::Message() << "gated=" << gated
                                                  << " faults=" << faulty);
                AdmissionControllerParams cp;
                cp.mode = mode;
                AdmissionController ctrl(est, cp);
                const multidnn::ArrivalAdmission *gate =
                    gated ? &ctrl : nullptr;

                ordered.reordered = 0;
                obs::TraceRecorder rec;
                auto out = run(ordered, gate, faulty, rec);
                auto decisions = ctrl.decisions();
                ctrl.resetDecisions();
                obs::TraceRecorder twin_rec;
                auto want = run(twin, gate, faulty, twin_rec);

                same(out, want);
                expectSameEvents(rec, twin_rec);
                EXPECT_EQ(decisions.admitted, ctrl.decisions().admitted);
                EXPECT_EQ(decisions.degraded, ctrl.decisions().degraded);
                EXPECT_EQ(decisions.shed, ctrl.decisions().shed);

                // Each arm exercises the path it is named after, and
                // the policy order differs from entry order: always
                // for SJF and EDF, and for FIFO once fault retries
                // re-enter behind younger arrivals (ungated: the gate
                // can keep the FIFO set too short to hold one).
                if (reorders || (faulty && !gated)) {
                    EXPECT_GT(ordered.reordered, 0u);
                }
                if (mode == DeadlinePolicy::Overload::Shed && !gated &&
                    std::string(ordered.name()) == "deadline") {
                    EXPECT_GT(dispatchSheds(rec), 0u);
                }
                if (faulty) {
                    EXPECT_GT(out.faults.retries, 0);
                }
            }
        }
    });
}

TEST(ReadyOrder, FastSimMatchesAnEntryOrderScan)
{
    auto table = handTable();
    ServiceEstimator est(table);
    auto trace = floorTrace();
    auto plan = floorFaults();

    expectTwinsAgree(
        est,
        [&](const multidnn::SchedulingPolicy &policy,
            const multidnn::ArrivalAdmission *gate, bool faulty,
            obs::TraceRecorder &rec) {
            ServingSimParams params;
            params.readyLimit = 0;
            params.cluster.deviceCount = 2;
            params.cluster.overlapInitWithExec = true;
            params.arrival = gate;
            if (faulty)
                params.faults = plan;
            params.trace = &rec;
            return simulateServing(trace, policy, table, params);
        },
        expectSameOutcome);
}

TEST(ReadyOrder, EventSchedulerMatchesAnEntryOrderScan)
{
    // The same matrix through the real scheduler: compiled plans,
    // replayed runs and the scheduler's own trace events.
    core::FlashMem fm(gpusim::DeviceProfile::onePlus12());
    auto oracle = calibrateServices(fm, {ModelId::ResNet50, ModelId::ViT});
    ServiceEstimator est(oracle);
    SimTime resnet = oracle.at(ModelId::ResNet50).service;
    SimTime vit = oracle.at(ModelId::ViT).service;
    ModelMix mix;
    mix.entries = {{ModelId::ResNet50, 2.0, 3 * resnet, 0},
                   {ModelId::ViT, 1.0, 3 * vit, 0},
                   {ModelId::ResNet50, 0.5, 0, 0}};
    // About 2x what two devices serve.
    double mean_s = (2.5 * toSeconds(resnet) + toSeconds(vit)) / 3.5;
    auto trace = poissonTrace(mix, 4.0 / mean_s, 600, /*seed=*/31);
    SimTime horizon = trace.back().arrival;

    // About 8 stalls and 16 DMA errors over the trace, and a crash.
    multidnn::FaultPlanParams fp;
    fp.stallsPerSecond = 8.0 / toSeconds(horizon);
    fp.meanStall = 4 * resnet;
    fp.dmaErrorsPerSecond = 16.0 / toSeconds(horizon);
    auto plan = multidnn::mergeFaultPlans(
        multidnn::crashAndRejoin(0, horizon / 4, horizon / 10),
        multidnn::generateFaultPlan(fp, 2, horizon, 5));

    expectTwinsAgree(
        est,
        [&](const multidnn::SchedulingPolicy &policy,
            const multidnn::ArrivalAdmission *gate, bool faulty,
            obs::TraceRecorder &rec) {
            multidnn::SchedulerConfig cfg;
            cfg.cluster.deviceCount = 2;
            cfg.cluster.overlapInitWithExec = true;
            cfg.arrivalAdmission = gate;
            if (faulty)
                cfg.faults = plan;
            cfg.trace = &rec;
            return multidnn::EventScheduler(fm, cfg).run(trace, policy);
        },
        expectSameSchedule);
}

} // namespace
} // namespace flashmem::serving
