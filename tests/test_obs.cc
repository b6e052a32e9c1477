/**
 * @file
 * Tests for the observability layer (obs/trace.hh): the
 * trace-determinism property (byte-identical text export across
 * planner thread counts; fast-sim vs EventScheduler Stream::Serving
 * equality under a mixed fault + admission schedule), Chrome JSON
 * structural sanity, CounterRegistry semantics, and the
 * severity-leveled logging helpers (common/logging.hh).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/logging.hh"
#include "core/flashmem.hh"
#include "multidnn/scheduler.hh"
#include "obs/trace.hh"
#include "serving/admission.hh"
#include "serving/sweep.hh"

namespace flashmem::obs {
namespace {

using models::ModelId;
using multidnn::DeadlinePolicy;
using serving::AdmissionController;
using serving::ModelMix;
using serving::ServiceEstimator;
using serving::calibrateServices;
using serving::poissonTrace;
using serving::ServingSimParams;
using serving::simulateServing;

// ------------------------------------------------ recorder basics

TEST(TraceRecorder, TextExportIsSortedAndTagged)
{
    TraceRecorder rec;
    // Emit out of time order: the export must sort (stably) by time.
    rec.requestComplete(milliseconds(2), 0, 0, 0,
                        static_cast<std::int32_t>(ModelId::ResNet50),
                        0, milliseconds(1));
    rec.requestArrival(0, 0,
                       static_cast<std::int32_t>(ModelId::ResNet50),
                       milliseconds(150));

    auto text = rec.text();
    auto arrival = text.find("request_arrival");
    auto complete = text.find("request_complete");
    ASSERT_NE(arrival, std::string::npos);
    ASSERT_NE(complete, std::string::npos);
    EXPECT_LT(arrival, complete);
    EXPECT_NE(text.find("model=ResNet50"), std::string::npos) << text;
    EXPECT_NE(text.find("bound=150000000"), std::string::npos);
}

TEST(TraceRecorder, ServingStreamExcludesPlannerEvents)
{
    TraceRecorder rec;
    rec.replan(0, static_cast<std::int32_t>(ModelId::ViT), mib(256),
               /*reused_rounds=*/4, 3);
    rec.solverWindow(0, 0, static_cast<std::int32_t>(ModelId::ViT),
                     1, 2, 3, 1, /*stop_reason=*/1, /*reused_rounds=*/2);
    rec.requestShed(0, 7, static_cast<std::int32_t>(ModelId::ViT),
                    /*reason=*/0, /*attempts=*/0);

    auto full = rec.text(Stream::Full);
    EXPECT_NE(full.find("replan model=ViT budget=268435456 reused=4 "
                        "windows=3\n"),
              std::string::npos)
        << full;
    EXPECT_NE(full.find("solver_window"), std::string::npos);
    EXPECT_NE(full.find("proven_optimal=1 stop=decision_limit "
                        "reused=2\n"),
              std::string::npos)
        << full;

    auto serving = rec.text(Stream::Serving);
    EXPECT_EQ(serving.find("replan"), std::string::npos) << serving;
    EXPECT_EQ(serving.find("solver_window"), std::string::npos);
    EXPECT_NE(serving.find("request_shed"), std::string::npos);
    EXPECT_NE(serving.find("reason=admission"), std::string::npos);
}

TEST(TraceRecorder, ChromeJsonHasTracksAndBalancedBraces)
{
    TraceRecorder rec;
    rec.requestArrival(0, 0,
                       static_cast<std::int32_t>(ModelId::ResNet50),
                       0);
    rec.requestDispatch(0, 0, 0, /*device=*/0,
                        static_cast<std::int32_t>(ModelId::ResNet50),
                        0, milliseconds(1), milliseconds(2));
    rec.requestComplete(milliseconds(2), 0, 0, 0,
                        static_cast<std::int32_t>(ModelId::ResNet50),
                        0, milliseconds(1));
    rec.faultInjected(milliseconds(1), 0, 0, /*kind=*/0,
                      milliseconds(5), 0);
    rec.replan(0, static_cast<std::int32_t>(ModelId::ResNet50),
               mib(256), 0, 2);
    rec.solverWindow(0, 3, static_cast<std::int32_t>(ModelId::ResNet50),
                     4, 0, 9, 0, /*stop_reason=*/2, /*reused_rounds=*/5);

    std::ostringstream os;
    rec.writeChromeJson(os);
    auto json = os.str();

    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""),
              std::string::npos);
    // The track metadata Perfetto keys lanes off.
    EXPECT_NE(json.find("dev 0 compute"), std::string::npos);
    EXPECT_NE(json.find("dev 0 dma"), std::string::npos);
    EXPECT_NE(json.find("\"planner\""), std::string::npos);
    EXPECT_NE(json.find("\"requests\""), std::string::npos);
    // The window's stop reason and reused-round count ride as
    // Perfetto args.
    EXPECT_NE(json.find("\"name\":\"window 3 (conflicts=4)\","
                        "\"args\":{\"stop\":\"time_limit\","
                        "\"reused\":5}"),
              std::string::npos)
        << json;
    // The reused count shares the device slot but opens no track:
    // only device 0 is laid out.
    EXPECT_EQ(json.find("dev 5"), std::string::npos) << json;
    // Async request lane: begin and end with a shared id.
    EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);

    std::int64_t braces = 0, brackets = 0;
    for (char ch : json) {
        braces += ch == '{';
        braces -= ch == '}';
        brackets += ch == '[';
        brackets -= ch == ']';
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

// -------------------------------------------------- counter registry

TEST(CounterRegistry, SnapshotIsSortedCountersThenGauges)
{
    CounterRegistry reg;
    EXPECT_TRUE(reg.empty());
    reg.add("zeta");
    reg.add("alpha", 2);
    reg.add("alpha", 3);
    reg.setGauge("beta", 9);
    reg.setGauge("beta", 4); // last write wins

    EXPECT_EQ(reg.value("alpha"), 5);
    EXPECT_EQ(reg.value("zeta"), 1);
    EXPECT_EQ(reg.value("beta"), 4);
    EXPECT_EQ(reg.value("missing"), 0);
    EXPECT_FALSE(reg.empty());

    auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].first, "alpha"); // counters sorted first
    EXPECT_EQ(snap[1].first, "zeta");
    EXPECT_EQ(snap[2].first, "beta"); // then gauges

    std::ostringstream os;
    reg.writeText(os);
    EXPECT_EQ(os.str(), "counter alpha = 5\n"
                        "counter zeta = 1\n"
                        "gauge beta = 4\n");
}

// ------------------------------------------------------- logging

TEST(Logging, LevelRoundTripsAndRestores)
{
    auto before = logLevel();
    setLogLevel(LogLevel::Debug);
    EXPECT_EQ(logLevel(), LogLevel::Debug);
    setLogLevel(LogLevel::Silent);
    EXPECT_EQ(logLevel(), LogLevel::Silent);
    setLogLevel(before);
}

TEST(Logging, RateLimitedWarnCountsAndSuppresses)
{
    auto before = logLevel();
    setLogLevel(LogLevel::Silent); // counters only, no stderr noise
    RateLimitedWarn limited(/*limit=*/3);
    for (int i = 0; i < 10; ++i)
        limited("recurring condition ", i);
    EXPECT_EQ(limited.seen(), 10u);
    EXPECT_EQ(limited.suppressed(), 7u);

    RateLimitedWarn quiet;
    EXPECT_EQ(quiet.seen(), 0u);
    EXPECT_EQ(quiet.suppressed(), 0u);
    setLogLevel(before);
}

// ------------------------------------- the determinism property

/** The fig6 determinism workload: memory-aware re-planning under a
 * tight shared budget, so the planner-side events (replan,
 * solver_window) are exercised. */
multidnn::ScheduleOutcome
runTracedSchedulerArm(int planner_threads, TraceRecorder &rec)
{
    core::PlanMemo memo;
    core::FlashMemOptions opt;
    opt.opg.parallel.threads = planner_threads;
    opt.opg.memo = &memo;
    core::FlashMem fm(gpusim::DeviceProfile::onePlus12(), opt);
    multidnn::SchedulerConfig cfg;
    cfg.capacityBudget = mib(768);
    cfg.trace = &rec;
    multidnn::EventScheduler sched(fm, cfg);
    auto queue = multidnn::interleavedWorkload(
        {ModelId::ResNet50, ModelId::GPTNeoS, ModelId::DepthAnythingS},
        /*iterations=*/2, /*gap=*/milliseconds(10), /*seed=*/17);
    return sched.run(queue, multidnn::MemoryAwarePolicy{});
}

TEST(TraceDeterminism, SchedulerTraceIdenticalAcrossPlannerThreads)
{
    TraceRecorder rec1, rec4;
    auto out1 = runTracedSchedulerArm(1, rec1);
    auto out4 = runTracedSchedulerArm(4, rec4);

    // The workload actually re-planned, so the trace carries
    // planner-side events whose payloads come from the parallel
    // window solves — the part thread count could plausibly perturb.
    ASSERT_GT(out1.replans, 0);
    ASSERT_EQ(out1.replans, out4.replans);
    auto text1 = rec1.text();
    ASSERT_NE(text1.find("replan "), std::string::npos);
    ASSERT_NE(text1.find("solver_window"), std::string::npos);
    ASSERT_NE(text1.find(" stop="), std::string::npos);
    ASSERT_NE(text1.find("request_dispatch"), std::string::npos);
    // Some re-plan rounds replay a kept solve record, and say so.
    EXPECT_NE(text1.find(" reused=1\n"), std::string::npos) << text1;

    // Byte-identical export for any planner thread count.
    EXPECT_EQ(text1, rec4.text());
}

TEST(TraceDeterminism, FastSimMatchesEventSchedulerServingStream)
{
    // The mixed schedule of the fault cross-validation test PLUS the
    // arrival-admission gate: both execution paths drain the same
    // shared event loop, so their Stream::Serving exports must be
    // byte-identical — arrival order, verdicts, dispatch timelines,
    // retries, fault deliveries, health transitions, all of it.
    core::FlashMem fm(gpusim::DeviceProfile::onePlus12());
    ModelMix mix;
    mix.entries = {{ModelId::ResNet50, 2.0, milliseconds(150), 0},
                   {ModelId::DepthAnythingS, 1.0, milliseconds(400),
                    0},
                   {ModelId::ResNet50, 1.0, 0, 0}};
    auto services = calibrateServices(fm, mix.distinctModels());
    auto trace = poissonTrace(mix, 60.0, 2500, /*seed=*/61);

    multidnn::FaultPlanParams fp;
    fp.stallsPerSecond = 0.5;
    fp.meanStall = milliseconds(40);
    fp.dmaErrorsPerSecond = 1.0;
    auto plan = multidnn::crashAndRejoin(0, milliseconds(500),
                                         milliseconds(400));
    plan = multidnn::mergeFaultPlans(
        plan, multidnn::singleSlowdown(1, milliseconds(200),
                                       milliseconds(600), 3.0));
    plan = multidnn::mergeFaultPlans(
        plan, multidnn::generateFaultPlan(fp, 2, seconds(30), 7));

    // One shared gate, per-path recorders (the ArrivalAdmission
    // contract: hand the SAME gate object to both paths).
    ServiceEstimator estimator(services);
    AdmissionController gate(estimator);
    DeadlinePolicy policy;

    TraceRecorder fast_rec;
    ServingSimParams params;
    params.readyLimit = 0;
    params.cluster.deviceCount = 2;
    params.cluster.overlapInitWithExec = true;
    params.faults = plan;
    params.arrival = &gate;
    params.trace = &fast_rec;
    auto fast = simulateServing(trace, policy, services, params);
    gate.resetDecisions();

    TraceRecorder real_rec;
    multidnn::SchedulerConfig cfg;
    cfg.cluster.deviceCount = 2;
    cfg.cluster.overlapInitWithExec = true;
    cfg.faults = plan;
    cfg.arrivalAdmission = &gate;
    cfg.trace = &real_rec;
    multidnn::EventScheduler sched(fm, cfg);
    auto real = sched.run(trace, policy);

    // The schedule actually bit: faults, retries, and verdicts all
    // appear in the stream being compared.
    ASSERT_GT(real.faults.retries, 0);
    auto fast_text = fast_rec.text(Stream::Serving);
    ASSERT_NE(fast_text.find("fault_injected"), std::string::npos);
    ASSERT_NE(fast_text.find("retry_scheduled"), std::string::npos);
    ASSERT_NE(fast_text.find("admission_verdict"), std::string::npos);
    ASSERT_NE(fast_text.find("device_health"), std::string::npos);

    EXPECT_EQ(fast_text, real_rec.text(Stream::Serving));
    EXPECT_EQ(real.runs.size(), fast.stats.completed());

    // The admission counters export deterministically.
    CounterRegistry reg;
    gate.exportCounters(reg);
    EXPECT_EQ(reg.value("admission.admitted") +
                  reg.value("admission.degraded") +
                  reg.value("admission.shed"),
              static_cast<std::int64_t>(gate.decisions().total()));
}

} // namespace
} // namespace flashmem::obs
