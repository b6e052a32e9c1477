/**
 * @file
 * Tests for the event-driven multi-DNN scheduler: the event loop and
 * its arrival cursor, queueing-delay latency accounting, policy
 * ordering (FIFO / SJF / priority-with-aging / memory-aware
 * admission), and on-device re-planning — including its
 * bit-determinism across planner thread counts and repeated calls.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>

#include "core/flashmem.hh"
#include "graph/builder.hh"
#include "multidnn/event_loop.hh"
#include "multidnn/fifo_scheduler.hh"
#include "multidnn/ready_set.hh"
#include "multidnn/scheduler.hh"
#include "obs/trace.hh"

namespace flashmem::multidnn {
namespace {

using core::FlashMem;
using core::FlashMemOptions;
using gpusim::DeviceProfile;
using gpusim::GpuSimulator;
using models::ModelId;

// ------------------------------------------------------------ event loop

TEST(EventScheduler, EmptyQueueIsANoOp)
{
    FlashMem fm(DeviceProfile::onePlus12());
    EventScheduler sched(fm);
    auto out = sched.run({}, FifoPolicy{});
    EXPECT_TRUE(out.runs.empty());
    EXPECT_EQ(out.makespan, 0);
    EXPECT_EQ(out.peakMemory, 0u);
    EXPECT_EQ(out.energyJoules, 0.0);
    EXPECT_EQ(out.meanLatency(), 0);
    EXPECT_EQ(out.meanQueueDelay(), 0);
    EXPECT_TRUE(out.trace.empty());
}

TEST(EventScheduler, FifoPolicyMatchesSeedFifoDrain)
{
    // The event-driven drain under the FIFO policy must reproduce the
    // seed scheduler (compile once, run in order, start at
    // max(arrival, device free)) exactly.
    FlashMem fm(DeviceProfile::onePlus12());
    auto queue = interleavedWorkload(
        {ModelId::ResNet50, ModelId::DepthAnythingS}, 2,
        milliseconds(20), 11);

    EventScheduler sched(fm);
    auto out = sched.run(queue, FifoPolicy{});
    ASSERT_EQ(out.runs.size(), queue.size());

    // Reference drain, replicating the seed FIFO scheduler inline.
    std::map<ModelId, core::CompiledModel> compiled;
    for (const auto &req : queue) {
        if (!compiled.count(req.model))
            compiled.emplace(req.model,
                             fm.compile(models::buildModel(req.model)));
    }
    GpuSimulator sim(fm.device());
    SimTime free_at = 0;
    for (std::size_t i = 0; i < queue.size(); ++i) {
        SimTime start = std::max(queue[i].arrival, free_at);
        auto r = fm.execute(sim, compiled.at(queue[i].model), start);
        EXPECT_EQ(out.runs[i].model, r.model);
        EXPECT_EQ(out.runs[i].start, r.start);
        EXPECT_EQ(out.runs[i].end, r.end);
        EXPECT_EQ(out.runs[i].arrival, queue[i].arrival);
        free_at = r.end;
    }
    EXPECT_EQ(out.makespan, free_at);
}

TEST(EventScheduler, TraceLivesInTheOutcome)
{
    // No mutable global state: each outcome owns its memory trace, and
    // a later run does not disturb an earlier outcome.
    FlashMem fm(DeviceProfile::onePlus12());
    EventScheduler sched(fm);
    auto queue = chainWorkload({ModelId::ResNet50});
    auto first = sched.run(queue, FifoPolicy{});
    ASSERT_FALSE(first.trace.empty());
    EXPECT_EQ(static_cast<Bytes>(
                  first.trace.maxOver(0, first.makespan)),
              first.peakMemory);
    auto first_points = first.trace.points().size();
    auto second = sched.run(queue, FifoPolicy{});
    EXPECT_EQ(first.trace.points().size(), first_points);
    EXPECT_EQ(static_cast<Bytes>(
                  second.trace.maxOver(0, second.makespan)),
              second.peakMemory);
}

TEST(EventScheduler, ReplayedDrainMatchesReExecutingEveryRun)
{
    // Idle devices replay a cached solo run instead of executing. The
    // oracle re-executes every completed run of a memory-aware Fig-6
    // drain with FlashMem::execute at its recorded start, on one fresh
    // simulator, and must reproduce the outcome bit for bit.
    FlashMem fm(DeviceProfile::onePlus12());
    SchedulerConfig cfg;
    cfg.capacityBudget = mib(768);
    EventScheduler sched(fm, cfg);
    const std::vector<ModelId> mix = {
        ModelId::DepthAnythingS, ModelId::ViT, ModelId::SDUNet,
        ModelId::WhisperMedium, ModelId::GPTNeo1_3B};
    // A burst that queues runs back to back, then arrivals sparse
    // enough that each run starts on a device that sat idle.
    auto queue = interleavedWorkload(mix, 2, 0, 5);
    for (auto req : interleavedWorkload(mix, 2, seconds(30), 6)) {
        req.arrival += seconds(100);
        queue.push_back(req);
    }
    auto out = sched.run(queue, MemoryAwarePolicy{});
    ASSERT_EQ(out.runs.size(), queue.size());
    ASSERT_GT(out.replans, 0);

    // Every plan admission can hand out: each model at each share of
    // the capacity budget, with its solo run to match runs against.
    // Shares whose plans run identically are interchangeable here.
    struct Candidate
    {
        core::CompiledModel compiled;
        core::RunResult solo;
    };
    std::vector<Candidate> candidates;
    const Bytes mPeak = fm.options().opg.mPeak;
    for (auto id : mix) {
        auto base = fm.compile(models::buildModel(id));
        std::vector<Bytes> budgets;
        for (Bytes k = 1; k <= mix.size(); ++k) {
            Bytes b = quantizeBudgetShare(cfg.capacityBudget / k, cfg,
                                          fm.options().opg.chunkBytes,
                                          mPeak);
            if (std::find(budgets.begin(), budgets.end(), b) ==
                budgets.end())
                budgets.push_back(b);
        }
        for (Bytes b : budgets) {
            auto cm = b == mPeak ? base : fm.replan(base, b);
            GpuSimulator scratch(fm.device());
            auto solo = fm.execute(scratch, cm, 0);
            candidates.push_back({std::move(cm), solo});
        }
    }

    GpuSimulator sim(fm.device());
    SimTime compute_busy = 0, dma_busy = 0;
    int back_to_back = 0, after_idle = 0;
    for (std::size_t i = 0; i < out.runs.size(); ++i) {
        const auto &r = out.runs[i];
        if (i > 0) {
            back_to_back += r.start == out.runs[i - 1].end;
            after_idle += r.start > out.runs[i - 1].end;
        }
        SCOPED_TRACE(testing::Message() << "run " << i << " " << r.model);
        const Candidate *c = nullptr;
        for (const auto &cand : candidates) {
            if (cand.compiled.fusedGraph.name() == r.model &&
                cand.solo.integratedLatency() == r.integratedLatency() &&
                cand.solo.initLatency() == r.initLatency() &&
                cand.solo.peakMemory == r.peakMemory &&
                cand.solo.avgMemoryBytes == r.avgMemoryBytes &&
                cand.solo.stallTime == r.stallTime) {
                c = &cand;
                break;
            }
        }
        ASSERT_NE(c, nullptr) << "no plan admission hands out ran this";
        auto want = fm.execute(sim, c->compiled, r.start);
        EXPECT_EQ(want.start, r.start);
        EXPECT_EQ(want.initDone, r.initDone);
        EXPECT_EQ(want.end, r.end);
        EXPECT_EQ(want.peakMemory, r.peakMemory);
        EXPECT_EQ(want.avgMemoryBytes, r.avgMemoryBytes);
        EXPECT_EQ(want.oom, r.oom);
        EXPECT_EQ(want.kernels, r.kernels);
        EXPECT_EQ(want.stallTime, r.stallTime);
        compute_busy += r.end - r.initDone;
        dma_busy += r.initDone - r.start;
    }

    EXPECT_GT(back_to_back, 0);
    EXPECT_GT(after_idle, 0);
    EXPECT_EQ(out.makespan, out.runs.back().end);
    const auto &want_pts = sim.memory().totalTrace().points();
    const auto &got_pts = out.trace.points();
    ASSERT_EQ(want_pts.size(), got_pts.size());
    for (std::size_t i = 0; i < want_pts.size(); ++i) {
        EXPECT_EQ(want_pts[i].time, got_pts[i].time) << "point " << i;
        EXPECT_EQ(want_pts[i].value, got_pts[i].value) << "point " << i;
    }
    EXPECT_EQ(out.peakMemory, sim.memory().peakOver(0, out.makespan));
    EXPECT_EQ(out.avgMemoryBytes,
              sim.memory().averageBytes(0, out.makespan));
    EXPECT_EQ(out.energyJoules, sim.energyJoules(out.makespan));
    ASSERT_EQ(out.devices.size(), 1u);
    const auto &dev = out.devices[0];
    EXPECT_EQ(dev.dispatched, out.runs.size());
    EXPECT_EQ(dev.computeBusyTime, compute_busy);
    EXPECT_EQ(dev.dmaBusyTime, dma_busy);
    EXPECT_EQ(dev.peakMemory, out.peakMemory);
    EXPECT_EQ(dev.energyJoules, out.energyJoules);
}

// ------------------------------------------------------------ ready set

/** FIFO order that counts its comparisons. */
struct CountingFifo : FifoPolicy
{
    bool
    before(const ReadyRequest &a, const ReadyRequest &b) const override
    {
        ++calls;
        return FifoPolicy::before(a, b);
    }
    mutable int calls = 0;
};

ReadyRequest
entryAt(SimTime arrival)
{
    ReadyRequest r;
    r.arrival = arrival;
    r.queueIndex = static_cast<std::size_t>(arrival);
    return r;
}

std::vector<SimTime>
arrivalsOf(const ReadySet &set)
{
    std::vector<SimTime> out;
    for (const auto &r : set.entries())
        out.push_back(r.arrival);
    return out;
}

TEST(ReadySet, InsertsAtFrontMiddleAndBackAndStampsEntryOrder)
{
    FifoPolicy fifo;
    ReadySet set(fifo);
    for (SimTime t : {20, 40, 10, 30, 50})
        set.insert(entryAt(t));
    EXPECT_EQ(arrivalsOf(set), (std::vector<SimTime>{10, 20, 30, 40, 50}));
    std::vector<std::uint64_t> stamps;
    for (const auto &r : set.entries())
        stamps.push_back(r.readySeq);
    EXPECT_EQ(stamps, (std::vector<std::uint64_t>{2, 0, 3, 1, 4}));
}

TEST(ReadySet, InOrderInsertsAppendAfterOneComparison)
{
    CountingFifo fifo;
    ReadySet set(fifo);
    set.insert(entryAt(1));
    EXPECT_EQ(fifo.calls, 0); // empty: nothing to compare
    for (SimTime t = 2; t <= 6; ++t) {
        fifo.calls = 0;
        set.insert(entryAt(t));
        EXPECT_EQ(fifo.calls, 1) << "arrival " << t;
    }
    // Out of order: compared against the tail, then searched.
    fifo.calls = 0;
    set.insert(entryAt(0));
    EXPECT_GT(fifo.calls, 1);
    EXPECT_EQ(arrivalsOf(set),
              (std::vector<SimTime>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(ReadySet, TakesFromTheFrontAndTheMiddle)
{
    FifoPolicy fifo;
    ReadySet set(fifo);
    for (SimTime t = 1; t <= 8; ++t)
        set.insert(entryAt(t));
    const ReadyRequest *base = set.entries().data();

    EXPECT_EQ(set.take(0).arrival, 1);
    EXPECT_EQ(set.entries().data(), base + 1); // the head advanced
    // Elsewhere the entry is erased in place; the head stays.
    EXPECT_EQ(set.take(1).arrival, 3);
    EXPECT_EQ(set.take(4).arrival, 7);
    EXPECT_EQ(set.entries().data(), base + 1);
    EXPECT_EQ(arrivalsOf(set), (std::vector<SimTime>{2, 4, 5, 6, 8}));
}

TEST(ReadySet, InsertAfterAPopKeepsOrder)
{
    FifoPolicy fifo;
    ReadySet set(fifo);
    for (SimTime t : {10, 20, 30, 40})
        set.insert(entryAt(t));
    set.take(0);
    set.insert(entryAt(25)); // below the tail, past a dead prefix
    set.insert(entryAt(15)); // goes in front of every live entry
    EXPECT_EQ(arrivalsOf(set), (std::vector<SimTime>{15, 20, 25, 30, 40}));
}

TEST(ReadySet, DeadPrefixCompactsOnceItMatchesTheLiveEntries)
{
    FifoPolicy fifo;
    ReadySet set(fifo);
    for (SimTime t = 1; t <= 8; ++t)
        set.insert(entryAt(t));
    const ReadyRequest *base = set.entries().data();
    for (int i = 0; i < 3; ++i)
        set.take(0);
    EXPECT_EQ(set.entries().data(), base + 3); // 3 dead, 5 live
    set.take(0); // 4 dead, 4 live: compacted
    EXPECT_EQ(set.entries().data(), base);
    EXPECT_EQ(arrivalsOf(set), (std::vector<SimTime>{5, 6, 7, 8}));
}

TEST(ReadySet, ResetsWhenItEmpties)
{
    FifoPolicy fifo;
    ReadySet set(fifo);
    for (SimTime t = 1; t <= 3; ++t)
        set.insert(entryAt(t));
    const ReadyRequest *base = set.entries().data();
    set.take(0);
    set.take(1);
    set.take(0);
    EXPECT_TRUE(set.empty());
    EXPECT_EQ(set.size(), 0u);
    set.insert(entryAt(9));
    EXPECT_EQ(set.entries().data(), base);
    EXPECT_EQ(arrivalsOf(set), (std::vector<SimTime>{9}));
}

TEST(ReadySet, ExtractIfRemovesInOrderAndKeepsMarks)
{
    FifoPolicy fifo;
    ReadySet set(fifo);
    for (SimTime t : {6, 2, 5, 1, 4, 3})
        set.insert(entryAt(t));
    set.take(0);
    std::vector<ReadyRequest> removed;
    set.extractIf(
        [](ReadyRequest &r) {
            if (r.arrival % 2 == 0)
                return true;
            r.degraded = true;
            return false;
        },
        removed);
    std::vector<SimTime> gone;
    for (const auto &r : removed)
        gone.push_back(r.arrival);
    EXPECT_EQ(gone, (std::vector<SimTime>{2, 4, 6}));
    EXPECT_EQ(arrivalsOf(set), (std::vector<SimTime>{3, 5}));
    for (const auto &r : set.entries())
        EXPECT_TRUE(r.degraded);
}

// ------------------------------------------------- arrival cursor

/** One request's fate in a drainClusterQueue run. */
struct DrainRecord
{
    bool completed = false;
    int device = -1;
    SimTime start = 0, initDone = 0, end = 0;
    DropReason reason = DropReason::Admission;
    SimTime dropAt = 0;

    bool
    operator==(const DrainRecord &o) const
    {
        return completed == o.completed && device == o.device &&
               start == o.start && initDone == o.initDone &&
               end == o.end && reason == o.reason && dropAt == o.dropAt;
    }
};

/** Drain @p queue through the shared loop with fixed per-model
 * service times; the result is indexed by queue position. */
std::vector<DrainRecord>
drainWithFixedServices(const std::vector<ModelRequest> &queue,
                       const SchedulingPolicy &policy, int devices,
                       obs::TraceRecorder *trace = nullptr)
{
    auto init = [](ModelId m) {
        return m == ModelId::ViT ? milliseconds(6) : milliseconds(2);
    };
    auto exec = [](ModelId m) {
        return m == ModelId::ViT ? milliseconds(24) : milliseconds(7);
    };
    ClusterConfig cc;
    cc.deviceCount = devices;
    cc.overlapInitWithExec = true;
    DeviceCluster cluster(cc);
    std::vector<DrainRecord> out(queue.size());
    bool stable = drainClusterQueue(
        queue, policy, cluster,
        [&](std::size_t seq) {
            const auto &q = queue[seq];
            ReadyRequest r;
            r.queueIndex = seq;
            r.model = q.model;
            r.arrival = q.arrival;
            r.priority = q.priority;
            r.estimatedLatency = init(q.model) + exec(q.model);
            r.latencyBound = q.latencyBound;
            return r;
        },
        [&](const ReadyRequest &picked, std::span<const ReadyRequest>,
            SimTime now, std::uint64_t) {
            int dev = cluster.pickDevice(now, picked.model, mib(100));
            auto t = cluster.planTimes(dev, now, init(picked.model),
                                       exec(picked.model));
            cluster.commit(dev, picked.model, mib(100), t);
            return DispatchedRun{dev, t};
        },
        [&](const ReadyRequest &r, const DispatchedRun &run,
            std::uint64_t) {
            auto &rec = out[r.queueIndex];
            rec.completed = true;
            rec.device = run.device;
            rec.start = run.times.start;
            rec.initDone = run.times.initDone;
            rec.end = run.times.end;
        },
        [&](const ReadyRequest &r, SimTime now, DropReason reason) {
            out[r.queueIndex].reason = reason;
            out[r.queueIndex].dropAt = now;
        },
        0, nullptr, {}, nullptr, nullptr, trace);
    EXPECT_TRUE(stable);
    return out;
}

TEST(ArrivalCursor, UnsortedQueueRunsLikeThePresortedQueue)
{
    // Distinct, strictly increasing arrivals at about 1.4x the two
    // devices' capacity, with deadlines tight enough to shed some.
    constexpr std::size_t kRequests = 301;
    std::vector<ModelRequest> sorted;
    std::uint64_t x = 88172645463325252ull; // xorshift64 state
    SimTime t = 0;
    for (std::size_t i = 0; i < kRequests; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        t += 1 + static_cast<SimTime>(x % milliseconds(8));
        ModelId m = x % 4 == 0 ? ModelId::ViT : ModelId::ResNet50;
        sorted.push_back({m, t, 0, milliseconds(x % 3 == 0 ? 40 : 120)});
    }
    // A fixed permutation (10 is coprime to 301): position j holds
    // sorted request perm(j).
    auto perm = [](std::size_t j) { return j * 10 % kRequests; };
    std::vector<ModelRequest> shuffled(kRequests);
    for (std::size_t j = 0; j < kRequests; ++j)
        shuffled[j] = sorted[perm(j)];
    ASSERT_FALSE(std::is_sorted(
        shuffled.begin(), shuffled.end(),
        [](const ModelRequest &a, const ModelRequest &b) {
            return a.arrival < b.arrival;
        }));

    DeadlinePolicy policy;
    auto want = drainWithFixedServices(sorted, policy, 2);
    auto got = drainWithFixedServices(shuffled, policy, 2);
    std::size_t completed = 0;
    for (std::size_t j = 0; j < kRequests; ++j) {
        EXPECT_TRUE(got[j] == want[perm(j)]) << "request " << perm(j);
        completed += want[perm(j)].completed;
    }
    // Both fates are exercised.
    EXPECT_GT(completed, kRequests / 2);
    EXPECT_LT(completed, kRequests);
}

TEST(ArrivalCursor, EqualArrivalsEnterAndDispatchInQueueOrder)
{
    // The queue is out of order, so arrivals stream through the stable
    // index sort; requests sharing an arrival keep their queue order.
    // FIFO takes the oldest ready entry, index 0 in policy (FIFO)
    // order, so dispatch order is arrival order.
    FifoPolicy policy;
    std::vector<ModelRequest> queue{
        {ModelId::ResNet50, milliseconds(4), 0, 0}, // 0
        {ModelId::ResNet50, 0, 0, 0},               // 1
        {ModelId::ViT, 0, 0, 0},                    // 2
        {ModelId::ResNet50, milliseconds(4), 0, 0}, // 3
        {ModelId::ResNet50, 0, 0, 0},               // 4
        {ModelId::ViT, milliseconds(2), 0, 0},      // 5
    };
    obs::TraceRecorder rec;
    drainWithFixedServices(queue, policy, 1, &rec);
    std::vector<std::uint32_t> arrivals, dispatches;
    for (const auto &e : rec.events()) {
        if (e.kind == obs::EventKind::RequestArrival)
            arrivals.push_back(e.id);
        if (e.kind == obs::EventKind::RequestDispatch)
            dispatches.push_back(e.id);
    }
    std::vector<std::uint32_t> want{1, 2, 4, 5, 0, 3};
    EXPECT_EQ(arrivals, want);
    EXPECT_EQ(dispatches, want);
}

// ------------------------------------------- queueing-delay accounting

TEST(EventScheduler, MeanLatencyIncludesQueueingDelay)
{
    // Two same-time arrivals: the second request waits for the whole
    // first run, and that wait is part of its latency.
    FlashMem fm(DeviceProfile::onePlus12());
    EventScheduler sched(fm);
    auto queue = chainWorkload({ModelId::ResNet50, ModelId::ResNet50},
                               /*gap=*/0);
    auto out = sched.run(queue, FifoPolicy{});
    ASSERT_EQ(out.runs.size(), 2u);

    const auto &r0 = out.runs[0];
    const auto &r1 = out.runs[1];
    EXPECT_EQ(r0.arrival, 0);
    EXPECT_EQ(r1.arrival, 0);
    EXPECT_EQ(r0.queueDelay(), 0);
    // The second request queued behind the first for its full run.
    EXPECT_EQ(r1.start, r0.end);
    EXPECT_EQ(r1.queueDelay(), r0.end);
    EXPECT_EQ(r1.requestLatency(),
              r1.integratedLatency() + r1.queueDelay());
    EXPECT_GT(r1.requestLatency(), r1.integratedLatency());
    // Mean latency is the mean of end - arrival, not end - start.
    EXPECT_EQ(out.meanLatency(),
              (r0.requestLatency() + r1.requestLatency()) / 2);
    EXPECT_GT(out.meanLatency(),
              (r0.integratedLatency() + r1.integratedLatency()) / 2);
}

TEST(EventScheduler, StandaloneRunsHaveZeroQueueDelay)
{
    FlashMem fm(DeviceProfile::onePlus12());
    auto r = fm.runOnce(models::buildModel(ModelId::ResNet50));
    EXPECT_EQ(r.queueDelay(), 0);
    EXPECT_EQ(r.requestLatency(), r.integratedLatency());
}

// --------------------------------------------------------------- policies

TEST(Policies, SjfRunsShortJobsFirst)
{
    // GPT-Neo S is far slower than ResNet50; with both ready at t=0
    // and the slow one first in the queue, SJF must flip the order.
    FlashMem fm(DeviceProfile::onePlus12());
    EventScheduler sched(fm);
    auto queue = chainWorkload({ModelId::GPTNeoS, ModelId::ResNet50},
                               /*gap=*/0);

    auto fifo = sched.run(queue, FifoPolicy{});
    ASSERT_EQ(fifo.runs.size(), 2u);
    EXPECT_EQ(fifo.runs[0].model, "gptneo_s");

    auto sjf = sched.run(queue, SjfPolicy{});
    ASSERT_EQ(sjf.runs.size(), 2u);
    EXPECT_EQ(sjf.runs[0].model, "resnet50");
    // Same total work — but the short job no longer queues behind the
    // long one, so mean latency improves while makespan stays put.
    EXPECT_EQ(sjf.makespan, fifo.makespan);
    EXPECT_LT(sjf.meanLatency(), fifo.meanLatency());
}

TEST(Policies, PriorityOrdersAndAgingPreventsStarvation)
{
    FlashMem fm(DeviceProfile::onePlus12());
    EventScheduler sched(fm);

    // One low-priority request at t=0 and a staggered stream of
    // high-priority ones (a ResNet50 run is ~50 ms, so the backlog
    // never drains): without aging the low-priority request starves
    // to the back of the queue.
    std::vector<ModelRequest> queue;
    queue.push_back({ModelId::DepthAnythingS, 0, /*priority=*/0});
    for (int i = 0; i < 4; ++i)
        queue.push_back({ModelId::ResNet50, milliseconds(30 * i),
                         /*priority=*/5});

    PriorityAgingPolicy no_aging(/*aging_quantum=*/seconds(1e6));
    auto strict = sched.run(queue, no_aging);
    ASSERT_EQ(strict.runs.size(), queue.size());
    EXPECT_EQ(strict.runs.back().model, "depth_anything_s");
    for (std::size_t i = 0; i + 1 < strict.runs.size(); ++i)
        EXPECT_EQ(strict.runs[i].model, "resnet50");

    // With a small quantum the waiting request out-ages the fresher
    // high-priority arrivals (its head start in waiting time closes
    // the 5-level priority gap) and runs second instead of last.
    PriorityAgingPolicy aging(/*aging_quantum=*/milliseconds(4));
    auto aged = sched.run(queue, aging);
    ASSERT_EQ(aged.runs.size(), queue.size());
    EXPECT_EQ(aged.runs[1].model, "depth_anything_s");
}

TEST(Policies, MakePolicyCoversAllKinds)
{
    for (auto kind : allPolicyKinds()) {
        auto p = makePolicy(kind);
        ASSERT_NE(p, nullptr);
        EXPECT_NE(std::string(p->name()), "");
    }
    EXPECT_TRUE(MemoryAwarePolicy{}.memoryAware());
    EXPECT_FALSE(FifoPolicy{}.memoryAware());
}

// ------------------------------------------ deadline / SLO admission

TEST(Deadline, BoundedRequestBehindLongLlmRunIsShedNotBlown)
{
    // A long GPT-Neo run holds the device; a ResNet50 with a tight
    // latency bound arrives just after. By the time the device frees,
    // the bound cannot be met even if dispatched immediately —
    // deadline admission sheds it instead of blowing its SLO, and the
    // shed request does not count toward goodput.
    FlashMem fm(DeviceProfile::onePlus12());
    EventScheduler sched(fm);
    std::vector<ModelRequest> queue{
        {ModelId::GPTNeoS, 0, 0, 0},
        {ModelId::ResNet50, milliseconds(1), 0,
         /*latencyBound=*/milliseconds(60)},
    };

    // FIFO runs it anyway and blows the bound.
    auto fifo = sched.run(queue, FifoPolicy{});
    ASSERT_EQ(fifo.runs.size(), 2u);
    EXPECT_FALSE(fifo.runs[1].metSlo());
    EXPECT_EQ(fifo.goodput(), 1u);
    EXPECT_EQ(fifo.sloViolations(), 1u);
    EXPECT_TRUE(fifo.shed.empty());

    auto out = sched.run(queue, DeadlinePolicy{});
    ASSERT_EQ(out.runs.size(), 1u);
    EXPECT_EQ(out.runs[0].model, "gptneo_s");
    ASSERT_EQ(out.shed.size(), 1u);
    EXPECT_EQ(out.shed[0].queueIndex, 1u);
    EXPECT_EQ(out.shed[0].model, ModelId::ResNet50);
    EXPECT_EQ(out.shed[0].latencyBound, milliseconds(60));
    EXPECT_GE(out.shed[0].shedAt, out.runs[0].start);
    // Goodput counts only completed-in-bound runs; shed ones never do.
    EXPECT_EQ(out.goodput(), 1u);
    EXPECT_EQ(out.sloViolations(), 0u);
    EXPECT_DOUBLE_EQ(out.goodputRate(), 0.5);
    EXPECT_DOUBLE_EQ(out.shedRate(), 0.5);
}

TEST(Deadline, DegradeModeReplansInsteadOfShedding)
{
    // Same doomed request under Overload::Degrade: it still runs —
    // at a degraded (re-planned) budget that frees shared capacity —
    // and is counted as a violation, not a shed.
    FlashMem fm(DeviceProfile::onePlus12());
    EventScheduler sched(fm);
    std::vector<ModelRequest> queue{
        {ModelId::GPTNeoS, 0, 0, 0},
        {ModelId::ResNet50, milliseconds(1), 0, milliseconds(60)},
    };
    auto out = sched.run(
        queue, DeadlinePolicy{DeadlinePolicy::Overload::Degrade});
    ASSERT_EQ(out.runs.size(), 2u);
    EXPECT_TRUE(out.shed.empty());
    EXPECT_EQ(out.degradedRuns, 1);
    EXPECT_TRUE(out.runs[1].degraded);
    EXPECT_FALSE(out.runs[0].degraded);
    // The degraded dispatch re-planned the model at the smaller
    // budget through FlashMem::replan.
    EXPECT_GT(out.replans, 0);
    EXPECT_EQ(out.goodput(), 1u);
    EXPECT_EQ(out.sloViolations(), 1u);
    EXPECT_DOUBLE_EQ(out.shedRate(), 0.0);
}

TEST(Deadline, FeasibleBoundedRequestsRunAndMeetTheirSlo)
{
    FlashMem fm(DeviceProfile::onePlus12());
    EventScheduler sched(fm);
    std::vector<ModelRequest> queue{
        {ModelId::ResNet50, 0, 0, seconds(10)},
        {ModelId::DepthAnythingS, milliseconds(1), 0, seconds(10)},
    };
    auto out = sched.run(queue, DeadlinePolicy{});
    ASSERT_EQ(out.runs.size(), 2u);
    EXPECT_TRUE(out.shed.empty());
    EXPECT_EQ(out.goodput(), 2u);
    EXPECT_DOUBLE_EQ(out.goodputRate(), 1.0);
}

TEST(Deadline, EdfRunsEarlierDeadlineFirst)
{
    // Both ready while the device is busy; the later-queued request
    // has the earlier absolute deadline and must dispatch first.
    FlashMem fm(DeviceProfile::onePlus12());
    EventScheduler sched(fm);
    std::vector<ModelRequest> queue{
        {ModelId::GPTNeoS, 0, 0, 0},
        {ModelId::ResNet50, milliseconds(1), 0, seconds(30)},
        {ModelId::DepthAnythingS, milliseconds(2), 0, seconds(5)},
    };
    auto out = sched.run(queue, DeadlinePolicy{});
    ASSERT_EQ(out.runs.size(), 3u);
    EXPECT_EQ(out.runs[1].model, "depth_anything_s");
    EXPECT_EQ(out.runs[2].model, "resnet50");
}

// ------------------------------------------------- on-device re-planning

TEST(Replanning, ReplanShrinksInflightBudgetDeterministically)
{
    // Byte-identical re-plans across planner thread counts: the
    // stage/solve/merge pipeline makes each window solve a pure
    // function of its staged input, so the serialized plan cannot
    // depend on how many workers solved it.
    auto g = models::buildModel(ModelId::ResNet50);
    auto replan_with_threads = [&](int threads) {
        FlashMemOptions opt;
        opt.opg.parallel.threads = threads;
        FlashMem fm(DeviceProfile::onePlus12(), opt);
        auto compiled = fm.compile(g);
        auto replanned = fm.replan(compiled, mib(96));
        EXPECT_EQ(replanned.planBudget, mib(96));
        EXPECT_EQ(replanned.replans, 1);
        EXPECT_TRUE(replanned.plan.validate(replanned.fusedGraph,
                                            false));
        return replanned.plan.serialize();
    };
    auto t1 = replan_with_threads(1);
    auto t4 = replan_with_threads(4);
    EXPECT_EQ(t1, t4);
}

TEST(Replanning, ReplanIsByteIdenticalAcrossWarmMemo)
{
    // Re-planning the same budget twice reproduces the plan byte for
    // byte: the planner keeps no state between calls, so a repeat
    // replan ships exactly what the first did, on C2-binding windows
    // too (GPTN-S at 16 MiB ships greedy starts).
    auto g = models::buildModel(ModelId::GPTNeoS);
    FlashMem fm(DeviceProfile::onePlus12());
    auto compiled = fm.compile(g);

    auto cold = fm.replan(compiled, mib(16));
    ASSERT_GT(cold.stats.greedyWindows, 0); // C2 binds at this budget
    auto warm = fm.replan(compiled, mib(16));
    EXPECT_EQ(cold.plan.serialize(), warm.plan.serialize());
    EXPECT_EQ(warm.stats.greedyWindows, cold.stats.greedyWindows);
    EXPECT_EQ(warm.stats.objective, cold.stats.objective);
}

TEST(Replanning, ReplanChangesThePlanUnderATighterBudget)
{
    // A genuinely shrunken budget forces more preloading (the
    // in-flight bound C2 tightens), so the sibling plan differs and
    // preloads at least as much.
    auto g = models::buildModel(ModelId::GPTNeoS);
    FlashMem fm(DeviceProfile::onePlus12());
    auto compiled = fm.compile(g);
    auto shrunk = fm.replan(compiled, mib(8));
    EXPECT_TRUE(shrunk.plan.validate(shrunk.fusedGraph, false));
    EXPECT_GE(shrunk.plan.preloadBytes(shrunk.fusedGraph),
              compiled.plan.preloadBytes(compiled.fusedGraph));
    EXPECT_LE(shrunk.overlapFraction(), compiled.overlapFraction());
}

TEST(Replanning, MemoryAwareAdmissionReplansUnderContention)
{
    // Three distinct models under a tight shared budget: admission
    // shrinks the per-model share, triggering re-plans; the outcome
    // stays a valid serialized schedule.
    FlashMem fm(DeviceProfile::onePlus12());
    SchedulerConfig cfg;
    cfg.capacityBudget = mib(768);
    EventScheduler sched(fm, cfg);
    auto queue = interleavedWorkload(
        {ModelId::ResNet50, ModelId::DepthAnythingS, ModelId::ViT}, 2,
        0, 3);
    auto out = sched.run(queue, MemoryAwarePolicy{});
    ASSERT_EQ(out.runs.size(), queue.size());
    EXPECT_GT(out.replans, 0);
    // Serialized device: runs never overlap.
    for (std::size_t i = 1; i < out.runs.size(); ++i)
        EXPECT_GE(out.runs[i].start, out.runs[i - 1].end);
    // FIFO selection underneath: same dispatch order as plain FIFO.
    auto fifo = sched.run(queue, FifoPolicy{});
    for (std::size_t i = 0; i < out.runs.size(); ++i)
        EXPECT_EQ(out.runs[i].model, fifo.runs[i].model);
}

// ------------------------------------- device cluster / placement

TEST(Cluster, PlanTimesFollowsTheTwoResourceRule)
{
    // Serialized device: init and exec back to back from `now`.
    ClusterConfig serial_cfg;
    DeviceCluster serial(serial_cfg);
    auto t = serial.planTimes(0, 100, 40, 60);
    EXPECT_EQ(t.start, 100);
    EXPECT_EQ(t.initDone, 140);
    EXPECT_EQ(t.end, 200);
    serial.commit(0, ModelId::ResNet50, mib(512), t);
    EXPECT_FALSE(serial.canAccept(0, 150));
    EXPECT_TRUE(serial.anyAccepting(200) == false); // still in flight
    serial.complete(0);
    EXPECT_TRUE(serial.canAccept(0, 200));

    // Overlap: the next run's preload starts when the DMA queue
    // frees, and its compute queues behind the previous run.
    ClusterConfig ov_cfg;
    ov_cfg.overlapInitWithExec = true;
    DeviceCluster ov(ov_cfg);
    auto a = ov.planTimes(0, 0, 40, 60);
    ov.commit(0, ModelId::ResNet50, mib(512), a);
    EXPECT_EQ(a.end, 100);
    // DMA frees at 40; a second request dispatched then overlaps.
    EXPECT_TRUE(ov.canAccept(0, 40));
    auto b = ov.planTimes(0, 40, 40, 60);
    EXPECT_EQ(b.start, 40);
    EXPECT_EQ(b.initDone, 80);
    EXPECT_EQ(b.end, 160); // compute waits for a's end at 100
    ov.commit(0, ModelId::ResNet50, mib(512), b);
    // Pipeline depth 2: no third request until a completes.
    EXPECT_FALSE(ov.canAccept(0, 80));
    ov.complete(0);
    EXPECT_TRUE(ov.canAccept(0, 100));

    // Plan residency accounting: same budget re-uses the resident
    // plan, a different budget counts a switch.
    EXPECT_EQ(ov.devices()[0].planSwitches, 1);
    ov.commit(0, ModelId::ResNet50, mib(256),
              ov.planTimes(0, 100, 40, 60));
    EXPECT_EQ(ov.devices()[0].planSwitches, 2);
}

TEST(Cluster, TwoDevicesRunSimultaneousArrivalsInParallel)
{
    FlashMem fm(DeviceProfile::onePlus12());
    auto queue = chainWorkload({ModelId::ResNet50, ModelId::ResNet50},
                               /*gap=*/0);

    EventScheduler single(fm);
    auto serial = single.run(queue, FifoPolicy{});

    SchedulerConfig cfg;
    cfg.cluster.deviceCount = 2;
    EventScheduler sched(fm, cfg);
    auto out = sched.run(queue, FifoPolicy{});
    ASSERT_EQ(out.runs.size(), 2u);
    // Both dispatch at t=0 on distinct devices; the queue-behind-the-
    // first latency of the serialized device disappears.
    EXPECT_EQ(out.runs[0].start, 0);
    EXPECT_EQ(out.runs[1].start, 0);
    EXPECT_EQ(out.runs[0].device, 0);
    EXPECT_EQ(out.runs[1].device, 1);
    EXPECT_LT(out.makespan, serial.makespan);
    EXPECT_EQ(out.makespan, serial.runs[0].end);
    ASSERT_EQ(out.devices.size(), 2u);
    EXPECT_EQ(out.devices[0].dispatched, 1u);
    EXPECT_EQ(out.devices[1].dispatched, 1u);
}

TEST(Cluster, LeastLoadedTieBreaksDeterministically)
{
    // Equal-load (idle) devices: the lowest id wins, and the whole
    // schedule is reproducible run to run.
    FlashMem fm(DeviceProfile::onePlus12());
    SchedulerConfig cfg;
    cfg.cluster.deviceCount = 3;
    auto queue = interleavedWorkload(
        {ModelId::ResNet50, ModelId::DepthAnythingS}, 3,
        milliseconds(5), 7);

    EventScheduler sched(fm, cfg);
    auto a = sched.run(queue, FifoPolicy{});
    auto b = sched.run(queue, FifoPolicy{});
    ASSERT_EQ(a.runs.size(), queue.size());
    EXPECT_EQ(a.runs[0].device, 0); // first pick on the lowest id
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (std::size_t i = 0; i < a.runs.size(); ++i) {
        EXPECT_EQ(a.runs[i].device, b.runs[i].device);
        EXPECT_EQ(a.runs[i].start, b.runs[i].start);
        EXPECT_EQ(a.runs[i].end, b.runs[i].end);
    }
}

TEST(Cluster, RoundRobinCyclesDevices)
{
    FlashMem fm(DeviceProfile::onePlus12());
    SchedulerConfig cfg;
    cfg.cluster.deviceCount = 2;
    cfg.cluster.placement = PlacementKind::RoundRobin;
    EventScheduler sched(fm, cfg);
    // Spread arrivals so every dispatch sees both devices idle: the
    // cursor, not load, must cycle the placement.
    auto queue = chainWorkload({ModelId::ResNet50, ModelId::ResNet50,
                                ModelId::ResNet50, ModelId::ResNet50},
                               seconds(2));
    auto out = sched.run(queue, FifoPolicy{});
    ASSERT_EQ(out.runs.size(), 4u);
    EXPECT_EQ(out.runs[0].device, 0);
    EXPECT_EQ(out.runs[1].device, 1);
    EXPECT_EQ(out.runs[2].device, 0);
    EXPECT_EQ(out.runs[3].device, 1);
}

TEST(Cluster, CapacityAffinityAvoidsPlanSwitches)
{
    // One model, two requests far apart. Least-loaded sends the
    // second request to the idle-longest device 1 (a second plan
    // residency); capacity affinity routes it back to device 0,
    // which already holds the model's plan at the target budget.
    FlashMem fm(DeviceProfile::onePlus12());
    std::vector<ModelRequest> queue{
        {ModelId::ResNet50, 0, 0, 0},
        {ModelId::ResNet50, seconds(2), 0, 0},
    };

    SchedulerConfig ll_cfg;
    ll_cfg.cluster.deviceCount = 2;
    EventScheduler ll_sched(fm, ll_cfg);
    auto ll = ll_sched.run(queue, FifoPolicy{});
    ASSERT_EQ(ll.runs.size(), 2u);
    EXPECT_EQ(ll.runs[0].device, 0);
    EXPECT_EQ(ll.runs[1].device, 1);
    EXPECT_EQ(ll.devices[0].planSwitches + ll.devices[1].planSwitches,
              2);

    SchedulerConfig af_cfg;
    af_cfg.cluster.deviceCount = 2;
    af_cfg.cluster.placement = PlacementKind::CapacityAffinity;
    EventScheduler af_sched(fm, af_cfg);
    auto af = af_sched.run(queue, FifoPolicy{});
    ASSERT_EQ(af.runs.size(), 2u);
    EXPECT_EQ(af.runs[0].device, 0);
    EXPECT_EQ(af.runs[1].device, 0); // resident plan, no re-plan
    EXPECT_EQ(af.devices[0].planSwitches, 1);
    EXPECT_EQ(af.devices[1].planSwitches, 0);
    // Identical timelines otherwise: the model was already planned.
    EXPECT_EQ(af.makespan, ll.makespan);
}

TEST(Cluster, OverlapImprovesBackToBackMakespan)
{
    // Back-to-back LLM requests on one device: with cross-request
    // overlap each request's streamed preload runs on the DMA queue
    // while the previous request computes, so every run after the
    // first hides its full init phase.
    FlashMem fm(DeviceProfile::onePlus12());
    auto queue = chainWorkload(
        {ModelId::GPTNeoS, ModelId::GPTNeoS, ModelId::GPTNeoS},
        /*gap=*/0);

    EventScheduler serial_sched(fm);
    auto serial = serial_sched.run(queue, FifoPolicy{});

    SchedulerConfig cfg;
    cfg.cluster.overlapInitWithExec = true;
    EventScheduler sched(fm, cfg);
    auto out = sched.run(queue, FifoPolicy{});
    ASSERT_EQ(out.runs.size(), 3u);

    SimTime service = serial.runs[0].integratedLatency();
    SimTime init = out.runs[0].initLatency();
    SimTime exec = out.runs[0].execLatency();
    ASSERT_GT(init, 0);
    // First run is identical to the serialized one.
    EXPECT_EQ(out.runs[0].start, 0);
    EXPECT_EQ(out.runs[0].end, service);
    // The two-resource recurrence: each run's preload starts when the
    // DMA queue frees and a pipeline slot opens (the run before the
    // previous one completed), and its compute phase queues behind
    // the previous run's end.
    for (std::size_t i = 1; i < out.runs.size(); ++i) {
        SimTime slot_free =
            i >= 2 ? out.runs[i - 2].end : SimTime{0};
        EXPECT_EQ(out.runs[i].start,
                  std::max(out.runs[i - 1].initDone, slot_free));
        EXPECT_EQ(out.runs[i].initDone, out.runs[i].start + init);
        EXPECT_EQ(out.runs[i].end,
                  std::max(out.runs[i].initDone,
                           out.runs[i - 1].end) +
                      exec);
    }
    // Every run after the first hides (part of) its init behind the
    // predecessor's compute: the pipelined makespan beats serial,
    // and equals the recurrence unrolled from the solo profile.
    EXPECT_EQ(serial.makespan, 3 * service);
    SimTime e0 = service;
    SimTime e1 = std::max(2 * init, e0) + exec;
    SimTime s2 = std::max(2 * init, e0);
    SimTime e2 = std::max(s2 + init, e1) + exec;
    EXPECT_EQ(out.makespan, e2);
    EXPECT_LT(out.makespan, serial.makespan);

    // DMA-busy accounting reports the overlapped init work directly.
    ASSERT_EQ(out.devices.size(), 1u);
    EXPECT_EQ(out.devices[0].dmaBusyTime, 3 * init);
    EXPECT_GT(out.devices[0].dmaUtilization, 0.0);
    EXPECT_LE(out.devices[0].computeUtilization, 1.0);
}

TEST(Cluster, PerDeviceUtilizationAccountsAllDispatchedWork)
{
    FlashMem fm(DeviceProfile::onePlus12());
    SchedulerConfig cfg;
    cfg.cluster.deviceCount = 2;
    EventScheduler sched(fm, cfg);
    auto queue = interleavedWorkload(
        {ModelId::ResNet50, ModelId::DepthAnythingS}, 2,
        milliseconds(10), 5);
    auto out = sched.run(queue, FifoPolicy{});
    ASSERT_EQ(out.devices.size(), 2u);

    std::size_t dispatched = 0;
    SimTime busy = 0;
    for (const auto &d : out.devices) {
        dispatched += d.dispatched;
        busy += d.computeBusyTime + d.dmaBusyTime;
        EXPECT_GE(d.computeUtilization, 0.0);
        EXPECT_LE(d.computeUtilization, 1.0);
        EXPECT_GE(d.dmaUtilization, 0.0);
        EXPECT_LE(d.dmaUtilization, 1.0);
        EXPECT_GT(d.peakMemory, 0u);
    }
    EXPECT_EQ(dispatched, out.runs.size());
    // Serialized devices: per-run init + exec phases partition each
    // run, so summed busy time equals summed integrated latency.
    SimTime integrated = 0;
    for (const auto &r : out.runs)
        integrated += r.integratedLatency();
    EXPECT_EQ(busy, integrated);
}

TEST(Cluster, PreloadPathShardsButNeverOverlaps)
{
    // The preloading baselines support multi-device sharding, but
    // cross-request overlap is forced off: their init is not a
    // streamed DMA-queue phase — re-initializing per request on the
    // serialized device is exactly the overhead the paper targets.
    auto dev = DeviceProfile::onePlus12();
    auto queue = chainWorkload({ModelId::ResNet50, ModelId::ResNet50},
                               /*gap=*/0);
    ClusterConfig cluster;
    cluster.deviceCount = 2;
    cluster.overlapInitWithExec = true; // ignored by the baselines
    auto out = EventScheduler::runPreload(
        baselines::FrameworkId::MNN, dev, queue, FifoPolicy{},
        Precision::FP16, cluster);
    ASSERT_EQ(out.runs.size(), 2u);
    EXPECT_EQ(out.runs[0].device, 0);
    EXPECT_EQ(out.runs[1].device, 1);
    EXPECT_EQ(out.runs[0].start, 0);
    EXPECT_EQ(out.runs[1].start, 0);
    ASSERT_EQ(out.devices.size(), 2u);
    EXPECT_EQ(out.devices[0].dispatched, 1u);
    EXPECT_EQ(out.devices[1].dispatched, 1u);
}

// ------------------------------------------------------- FIFO thin shim

TEST(FifoScheduler, ThinWrapperMatchesEventScheduler)
{
    FlashMem fm(DeviceProfile::onePlus12());
    auto queue = chainWorkload({ModelId::ResNet50,
                                ModelId::DepthAnythingS},
                               milliseconds(5));
    auto wrapped = FifoScheduler::runFlashMem(fm, queue);
    EventScheduler sched(fm);
    auto direct = sched.run(queue, FifoPolicy{});
    ASSERT_EQ(wrapped.runs.size(), direct.runs.size());
    EXPECT_EQ(wrapped.makespan, direct.makespan);
    EXPECT_EQ(wrapped.peakMemory, direct.peakMemory);
    for (std::size_t i = 0; i < wrapped.runs.size(); ++i) {
        EXPECT_EQ(wrapped.runs[i].start, direct.runs[i].start);
        EXPECT_EQ(wrapped.runs[i].end, direct.runs[i].end);
    }
}

// ------------------------------------------------------ fault injection

TEST(Faults, PlanGeneratorIsSeededAndDeviceStable)
{
    FaultPlanParams p;
    p.crashesPerSecond = 2.0;
    p.stallsPerSecond = 3.0;
    p.slowdownsPerSecond = 1.0;
    p.dmaErrorsPerSecond = 2.0;

    auto a = generateFaultPlan(p, 4, seconds(10), 99);
    auto b = generateFaultPlan(p, 4, seconds(10), 99);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].time, b.events[i].time);
        EXPECT_EQ(a.events[i].device, b.events[i].device);
        EXPECT_EQ(a.events[i].kind, b.events[i].kind);
        EXPECT_EQ(a.events[i].duration, b.events[i].duration);
        EXPECT_EQ(a.events[i].factor, b.events[i].factor);
    }

    // Events are sorted, on valid devices, and every crash has its
    // rejoin later on the same device.
    std::map<int, int> crash_balance;
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        const auto &e = a.events[i];
        EXPECT_GE(e.device, 0);
        EXPECT_LT(e.device, 4);
        if (i > 0) {
            EXPECT_LE(a.events[i - 1].time, e.time);
        }
        if (e.kind == FaultKind::Crash) {
            EXPECT_EQ(crash_balance[e.device], 0);
            ++crash_balance[e.device];
        } else if (e.kind == FaultKind::Rejoin) {
            EXPECT_EQ(crash_balance[e.device], 1);
            --crash_balance[e.device];
        }
    }

    // Growing the cluster never shifts an existing device's timeline:
    // the 8-device plan restricted to devices 0-3 is exactly the
    // 4-device plan (independent per-device streams).
    auto c = generateFaultPlan(p, 8, seconds(10), 99);
    std::vector<FaultEvent> low;
    for (const auto &e : c.events) {
        if (e.device < 4)
            low.push_back(e);
    }
    ASSERT_EQ(low.size(), a.events.size());
    for (std::size_t i = 0; i < low.size(); ++i) {
        EXPECT_EQ(low[i].time, a.events[i].time);
        EXPECT_EQ(low[i].device, a.events[i].device);
        EXPECT_EQ(low[i].kind, a.events[i].kind);
    }

    // A different seed produces a different schedule.
    auto d = generateFaultPlan(p, 4, seconds(10), 100);
    bool differs = d.events.size() != a.events.size();
    for (std::size_t i = 0; !differs && i < a.events.size(); ++i)
        differs = a.events[i].time != d.events[i].time;
    EXPECT_TRUE(differs);
}

TEST(Faults, ClusterHealthStateMachine)
{
    ClusterConfig cc;
    cc.deviceCount = 2;
    cc.overlapInitWithExec = true;
    DeviceCluster cluster(cc);

    // A healthy overlap device pipelines two requests.
    auto t = cluster.planTimes(0, 0, milliseconds(2), milliseconds(10));
    cluster.commit(0, ModelId::ResNet50, mib(512), t);
    EXPECT_TRUE(cluster.canAccept(0, t.initDone));

    // Crash: Down, nothing accepted, plan residency wiped.
    cluster.crash(0, milliseconds(5));
    const auto &d0 = cluster.devices()[0];
    EXPECT_EQ(d0.health, DeviceHealth::Down);
    EXPECT_TRUE(d0.crashDown);
    EXPECT_FALSE(cluster.canAccept(0, milliseconds(6)));
    EXPECT_TRUE(d0.residentPlanBudget.empty());
    EXPECT_TRUE(cluster.anyAccepting(milliseconds(6))); // device 1

    // Rejoin: Suspect, probation caps the pipeline at depth 1.
    cluster.rejoin(0, milliseconds(105), /*probation=*/milliseconds(50));
    EXPECT_EQ(d0.health, DeviceHealth::Suspect);
    EXPECT_EQ(d0.downTime, milliseconds(100));
    EXPECT_TRUE(cluster.canAccept(0, milliseconds(110)));
    auto t2 = cluster.planTimes(0, milliseconds(110), milliseconds(2),
                                milliseconds(10));
    cluster.commit(0, ModelId::ResNet50, mib(512), t2);
    // Inside probation: one in flight saturates the probe.
    EXPECT_FALSE(cluster.canAccept(0, milliseconds(113)));
    // Past probation: full overlap depth again.
    EXPECT_TRUE(cluster.canAccept(0, milliseconds(160)));
    cluster.complete(0);

    // Slowdown scales only dispatches placed inside the window.
    cluster.setSlowdown(1, 2.0, milliseconds(300));
    auto s = cluster.planTimes(1, milliseconds(200), milliseconds(2),
                               milliseconds(10));
    EXPECT_EQ(s.initDone - s.start, milliseconds(4));
    EXPECT_EQ(s.end - s.initDone, milliseconds(20));
    auto s2 = cluster.planTimes(1, milliseconds(300), milliseconds(2),
                                milliseconds(10));
    EXPECT_EQ(s2.end - s2.start, milliseconds(12));

    // Stall shifts an idle device's horizons to now + duration.
    cluster.delay(1, milliseconds(400), milliseconds(50));
    EXPECT_EQ(cluster.devices()[1].computeBusyUntil, milliseconds(450));
    EXPECT_EQ(cluster.devices()[1].dmaBusyUntil, milliseconds(450));

    // A transient DMA abort rolls the youngest commit back exactly.
    const auto &d1 = cluster.devices()[1];
    auto dispatched_before = d1.dispatched;
    auto switches_before = d1.planSwitches;
    auto t3 = cluster.planTimes(1, milliseconds(500), milliseconds(2),
                                milliseconds(10));
    cluster.commit(1, ModelId::ResNet50, mib(512), t3);
    EXPECT_EQ(d1.inFlight, 1);
    cluster.abortLastCommit(1);
    EXPECT_EQ(d1.inFlight, 0);
    EXPECT_EQ(d1.dispatched, dispatched_before);
    EXPECT_EQ(d1.planSwitches, switches_before);
    EXPECT_EQ(d1.computeBusyUntil, milliseconds(450));
    EXPECT_EQ(d1.dmaBusyUntil, milliseconds(450));
    EXPECT_EQ(d1.residentPlanBudget.count(ModelId::ResNet50), 0u);

    // Downtime accounting covers a still-open Down interval.
    cluster.markDown(1, milliseconds(500));
    auto rows = cluster.utilization(milliseconds(600));
    EXPECT_EQ(rows[0].downTime, milliseconds(100));
    EXPECT_DOUBLE_EQ(rows[0].downFraction, 100.0 / 600.0);
    EXPECT_EQ(rows[1].downTime, milliseconds(100)); // 500 -> 600 open
}

TEST(Faults, CrashMidRunFailsOverToSurvivingDevice)
{
    FlashMem fm(DeviceProfile::onePlus12());
    std::vector<ModelRequest> queue{{ModelId::ResNet50, 0, 0, 0},
                                    {ModelId::ResNet50, 0, 0, 0}};

    SchedulerConfig cfg;
    cfg.cluster.deviceCount = 2;
    cfg.faults = singleCrash(0, /*at=*/1); // 1 ns in: mid-first-run
    EventScheduler sched(fm, cfg);
    auto out = sched.run(queue, FifoPolicy{});

    // The killed dispatch retried on the survivor; nothing was lost.
    ASSERT_EQ(out.runs.size(), 2u);
    EXPECT_TRUE(out.shed.empty());
    EXPECT_EQ(out.faults.crashes, 1);
    EXPECT_EQ(out.faults.retries, 1);
    EXPECT_EQ(out.faults.failovers, 1);
    EXPECT_EQ(out.faults.faultSheds, 0);
    EXPECT_EQ(out.faults.timeouts, 0);
    for (const auto &r : out.runs)
        EXPECT_EQ(r.device, 1);
    // The retry waited out its backoff before re-dispatching.
    EXPECT_GE(out.runs.back().start,
              1 + cfg.recovery.backoffBase);
    // The dead device's outage is accounted until the makespan.
    ASSERT_EQ(out.devices.size(), 2u);
    EXPECT_EQ(out.devices[0].downTime, out.makespan - 1);
    EXPECT_GT(out.devices[0].downFraction, 0.9);
}

TEST(Faults, StallWithinBudgetCompletesLateNotKilled)
{
    FlashMem fm(DeviceProfile::onePlus12());
    std::vector<ModelRequest> queue{{ModelId::ResNet50, 0, 0, 0}};

    // Fault-free reference (forced through the fault dispatch route
    // by an inert far-future fault, so timing rules are identical).
    SchedulerConfig ref_cfg;
    ref_cfg.faults = singleStall(0, seconds(1000), 1);
    EventScheduler ref_sched(fm, ref_cfg);
    auto ref = ref_sched.run(queue, FifoPolicy{});
    ASSERT_EQ(ref.runs.size(), 1u);
    const SimTime service = ref.runs[0].end - ref.runs[0].start;

    // A stall shorter than the timeout slack shifts the completion by
    // exactly its duration — no watchdog, no retry.
    const SimTime stall = service; // 2x service < 3x budget
    SchedulerConfig cfg;
    cfg.faults = singleStall(0, /*at=*/1, stall);
    EventScheduler sched(fm, cfg);
    auto out = sched.run(queue, FifoPolicy{});

    ASSERT_EQ(out.runs.size(), 1u);
    EXPECT_EQ(out.runs[0].end, ref.runs[0].end + stall);
    EXPECT_EQ(out.faults.timeouts, 0);
    EXPECT_EQ(out.faults.retries, 0);
    EXPECT_EQ(out.devices[0].downTime, 0);
}

TEST(Faults, StallBeyondBudgetTriggersWatchdogFailover)
{
    FlashMem fm(DeviceProfile::onePlus12());
    std::vector<ModelRequest> queue{{ModelId::ResNet50, 0, 0, 0}};

    SchedulerConfig cfg;
    cfg.cluster.deviceCount = 2;
    // A multi-second wedge blows the 3x timeout budget of any model.
    cfg.faults = singleStall(0, /*at=*/1, seconds(5));
    EventScheduler sched(fm, cfg);
    auto out = sched.run(queue, FifoPolicy{});

    ASSERT_EQ(out.runs.size(), 1u);
    EXPECT_EQ(out.runs[0].device, 1); // failed over to the survivor
    EXPECT_EQ(out.faults.timeouts, 1);
    EXPECT_EQ(out.faults.retries, 1);
    EXPECT_EQ(out.faults.failovers, 1);
    EXPECT_EQ(out.faults.crashes, 0); // wedged, not crashed
    EXPECT_TRUE(out.shed.empty());
    EXPECT_GT(out.devices[0].downTime, 0);
    // The watchdog fired at the blown budget, well before the wedge
    // cleared, so the retry did not wait out the whole stall.
    EXPECT_LT(out.runs[0].end, seconds(5));
}

TEST(Faults, RetryBudgetExhaustionFaultSheds)
{
    FlashMem fm(DeviceProfile::onePlus12());
    std::vector<ModelRequest> queue{{ModelId::ResNet50, 0, 0, 0}};

    SchedulerConfig cfg;
    cfg.faults = singleCrash(0, /*at=*/1);
    cfg.recovery.maxRetries = 0; // first kill exhausts the budget
    EventScheduler sched(fm, cfg);
    auto out = sched.run(queue, FifoPolicy{});

    EXPECT_TRUE(out.runs.empty());
    ASSERT_EQ(out.shed.size(), 1u);
    EXPECT_EQ(out.shed[0].reason, DropReason::FaultBudget);
    EXPECT_EQ(out.faults.faultSheds, 1);
    EXPECT_EQ(out.faults.retries, 0);
    EXPECT_EQ(out.goodput(), 0u);
}

TEST(Faults, StarvedRequestsAreRecordedNotSilentlyDropped)
{
    FlashMem fm(DeviceProfile::onePlus12());
    std::vector<ModelRequest> queue{
        {ModelId::ResNet50, 0, 0, 0},
        {ModelId::ResNet50, milliseconds(1), 0, 0}};

    // The only device crashes and never rejoins: the in-flight run's
    // retry and the queued arrival both end the drain starved.
    SchedulerConfig cfg;
    cfg.faults = singleCrash(0, /*at=*/1);
    EventScheduler sched(fm, cfg);
    auto out = sched.run(queue, FifoPolicy{});

    EXPECT_TRUE(out.runs.empty());
    ASSERT_EQ(out.shed.size(), 2u);
    for (const auto &s : out.shed)
        EXPECT_EQ(s.reason, DropReason::Starved);
    EXPECT_EQ(out.faults.starved, 2);
    EXPECT_EQ(out.faults.crashes, 1);
    EXPECT_EQ(out.faults.retries, 1); // the kill scheduled one retry
}

TEST(Faults, FlappingDeviceNeverDeadlocksOrLosesRequests)
{
    FlashMem fm(DeviceProfile::onePlus12());
    std::vector<ModelRequest> queue;
    for (int i = 0; i < 8; ++i)
        queue.push_back(
            {ModelId::ResNet50, i * milliseconds(5), 0, 0});

    SchedulerConfig cfg;
    cfg.cluster.deviceCount = 2;
    cfg.faults = flappingDevice(0, /*firstCrash=*/milliseconds(2),
                                /*period=*/milliseconds(40),
                                /*downFor=*/milliseconds(20),
                                /*cycles=*/5);
    EventScheduler sched(fm, cfg);
    auto out = sched.run(queue, FifoPolicy{});

    // Terminates (no deadlock) with every request accounted for:
    // completed, fault-shed, or starved — never vanished.
    EXPECT_EQ(out.runs.size() + out.shed.size(), queue.size());
    EXPECT_GE(out.faults.crashes, 2);
    for (const auto &s : out.shed)
        EXPECT_NE(s.reason, DropReason::Admission); // FIFO never sheds
    // Flap downtime is accounted on the flapping device only.
    EXPECT_GT(out.devices[0].downTime, 0);
    EXPECT_EQ(out.devices[1].downTime, 0);
}

TEST(Faults, StuckClockGuardPanicsLoudly)
{
    FlashMem fm(DeviceProfile::onePlus12());
    // Three simultaneous arrivals share one instant; a stuck limit of
    // one event per instant trips the guard deterministically.
    std::vector<ModelRequest> queue{{ModelId::ResNet50, 0, 0, 0},
                                    {ModelId::ResNet50, 0, 0, 0},
                                    {ModelId::ResNet50, 0, 0, 0}};
    SchedulerConfig cfg;
    cfg.recovery.stuckEventLimit = 1;
    EventScheduler sched(fm, cfg);
    // The third arrival has not streamed yet; it still counts as a
    // pending event.
    EXPECT_DEATH(sched.run(queue, FifoPolicy{}),
                 "event loop stuck.*pendingEvents=1 ");
}

} // namespace
} // namespace flashmem::multidnn
