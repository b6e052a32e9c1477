/**
 * @file
 * Tests for the FlashMem core: weight slicing, overlap-plan invariants
 * and serialization, LC-OPG planning (C0-C4), adaptive fusion, kernel
 * rewriting, the streaming runtime, and the facade's ablation behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <set>
#include <thread>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/flashmem.hh"
#include "core/fusion.hh"
#include "core/kernel_rewriter.hh"
#include "core/lc_opg.hh"
#include "core/overlap_plan.hh"
#include "core/runtime.hh"
#include "core/weight_slicer.hh"
#include "graph/builder.hh"
#include "models/model_zoo.hh"

namespace flashmem::core {
namespace {

using graph::GraphBuilder;
using graph::OpKind;
using gpusim::DeviceProfile;
using gpusim::GpuSimulator;
using gpusim::KernelModel;

/** Small transformer-ish graph for focused tests. */
graph::Graph
toyGraph(int blocks = 3, std::int64_t d = 256, std::int64_t tokens = 64)
{
    GraphBuilder b("toy", Precision::FP16);
    auto x = b.input({tokens, d});
    for (int i = 0; i < blocks; ++i) {
        std::string p = "blk" + std::to_string(i);
        auto n = b.layerNorm(x, p + ".ln");
        auto h = b.matmul(n, 4 * d, p + ".fc1");
        h = b.activation(h, OpKind::GeLU, p + ".act");
        h = b.matmul(h, d, p + ".fc2");
        x = b.add(x, h, p + ".res");
    }
    return b.build();
}

// ----------------------------------------------------------- WeightSlicer

TEST(WeightSlicer, ChunkCounts)
{
    WeightSlicer s(mib(1));
    EXPECT_EQ(s.chunkCount(Bytes{0}), 0);
    EXPECT_EQ(s.chunkCount(mib(1)), 1);
    EXPECT_EQ(s.chunkCount(mib(1) + 1), 2);
    EXPECT_EQ(s.chunkCount(mib(16)), 16);
}

TEST(WeightSlicer, BytesForChunksHandlesShortTail)
{
    graph::Graph g("t", Precision::FP16);
    graph::Node n;
    n.name = "n";
    n.kind = OpKind::MatMul;
    n.output = graph::TensorDesc{{1}, Precision::FP16};
    g.addNode(n);
    // 2.5 MiB weight -> 3 chunks of 1 MiB.
    g.attachWeight(0, {{1310720, 1}, Precision::FP16}, "w");

    WeightSlicer s(mib(1));
    const auto &w = g.weight(0);
    EXPECT_EQ(s.chunkCount(w), 3);
    EXPECT_EQ(s.bytesForChunks(w, 0), 0u);
    EXPECT_EQ(s.bytesForChunks(w, 2), mib(2));
    EXPECT_EQ(s.bytesForChunks(w, 3), w.bytes()); // exact tail
}

TEST(WeightSlicer, TotalChunksSumsGraph)
{
    auto g = toyGraph(2);
    WeightSlicer s(kib(64));
    std::int64_t manual = 0;
    for (const auto &w : g.weights())
        manual += s.chunkCount(w);
    EXPECT_EQ(s.totalChunks(g), manual);
}

// ------------------------------------------------------------ OverlapPlan

TEST(OverlapPlan, ValidatesCompleteCoverage)
{
    auto g = toyGraph(1);
    OverlapPlan plan(g, mib(1));
    WeightSlicer s(mib(1));
    // Preload everything: trivially valid.
    for (const auto &w : g.weights())
        plan.setPreloadChunks(w.id, s.chunkCount(w));
    EXPECT_TRUE(plan.validate(g, false));
}

TEST(OverlapPlan, RejectsMissingChunks)
{
    auto g = toyGraph(1);
    OverlapPlan plan(g, mib(1));
    // Leave every weight unassigned: C0 violated.
    EXPECT_FALSE(plan.validate(g, false));
}

TEST(OverlapPlan, RejectsTransformAtConsumer)
{
    auto g = toyGraph(1);
    OverlapPlan plan(g, mib(1));
    WeightSlicer s(mib(1));
    const auto &w0 = g.weights().front();
    for (const auto &w : g.weights())
        plan.setPreloadChunks(w.id, s.chunkCount(w));
    // Shift one chunk onto the consumer itself: invalid.
    plan.setPreloadChunks(w0.id, s.chunkCount(w0) - 1);
    plan.addAssignment(w0.id, w0.consumer, 1);
    plan.setEarliestLoad(w0.id, w0.consumer);
    EXPECT_FALSE(plan.validate(g, false));
}

TEST(OverlapPlan, RejectsC1Violation)
{
    auto g = toyGraph(2);
    OverlapPlan plan(g, mib(1));
    WeightSlicer s(mib(1));
    // Find a weight consumed late enough to have room.
    const graph::Weight *w = nullptr;
    for (const auto &cand : g.weights()) {
        if (cand.consumer >= 4)
            w = &cand;
    }
    ASSERT_NE(w, nullptr);
    for (const auto &other : g.weights())
        plan.setPreloadChunks(other.id, s.chunkCount(other));
    plan.setPreloadChunks(w->id, s.chunkCount(*w) - 1);
    plan.addAssignment(w->id, w->consumer - 2, 1);
    // z_w after the first transforming layer: C1 violated.
    plan.setEarliestLoad(w->id, w->consumer - 1);
    EXPECT_FALSE(plan.validate(g, false));
}

TEST(OverlapPlan, SerializationRoundTrip)
{
    auto g = toyGraph(2);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    OpgParams params;
    params.chunkBytes = kib(256);
    LcOpgPlanner planner(g, cap, km, params);
    auto plan = planner.plan();

    auto restored = OverlapPlan::deserialize(plan.serialize());
    EXPECT_TRUE(restored.validate(g, false));
    EXPECT_EQ(restored.chunkBytes(), plan.chunkBytes());
    EXPECT_EQ(restored.preloadBytes(g), plan.preloadBytes(g));
    EXPECT_DOUBLE_EQ(restored.overlapFraction(g),
                     plan.overlapFraction(g));
}

// --------------------------------------------------------------- LC-OPG

class LcOpgOnModels
    : public ::testing::TestWithParam<models::ModelId>
{
};

TEST_P(LcOpgOnModels, ProducesValidPlan)
{
    auto g = models::buildModel(GetParam());
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    PlanStats stats;
    LcOpgPlanner planner(g, cap, km);
    auto plan = planner.plan(&stats);

    EXPECT_TRUE(plan.validate(g, false));
    EXPECT_GT(stats.windows, 0);
    // Some weights must stream (the whole point of FlashMem).
    EXPECT_GT(plan.overlapFraction(g), 0.2);
}

INSTANTIATE_TEST_SUITE_P(Zoo, LcOpgOnModels,
                         ::testing::Values(models::ModelId::GPTNeoS,
                                           models::ModelId::ViT,
                                           models::ModelId::ResNet50,
                                           models::ModelId::
                                               WhisperMedium));

TEST(LcOpg, RespectsLayerCapacities)
{
    auto g = toyGraph(6);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    OpgParams params;
    params.chunkBytes = kib(128);
    LcOpgPlanner planner(g, cap, km, params);
    auto plan = planner.plan();

    WeightSlicer slicer(params.chunkBytes);
    for (graph::NodeId l = 0;
         l < static_cast<graph::NodeId>(g.layerCount()); ++l) {
        std::int64_t assigned = 0;
        for (const auto &a : plan.assignmentsAt(l))
            assigned += a.chunks;
        auto spec = gpusim::kernelSpecFor(g, l, true);
        spec.pipelined = true;
        EXPECT_LE(assigned,
                  cap.capacityChunks(spec, params.chunkBytes))
            << "layer " << l;
    }
}

TEST(LcOpg, RespectsMPeakInFlightBound)
{
    auto g = toyGraph(6);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    OpgParams params;
    params.chunkBytes = kib(128);
    params.mPeak = kib(512); // 4 chunks of headroom only
    LcOpgPlanner planner(g, cap, km, params);
    auto plan = planner.plan();
    EXPECT_TRUE(plan.validate(g, false));

    // Reconstruct in-flight occupancy: chunks transformed at <= p for
    // weights consumed after p.
    const auto layers = static_cast<graph::NodeId>(g.layerCount());
    for (graph::NodeId p = 0; p < layers; ++p) {
        std::int64_t inflight = 0;
        for (graph::NodeId l = 0; l <= p; ++l) {
            for (const auto &a : plan.assignmentsAt(l)) {
                if (g.weight(a.weight).consumer > p)
                    inflight += a.chunks;
            }
        }
        EXPECT_LE(inflight, 4) << "layer " << p;
    }
}

TEST(LcOpg, TinyMPeakForcesPreload)
{
    auto g = toyGraph(4);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    OpgParams strict;
    strict.mPeak = 0; // no streaming headroom at all
    LcOpgPlanner planner(g, cap, km, strict);
    auto plan = planner.plan();
    EXPECT_TRUE(plan.validate(g, false));
    EXPECT_DOUBLE_EQ(plan.overlapFraction(g), 0.0);
}

TEST(LcOpg, LargerMPeakNeverReducesOverlap)
{
    auto g = toyGraph(5);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);

    double prev = -1.0;
    for (Bytes mpeak : {mib(2), mib(16), mib(128), mib(512)}) {
        OpgParams params;
        params.mPeak = mpeak;
        LcOpgPlanner planner(g, cap, km, params);
        auto plan = planner.plan();
        double frac = plan.overlapFraction(g);
        EXPECT_GE(frac + 1e-9, prev) << "mPeak " << mpeak;
        prev = frac;
    }
}

TEST(LcOpg, FirstLayerWeightsArePreloaded)
{
    // Weights consumed by the very first weighted layer have no earlier
    // layers to transform them: they must join W (paper Section 3.1.1).
    GraphBuilder b("front", Precision::FP16);
    auto x = b.input({64, 256});
    b.matmul(x, 256, "first_fc");
    auto g = b.build();

    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    LcOpgPlanner planner(g, cap, km);
    auto plan = planner.plan();
    WeightSlicer slicer(plan.chunkBytes());
    for (const auto &w : g.weights()) {
        if (w.consumer <= 1) {
            EXPECT_EQ(plan.schedule(w.id).preloadChunks,
                      slicer.chunkCount(w));
        }
    }
}

TEST(LcOpg, StatsAccountAllWindows)
{
    // DepthA-S has windows with no weights to place; they fall in
    // their own bucket, so "optimal" counts only windows solved.
    for (auto id : {models::ModelId::ViT, models::ModelId::DepthAnythingS}) {
        SCOPED_TRACE(models::modelSpec(id).abbr);
        auto g = models::buildModel(id);
        KernelModel km(DeviceProfile::onePlus12());
        profiler::AnalyticCapacityProvider cap(km);
        PlanStats stats;
        LcOpgPlanner planner(g, cap, km);
        planner.plan(&stats);
        EXPECT_EQ(stats.windows,
                  stats.optimalWindows + stats.feasibleWindows +
                      stats.greedyWindows + stats.emptyWindows);
        int empty = 0;
        for (const auto &w : stats.windowSummaries)
            empty += w.empty;
        EXPECT_EQ(stats.emptyWindows, empty);
        if (id == models::ModelId::DepthAnythingS) {
            EXPECT_GT(stats.emptyWindows, 0);
        }
        EXPECT_GT(stats.solveSeconds, 0.0);
        EXPECT_GT(stats.processNodesSeconds, 0.0);
    }
}

// --------------------------------------------------------------- PlanMemo

namespace {

/** Every PlanStats counter a replayed round must leave unchanged
 * (all but reusedRounds and the wall-clock timings). */
void
expectSameCounters(const PlanStats &want, const PlanStats &got)
{
    EXPECT_EQ(want.overallStatus, got.overallStatus);
    EXPECT_EQ(want.windows, got.windows);
    EXPECT_EQ(want.optimalWindows, got.optimalWindows);
    EXPECT_EQ(want.feasibleWindows, got.feasibleWindows);
    EXPECT_EQ(want.emptyWindows, got.emptyWindows);
    EXPECT_EQ(want.softRelaxations, got.softRelaxations);
    EXPECT_EQ(want.forcedPreloads, got.forcedPreloads);
    EXPECT_EQ(want.greedyWindows, got.greedyWindows);
    EXPECT_EQ(want.timeLimitedWindows, got.timeLimitedWindows);
    EXPECT_EQ(want.rebalancedChunks, got.rebalancedChunks);
    EXPECT_EQ(want.rebalancedWeights, got.rebalancedWeights);
    EXPECT_EQ(want.solverDecisions, got.solverDecisions);
    EXPECT_EQ(want.solverRestarts, got.solverRestarts);
    EXPECT_EQ(want.solverPropagations, got.solverPropagations);
    EXPECT_EQ(want.solverConflicts, got.solverConflicts);
    EXPECT_EQ(want.symmetryRows, got.symmetryRows);
    EXPECT_EQ(want.flowWindows, got.flowWindows);
    EXPECT_EQ(want.hintObjective, got.hintObjective);
    EXPECT_EQ(want.flowBound, got.flowBound);
    EXPECT_EQ(want.objective, got.objective);
    ASSERT_EQ(want.windowSummaries.size(), got.windowSummaries.size());
    for (std::size_t i = 0; i < want.windowSummaries.size(); ++i) {
        const auto &a = want.windowSummaries[i];
        const auto &b = got.windowSummaries[i];
        SCOPED_TRACE("window " + std::to_string(i));
        EXPECT_EQ(a.status, b.status);
        EXPECT_EQ(a.usedGreedy, b.usedGreedy);
        EXPECT_EQ(a.decisions, b.decisions);
        EXPECT_EQ(a.propagations, b.propagations);
        EXPECT_EQ(a.conflicts, b.conflicts);
        EXPECT_EQ(a.restarts, b.restarts);
        EXPECT_EQ(a.stopReason, b.stopReason);
        EXPECT_EQ(a.flow, b.flow);
        EXPECT_EQ(a.objective, b.objective);
    }
}

/** Every field of a solve a replay must reproduce (all but wall
 * time). */
void
expectSameResult(const solver::SolveResult &want,
                 const solver::SolveResult &got)
{
    EXPECT_EQ(want.status, got.status);
    EXPECT_EQ(want.stopReason, got.stopReason);
    EXPECT_EQ(want.values, got.values);
    EXPECT_EQ(want.objective, got.objective);
    EXPECT_EQ(want.decisions, got.decisions);
    EXPECT_EQ(want.propagations, got.propagations);
    EXPECT_EQ(want.backtracks, got.backtracks);
    EXPECT_EQ(want.restarts, got.restarts);
}

/** The linear rows' upper bounds: the part of a model a budget moves
 * and the shape fingerprint leaves out. */
std::vector<std::int64_t>
rowHis(const solver::CpModel &m)
{
    std::vector<std::int64_t> his;
    for (const auto &c : m.constraints())
        his.push_back(c.hi);
    return his;
}

/** toy3's one window binds on C2 at this budget, so it runs the CP
 * search, which exhausts (~2.3k decisions). */
OpgParams
toyC2BindingParams()
{
    OpgParams params;
    params.mPeak = mib(2);
    return params;
}

/** 5% of the default budget. C2 binds there in 8 of SD-UNet's window
 * rounds (each search stops on its decision budget) and in most of
 * GPTN-1.3B's. */
OpgParams
fivePercentBudgetParams()
{
    OpgParams params;
    params.mPeak = OpgParams{}.mPeak / 20;
    return params;
}

} // namespace

TEST(LcOpg, PlanMemoWarmStartReproducesPlan)
{
    // A second plan of the same graph on the same memo replays every
    // searched round from the first plan's solve records: same bytes,
    // same counters, no search. Exact replay makes this hold on
    // all-OPTIMAL windows (toy3, exhausted) and on budget-truncated
    // ones (SD-UNet) alike; both budgets bind C2, so the rounds reach
    // the CP path instead of being settled by the flow.
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    const std::pair<graph::Graph, OpgParams> arms[] = {
        {toyGraph(3), toyC2BindingParams()},
        {models::buildModel(models::ModelId::SDUNet),
         fivePercentBudgetParams()}};
    for (const auto &[g, base] : arms) {
        PlanMemo memo;
        OpgParams params = base;
        params.memo = &memo;
        PlanStats cold, warm;
        const auto cold_plan =
            LcOpgPlanner(g, cap, km, params).plan(&cold).serialize();
        const auto warm_plan =
            LcOpgPlanner(g, cap, km, params).plan(&warm).serialize();
        SCOPED_TRACE(g.name());
        EXPECT_GT(cold.solverDecisions, 0u) << "the CP path ran";
        EXPECT_EQ(cold.reusedRounds, 0);
        EXPECT_GT(warm.reusedRounds, 0);
        EXPECT_EQ(memo.stats().hits,
                  static_cast<std::uint64_t>(warm.reusedRounds));
        EXPECT_EQ(cold_plan, warm_plan);
        expectSameCounters(cold, warm);
    }
}

TEST(LcOpg, BaselineSolverEngineProducesValidPlan)
{
    auto g = toyGraph(3);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    OpgParams params;
    params.solverEngine = solver::SearchEngine::Baseline;
    LcOpgPlanner planner(g, cap, km, params);
    auto plan = planner.plan();
    EXPECT_TRUE(plan.validate(g, false));
}

// ----------------------------------------- Parallel window planning

TEST(LcOpg, ParallelPlansAreByteIdentical)
{
    auto g = models::buildModel(models::ModelId::ViT);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);

    const int hw = ThreadPool::defaultThreadCount();
    std::vector<int> arms = {1, 4};
    if (hw != 1 && hw != 4)
        arms.push_back(hw);

    std::string ref;
    std::uint64_t ref_decisions = 0;
    for (int threads : arms) {
        // A cold memo per arm: otherwise later arms would replay the
        // first arm's rounds and compare nothing.
        PlanMemo::global().clear();
        OpgParams params;
        params.parallel.threads = threads;
        LcOpgPlanner planner(g, cap, km, params);
        PlanStats stats;
        auto s = planner.plan(&stats).serialize();
        EXPECT_EQ(stats.threads, threads);
        if (ref.empty()) {
            ref = s;
            ref_decisions = stats.solverDecisions;
        }
        EXPECT_EQ(s, ref) << "threads=" << threads;
        EXPECT_EQ(stats.solverDecisions, ref_decisions)
            << "threads=" << threads;
    }
    PlanMemo::global().clear();
}

TEST(LcOpg, ParallelPlansWithRestartsAreByteIdentical)
{
    auto g = toyGraph(6);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);

    std::string ref;
    solver::SolveStatus ref_status = solver::SolveStatus::Unknown;
    for (int threads : {1, 4}) {
        PlanMemo::global().clear();
        OpgParams params;
        params.chunkBytes = kib(256);
        params.restartConflictBase = 256;
        params.parallel.threads = threads;
        LcOpgPlanner planner(g, cap, km, params);
        PlanStats stats;
        auto s = planner.plan(&stats).serialize();
        if (ref.empty()) {
            ref = s;
            ref_status = stats.overallStatus;
        }
        EXPECT_EQ(s, ref) << "threads=" << threads;
        EXPECT_EQ(stats.overallStatus, ref_status);
    }
    PlanMemo::global().clear();
}

// ------------------------------------- Merge re-balancing + re-planning

TEST(LcOpg, MergeRebalanceTopsUpTruncatedWindows)
{
    // Under the latency-priority configuration some windows preload
    // chunks even though earlier windows reserved capacity greedily
    // and did not use it; the second merge pass moves those chunks
    // back into the stream. Isolated memos keep the arms independent.
    auto g = models::buildModel(models::ModelId::GPTNeoS);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);

    OpgParams params;
    params.mPeak = mib(1024);
    params.lambda = 0.5;
    params.restartConflictBase = 1024;

    PlanMemo memo_off, memo_on;
    params.mergeRebalance = false;
    params.memo = &memo_off;
    PlanStats off_stats;
    LcOpgPlanner off(g, cap, km, params);
    auto plan_off = off.plan(&off_stats);

    params.mergeRebalance = true;
    params.memo = &memo_on;
    PlanStats on_stats;
    LcOpgPlanner on(g, cap, km, params);
    auto plan_on = on.plan(&on_stats);

    EXPECT_EQ(off_stats.rebalancedChunks, 0);
    EXPECT_GT(on_stats.rebalancedChunks, 0);
    EXPECT_GT(on_stats.rebalancedWeights, 0);
    // Top-ups only ever shrink the preload set, and the plan stays
    // valid against C0/C1 (validate) and C2/C3 (the ledgers).
    EXPECT_TRUE(plan_on.validate(g, false));
    EXPECT_LT(plan_on.preloadBytes(g), plan_off.preloadBytes(g));
    EXPECT_GT(plan_on.overlapFraction(g), plan_off.overlapFraction(g));
}

TEST(LcOpg, RebalancedPlanRespectsCapacitiesAndInflight)
{
    // The topped-up plan must still satisfy per-layer load capacities
    // (C3) and the in-flight bound (C2), reconstructed independently.
    auto g = models::buildModel(models::ModelId::GPTNeoS);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    OpgParams params;
    params.mPeak = mib(1024);
    params.lambda = 0.5;
    params.restartConflictBase = 1024;
    PlanMemo memo;
    params.memo = &memo;
    PlanStats stats;
    LcOpgPlanner planner(g, cap, km, params);
    auto plan = planner.plan(&stats);
    ASSERT_GT(stats.rebalancedChunks, 0);

    const auto layers = static_cast<graph::NodeId>(g.layerCount());
    const std::int64_t mpeak_chunks = static_cast<std::int64_t>(
        params.mPeak / params.chunkBytes);
    std::vector<std::int64_t> per_layer(layers, 0);
    for (graph::NodeId l = 0; l < layers; ++l) {
        for (const auto &a : plan.assignmentsAt(l))
            per_layer[l] += a.chunks;
        auto spec = gpusim::kernelSpecFor(g, l, true);
        spec.pipelined = true;
        EXPECT_LE(per_layer[l],
                  cap.capacityChunks(spec, params.chunkBytes))
            << "layer " << l;
    }
    std::int64_t worst_inflight = 0;
    for (graph::NodeId p = 0; p < layers; ++p) {
        std::int64_t inflight = 0;
        for (graph::NodeId l = 0; l <= p; ++l) {
            for (const auto &a : plan.assignmentsAt(l)) {
                if (g.weight(a.weight).consumer > p)
                    inflight += a.chunks;
            }
        }
        worst_inflight = std::max(worst_inflight, inflight);
    }
    EXPECT_LE(worst_inflight, mpeak_chunks);
}

TEST(LcOpg, ReplanMatchesFreshPlannerAtThatBudget)
{
    // replan() reuses the first plan()'s graph analysis but must reset
    // the capacity/in-flight ledgers: the result has to be
    // byte-identical to a fresh planner constructed at the new budget.
    auto g = toyGraph(3);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    OpgParams params;
    params.chunkBytes = kib(256);
    params.solverDecisionsPerWindow = 2000000;

    PlanMemo memo_a, memo_b;
    params.memo = &memo_a;
    LcOpgPlanner planner(g, cap, km, params);
    PlanStats first_stats;
    auto first = planner.plan(&first_stats);
    ASSERT_EQ(first_stats.overallStatus, solver::SolveStatus::Optimal);
    PlanStats replan_stats;
    auto replanned = planner.replan(mib(1), &replan_stats);
    EXPECT_TRUE(replanned.validate(g, false));

    params.memo = &memo_b;
    params.mPeak = mib(1);
    LcOpgPlanner fresh(g, cap, km, params);
    auto expected = fresh.plan();
    EXPECT_EQ(replanned.serialize(), expected.serialize());
    // And re-planning back to the original budget restores the
    // original plan bit for bit.
    auto restored = planner.replan(OpgParams{}.mPeak);
    EXPECT_EQ(restored.serialize(), first.serialize());
}

// ------------------------------------- Default planner golden values

namespace {

/** FNV-1a over serialized plan bytes (a stable, dependency-free hash). */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

TEST(LcOpg, DefaultPlannerMatchesGoldenPlansAndCounters)
{
    // Plan bytes, flow-settled windows, the summed window objective
    // and raw solver counters of the default planner path, pinned: on
    // two graphs the flow settles at the default budget, and on a
    // C2-binding budget where the CP search runs. The counters follow
    // the exact window search trajectory, so any change to variable
    // selection, value ordering, restarts or limit polling moves at
    // least one of them even where the plan does not. A change that
    // means to move them re-pins the values here and says why.
    struct Golden
    {
        const char *name;
        graph::Graph graph;
        OpgParams params;
        std::uint64_t planHash, decisions, conflicts, propagations;
        int flowWindows;
        std::int64_t objective;
    };
    const Golden golden[] = {
        {"toy3", toyGraph(3), OpgParams{}, 16666781321811661279ull, 0u,
         0u, 0u, 1, -634},
        {"GPTN-S", models::buildModel(models::ModelId::GPTNeoS),
         OpgParams{}, 16356447235253697339ull, 0u, 0u, 0u, 19, -365908},
        {"SD-UNet@5%", models::buildModel(models::ModelId::SDUNet),
         fivePercentBudgetParams(), 14246598091036353211ull, 160000u,
         79124u, 1698824u, 32, -3573288},
    };

    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    for (const auto &gold : golden) {
        for (int threads : {1, 4}) {
            PlanMemo memo; // cold: no records from elsewhere
            OpgParams params = gold.params;
            params.memo = &memo;
            params.parallel.threads = threads;
            LcOpgPlanner planner(gold.graph, cap, km, params);
            PlanStats stats;
            const auto bytes = planner.plan(&stats).serialize();
            SCOPED_TRACE(std::string(gold.name) +
                         " threads=" + std::to_string(threads));
            EXPECT_EQ(fnv1a(bytes), gold.planHash);
            EXPECT_EQ(stats.solverDecisions, gold.decisions);
            EXPECT_EQ(stats.solverConflicts, gold.conflicts);
            EXPECT_EQ(stats.solverPropagations, gold.propagations);
            EXPECT_EQ(stats.flowWindows, gold.flowWindows);
            EXPECT_EQ(stats.objective, gold.objective);
        }
    }
}

// ------------------------------------------ solve reuse across budgets

namespace {

/** @p m with each row @p certs shows never tightened moved to the
 * lowest hi replaysRecord accepts for it (maxSmin plus the row's widest
 * term span): the move of a budget change the search never reached. */
solver::CpModel
withUntightenedRowsMoved(const solver::CpModel &m,
                         const std::vector<solver::RowCertificate> &certs)
{
    solver::CpModel out;
    for (solver::VarId v = 0; v < static_cast<solver::VarId>(m.varCount());
         ++v)
        out.newIntVar(m.lowerBound(v), m.upperBound(v), m.varName(v));
    for (std::size_t ci = 0; ci < m.constraints().size(); ++ci) {
        const auto &row = m.constraints()[ci];
        std::int64_t hi = row.hi;
        if (!certs[ci].tightened &&
            certs[ci].maxSmin != std::numeric_limits<std::int64_t>::min()) {
            std::int64_t span = 0;
            for (const auto &t : row.terms)
                span = std::max(span, std::abs(t.coef) *
                                          (m.upperBound(t.var) -
                                           m.lowerBound(t.var)));
            hi = std::max(row.lo, certs[ci].maxSmin + span);
        }
        out.addLinear(row.terms, row.lo, hi);
    }
    for (const auto &imp : m.implications())
        out.addImplicationGeLe(imp.x, imp.xThreshold, imp.y, imp.yBound);
    out.minimize(m.objective());
    return out;
}

} // namespace

TEST(SolveReuse, ZooWindowRecordsReplayExactly)
{
    // Real window models: plan zoo models at C2-binding budgets (the
    // CP path runs) and keep every searched round as a record. Move
    // each record's never-tightened rows as far as replaysRecord
    // allows, as a budget change the search never reached would; where
    // the record claims to replay the moved model, a fresh solve of it
    // must match the record bit for bit.
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    int records = 0, moved_hits = 0;
    for (auto id : {models::ModelId::GPTNeo1_3B, models::ModelId::SDUNet}) {
        PlanMemo memo;
        OpgParams params = fivePercentBudgetParams();
        params.memo = &memo;
        LcOpgPlanner(models::buildModel(id), cap, km, params).plan();
        ASSERT_FALSE(memo.solveRecords().empty()) << "the CP path ran";
        for (const auto &a : memo.solveRecords()) {
            ++records;
            const auto moved =
                withUntightenedRowsMoved(a.model, a.result.rowCertificates);
            if (rowHis(moved) == rowHis(a.model) ||
                !solver::replaysRecord(a, moved, a.hint, a.params))
                continue;
            ++moved_hits;
            expectSameResult(
                a.result, solver::CpSolver(a.params).solve(moved, &a.hint));
        }
    }
    EXPECT_GT(moved_hits, 0) << records << " records";
}

TEST(LcOpg, ReplanReuseMatchesColdReplans)
{
    // A replan ladder on one shared memo replays solves kept from the
    // compile and the earlier rungs. Against it, each rung reruns on a
    // fresh memo, where only rounds of the replan itself can be
    // replayed. Plans and every counter must agree. C2 binds at these
    // budgets, so rounds reach the CP path; the flow-first planner
    // searches only rounds where the budget binds, so a kept record
    // replays at its own budget, which the ladder's last rung
    // revisits.
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    int warm_reused = 0, cold_reused = 0;
    std::uint64_t decisions = 0;
    for (auto id : {models::ModelId::GPTNeo1_3B, models::ModelId::SDUNet}) {
        const auto g = models::buildModel(id);
        PlanMemo shared;
        OpgParams params;
        params.memo = &shared;
        LcOpgPlanner ladder(g, cap, km, params);
        ladder.plan();
        for (double share : {0.05, 0.025, 0.05}) {
            const auto budget = static_cast<Bytes>(
                share * static_cast<double>(params.mPeak));
            PlanStats warm_stats;
            const auto warm = ladder.replan(budget, &warm_stats);
            PlanMemo fresh;
            OpgParams cold_params = params;
            cold_params.memo = &fresh;
            PlanStats cold_stats;
            const auto cold = LcOpgPlanner(g, cap, km, cold_params)
                                  .replan(budget, &cold_stats);
            SCOPED_TRACE(models::modelSpec(id).abbr + " share " +
                         std::to_string(share));
            EXPECT_EQ(warm.serialize(), cold.serialize());
            expectSameCounters(cold_stats, warm_stats);
            warm_reused += warm_stats.reusedRounds;
            cold_reused += cold_stats.reusedRounds;
            decisions += cold_stats.solverDecisions;
        }
    }
    EXPECT_GT(decisions, 0u) << "the CP path ran";
    EXPECT_GT(warm_reused, cold_reused);
}

TEST(LcOpg, MemoBytesIndependentOfThreadCount)
{
    // Window models are built, looked up and stored on the driver
    // thread in window order whatever the pool size, so a plan
    // followed by a replan ladder must leave the same records, in the
    // same order, at any thread count. The ladder's 2 MiB and 1 MiB
    // rungs bind C2, so they search and leave records.
    auto g = toyGraph(3);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);

    std::vector<solver::SolveRecord> ref;
    for (int threads : {1, 4}) {
        PlanMemo memo;
        OpgParams params;
        params.memo = &memo;
        params.parallel.threads = threads;
        LcOpgPlanner planner(g, cap, km, params);
        planner.plan();
        for (Bytes budget : {mib(3), mib(2), mib(1)})
            planner.replan(budget);

        const auto records = memo.solveRecords();
        ASSERT_FALSE(records.empty());
        if (ref.empty())
            ref = records;
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ASSERT_EQ(records.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
            EXPECT_EQ(records[i].model.shapeFingerprint(),
                      ref[i].model.shapeFingerprint());
            EXPECT_EQ(rowHis(records[i].model), rowHis(ref[i].model));
            EXPECT_EQ(records[i].hint, ref[i].hint);
            expectSameResult(ref[i].result, records[i].result);
        }
    }
}

namespace {

/** A one-variable record whose domain, and so whose shape, encodes
 * @p key, with the key echoed in its result values. */
solver::SolveRecord
keyedRecord(std::int64_t key)
{
    solver::SolveRecord rec;
    const auto v = rec.model.newIntVar(0, key);
    rec.model.addLessOrEqual({{v, 1}}, key);
    rec.hint = {0};
    rec.params.maxDecisions = 1;
    rec.result.status = solver::SolveStatus::Feasible;
    rec.result.stopReason = solver::StopReason::DecisionLimit;
    rec.result.values = {key};
    rec.result.wallSeconds = 1.0;
    return rec;
}

} // namespace

TEST(PlanMemo, SolveRecordsAreBoundedLruAndMemoryOnly)
{
    const std::size_t cap = PlanMemo::kSolveRecords;
    PlanMemo memo;
    for (std::size_t k = 0; k < cap; ++k)
        ASSERT_TRUE(memo.storeSolve(keyedRecord(k)));
    EXPECT_EQ(memo.solveRecordCount(), cap);

    // A use refreshes recency, so the next store evicts key 1, the
    // least recently used, instead of key 0.
    auto probe = keyedRecord(0);
    auto hit = memo.findSolve(probe.model, probe.hint, probe.params);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->values, probe.result.values);
    EXPECT_EQ(hit->wallSeconds, 0.0); // no search ran
    ASSERT_TRUE(memo.storeSolve(keyedRecord(cap)));
    EXPECT_EQ(memo.solveRecordCount(), cap);
    for (std::int64_t k : {0, 1, 2}) {
        auto rec = keyedRecord(k);
        EXPECT_EQ(memo.findSolve(rec.model, rec.hint, rec.params)
                      .has_value(),
                  k != 1)
            << "key " << k;
    }

    // Wall-clock-stopped solves are refused outright.
    auto timed = keyedRecord(cap + 1);
    timed.result.stopReason = solver::StopReason::TimeLimit;
    EXPECT_FALSE(memo.storeSolve(timed));

    // Lookups, stores and evictions are all counted.
    const auto stats = memo.stats();
    EXPECT_EQ(stats.hits, 3u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.stores, cap + 1);
    EXPECT_EQ(stats.evictions, 1u);

    memo.clear();
    EXPECT_EQ(memo.solveRecordCount(), 0u);
    EXPECT_EQ(memo.stats().stores, 0u);
}

TEST(PlanMemo, ConcurrentHammer)
{
    PlanMemo memo;
    constexpr int kThreads = 8;
    constexpr int kOpsPerThread = 4000;
    // More record keys than record slots: stores evict under
    // contention.
    constexpr std::int64_t kRecordKeys =
        static_cast<std::int64_t>(PlanMemo::kSolveRecords) + 64;
    // FMLINT(allow:cross-thread-state) test-only failure latch: writers only ever increment, final zero-check is order-independent
    std::atomic<std::uint64_t> corrupt{0};

    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&memo, &corrupt, t]() {
            Rng rng(1234 + t);
            for (int i = 0; i < kOpsPerThread; ++i) {
                // A replayed result must be its own key's: readers
                // never observe torn or misfiled records.
                const auto key = rng.uniformInt(0, kRecordKeys - 1);
                auto rec = keyedRecord(key);
                if (rng.uniform() < 0.5) {
                    memo.storeSolve(std::move(rec));
                } else if (auto r = memo.findSolve(rec.model, rec.hint,
                                                   rec.params);
                           r && r->values != rec.result.values) {
                    ++corrupt;
                }
            }
        });
    }
    for (auto &w : workers)
        w.join();

    EXPECT_EQ(corrupt.load(), 0u);
    EXPECT_EQ(memo.solveRecordCount(), PlanMemo::kSolveRecords);
    auto stats = memo.stats();
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_EQ(stats.stores - stats.evictions, PlanMemo::kSolveRecords);
    // Records that survived still echo their key.
    for (const auto &rec : memo.solveRecords())
        EXPECT_EQ(rec.result.values,
                  std::vector<std::int64_t>{rec.model.upperBound(0)});
}

// ----------------------------------------------------------------- Fusion

TEST(Fusion, InitialPartitionCoversGraphOnce)
{
    auto g = toyGraph(3);
    FusionPass fusion(g);
    auto partition = fusion.initialPartition();

    std::set<graph::NodeId> seen;
    for (const auto &grp : partition) {
        for (auto m : grp.members) {
            EXPECT_TRUE(seen.insert(m).second) << "duplicate node " << m;
        }
    }
    EXPECT_EQ(seen.size(), g.layerCount());
}

TEST(Fusion, ChainsAreSingleConsumer)
{
    auto g = toyGraph(3);
    FusionPass fusion(g);
    auto partition = fusion.initialPartition();
    for (const auto &grp : partition) {
        for (std::size_t i = 0; i + 1 < grp.members.size(); ++i) {
            auto consumers = g.consumersOf(grp.members[i]);
            ASSERT_EQ(consumers.size(), 1u);
            EXPECT_EQ(consumers[0], grp.members[i + 1]);
        }
    }
}

TEST(Fusion, MaterializePreservesTotals)
{
    auto g = models::buildModel(models::ModelId::GPTNeoS);
    FusionPass fusion(g);
    auto fused = fusion.materialize(fusion.initialPartition());

    EXPECT_LT(fused.layerCount(), g.layerCount());
    EXPECT_EQ(fused.totalMacs(), g.totalMacs());
    EXPECT_EQ(fused.totalParams(), g.totalParams());
    EXPECT_EQ(fused.totalWeightBytes(), g.totalWeightBytes());
    EXPECT_EQ(fused.weightCount(), g.weightCount());
    EXPECT_TRUE(fused.validate(false));
}

TEST(Fusion, SingletonPartitionIsIdentity)
{
    auto g = toyGraph(2);
    FusionPass fusion(g);
    auto fused = fusion.materialize(fusion.singletonPartition());
    EXPECT_EQ(fused.layerCount(), g.layerCount());
    EXPECT_EQ(fused.totalMacs(), g.totalMacs());
}

TEST(Fusion, RestrictiveKindOrdering)
{
    EXPECT_EQ(FusionPass::restrictiveKind(
                  {OpKind::MatMul, OpKind::GeLU}),
              OpKind::GeLU);
    EXPECT_EQ(FusionPass::restrictiveKind(
                  {OpKind::MatMul, OpKind::Softmax, OpKind::Add}),
              OpKind::Softmax);
    EXPECT_EQ(FusionPass::restrictiveKind({OpKind::MatMul}),
              OpKind::MatMul);
    EXPECT_EQ(FusionPass::restrictiveKind(
                  {OpKind::Reshape, OpKind::Add}),
              OpKind::Reshape);
}

TEST(Fusion, SplitPeelsElementalTail)
{
    // Build matmul -> bias-ish add -> gelu chain and fuse it.
    GraphBuilder b("chain", Precision::FP16);
    auto x = b.input({64, 256});
    auto m = b.matmul(x, 256, "mm", false);
    auto a = b.activation(m, OpKind::GeLU, "gelu");
    auto g = b.build();
    (void)a;

    FusionPass fusion(g);
    FusionGroup grp{{1, 2}}; // matmul, gelu
    FusionGroup head, tail;
    ASSERT_TRUE(fusion.splitGroup(grp, &head, &tail));
    EXPECT_EQ(head.members, (std::vector<graph::NodeId>{1}));
    EXPECT_EQ(tail.members, (std::vector<graph::NodeId>{2}));
}

TEST(Fusion, HierarchicalGroupsRetainedIntact)
{
    GraphBuilder b("h", Precision::FP16);
    auto x = b.input({64, 256});
    auto n = b.layerNorm(x, "ln");
    auto s = b.scale(n, "scale");
    auto g = b.build();
    (void)s;

    FusionPass fusion(g);
    FusionGroup grp{{1, 2}};
    FusionGroup head, tail;
    EXPECT_FALSE(fusion.splitGroup(grp, &head, &tail));
}

TEST(Fusion, SpecForGroupAggregates)
{
    auto g = toyGraph(1);
    FusionPass fusion(g);
    // fc1 -> gelu chain: nodes 2 and 3 in toyGraph ordering.
    FusionGroup grp{{2, 3}};
    auto spec = fusion.specForGroup(grp);
    EXPECT_EQ(spec.macs, g.node(2).macs + g.node(3).macs);
    // Output is the tail's output; input excludes the internal edge.
    EXPECT_EQ(spec.outputBytes, g.node(3).output.bytes());
    EXPECT_EQ(spec.inputBytes, g.inputBytes(2));
}

// --------------------------------------------------------- KernelRewriter

TEST(KernelRewriter, RenderSubstitutesPlaceholders)
{
    auto out = KernelRewriter::renderTemplate(
        "kernel {{name}} tiles={{k_tiles}}",
        {{"name", "mm"}, {"k_tiles", "8"}});
    EXPECT_EQ(out, "kernel mm tiles=8");
}

TEST(KernelRewriter, UnresolvedKeyDies)
{
    EXPECT_DEATH(KernelRewriter::renderTemplate("{{missing}}", {}),
                 "unresolved template key");
}

TEST(KernelRewriter, SelectsTemplatesByPlan)
{
    auto g = models::buildModel(models::ModelId::ViT);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    LcOpgPlanner planner(g, cap, km);
    auto plan = planner.plan();

    KernelRewriter rewriter(g, plan, true);
    auto kernels = rewriter.rewriteAll();
    ASSERT_EQ(kernels.size(), g.layerCount());

    int pipelined = 0, plain = 0;
    for (const auto &k : kernels) {
        if (k.tmpl == KernelTemplate::PipelinedBranchFree) {
            ++pipelined;
            EXPECT_GT(k.inlineLoadBytes, 0u);
            EXPECT_TRUE(k.spec.pipelined);
            EXPECT_NE(k.source.find("drain loop"), std::string::npos);
        } else if (k.tmpl == KernelTemplate::Plain) {
            ++plain;
            EXPECT_EQ(k.inlineLoadBytes, 0u);
        }
    }
    EXPECT_GT(pipelined, 0);
    EXPECT_GT(plain, 0);
}

TEST(KernelRewriter, BranchyModeForAblation)
{
    auto g = toyGraph(3);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    LcOpgPlanner planner(g, cap, km);
    auto plan = planner.plan();

    KernelRewriter rewriter(g, plan, /*branch_free=*/false);
    bool saw_branchy = false;
    for (const auto &k : rewriter.rewriteAll()) {
        if (k.inlineLoadBytes > 0) {
            EXPECT_EQ(k.tmpl, KernelTemplate::BranchyOverlap);
            EXPECT_FALSE(k.spec.pipelined);
            EXPECT_NE(k.source.find("divergent"), std::string::npos);
            saw_branchy = true;
        }
    }
    EXPECT_TRUE(saw_branchy);
}

// ---------------------------------------------------------------- Runtime

TEST(Runtime, MemoryFullyRetiredAfterRun)
{
    auto g = toyGraph(4);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    LcOpgPlanner planner(g, cap, km);
    auto plan = planner.plan();

    GpuSimulator sim(DeviceProfile::onePlus12());
    StreamingRuntime runtime(sim, g, plan);
    auto r = runtime.run();
    EXPECT_GT(r.integratedLatency(), 0);
    // Every byte allocated during the run must have been freed.
    EXPECT_EQ(sim.memory().used(), 0u);
}

TEST(Runtime, IntegratedCoversInitAndExec)
{
    auto g = toyGraph(4);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    LcOpgPlanner planner(g, cap, km);
    auto plan = planner.plan();

    GpuSimulator sim(DeviceProfile::onePlus12());
    StreamingRuntime runtime(sim, g, plan);
    auto r = runtime.run();
    EXPECT_EQ(r.integratedLatency(),
              r.initLatency() + r.execLatency());
    EXPECT_EQ(r.kernels, g.layerCount());
}

TEST(Runtime, ArrivalShiftsTimelineNotDuration)
{
    auto g = toyGraph(3);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    LcOpgPlanner planner(g, cap, km);
    auto plan = planner.plan();

    GpuSimulator sim1(DeviceProfile::onePlus12());
    auto r1 = StreamingRuntime(sim1, g, plan).run();

    GpuSimulator sim2(DeviceProfile::onePlus12());
    RunConfig cfg;
    cfg.arrival = seconds(2.0);
    auto r2 = StreamingRuntime(sim2, g, plan).run(cfg);

    EXPECT_EQ(r2.start, seconds(2.0));
    EXPECT_EQ(r1.integratedLatency(), r2.integratedLatency());
}

namespace {

/** Expect @p series to end with @p run's points shifted by @p at:
 * every point from @p at on, bit for bit. */
void
expectShiftedTail(const TimeSeries &series, const TimeSeries &run,
                  SimTime at)
{
    const auto &pts = series.points();
    auto it = std::lower_bound(
        pts.begin(), pts.end(), at,
        [](const TimeSeries::Point &p, SimTime t) { return p.time < t; });
    ASSERT_EQ(static_cast<std::size_t>(pts.end() - it),
              run.points().size());
    for (const auto &p : run.points()) {
        EXPECT_EQ(it->time, p.time + at);
        EXPECT_EQ(it->value, p.value);
        ++it;
    }
}

/** @p ref's activity summed @p n times, up to @p makespan. */
gpusim::ActivitySummary
repeatedActivity(const gpusim::ActivitySummary &ref, SimTime n,
                 SimTime makespan)
{
    return {makespan, n * ref.computeBusy, n * ref.diskBusy,
            static_cast<Bytes>(n) * ref.bytesMoved};
}

/** Every RunResult field equal. */
void
expectSameRun(const RunResult &want, const RunResult &got)
{
    EXPECT_EQ(want.model, got.model);
    EXPECT_EQ(want.arrival, got.arrival);
    EXPECT_EQ(want.start, got.start);
    EXPECT_EQ(want.initDone, got.initDone);
    EXPECT_EQ(want.end, got.end);
    EXPECT_EQ(want.latencyBound, got.latencyBound);
    EXPECT_EQ(want.device, got.device);
    EXPECT_EQ(want.degraded, got.degraded);
    EXPECT_EQ(want.stallTime, got.stallTime);
    EXPECT_EQ(want.peakMemory, got.peakMemory);
    EXPECT_EQ(want.avgMemoryBytes, got.avgMemoryBytes);
    EXPECT_EQ(want.oom, got.oom);
    EXPECT_EQ(want.kernels, got.kernels);
}

/** A solo run (started at 0) as the same run started at @p at. */
RunResult
shiftedRun(RunResult r, SimTime at)
{
    r.arrival += at;
    r.start += at;
    r.initDone += at;
    r.end += at;
    return r;
}

constexpr gpusim::MemKind kAllKinds[] = {
    gpusim::MemKind::UnifiedWeights, gpusim::MemKind::TextureWeights,
    gpusim::MemKind::Activations, gpusim::MemKind::Scratch};

} // namespace

// The multi-DNN scheduler profiles each (model, budget) once on a
// scratch simulator and replays that profile onto idle devices at
// every dispatch (GpuSimulator::replay), so a run on a long-lived
// simulator must leave exactly the footprint a fresh one does, shifted
// to its start: result, trace points, peaks, activity, energy, horizon.
TEST(Runtime, BackToBackRunsOnOneSimulatorAreStartTimeInvariant)
{
    const auto dev = DeviceProfile::onePlus12();
    core::FlashMem fm(dev);
    const gpusim::PowerModel power(dev);
    for (const auto &spec : models::modelZoo()) {
        auto full = fm.compile(models::buildModel(spec.id));
        auto quarter = fm.replan(full, full.planBudget / 4);
        for (const auto *compiled : {&full, &quarter}) {
            SCOPED_TRACE(testing::Message()
                         << spec.abbr << " at " << compiled->planBudget
                         << " bytes");
            GpuSimulator fresh(dev);
            auto ref = fm.execute(fresh, *compiled);
            ASSERT_GT(ref.peakMemory, 0u);
            const auto ref_activity = fresh.activity(ref.end);

            GpuSimulator sim(dev);
            SimTime at = 0;
            for (int i = 0; i < 64; ++i) {
                auto r = fm.execute(sim, *compiled, at);
                SCOPED_TRACE(testing::Message() << "run " << i);
                expectSameRun(shiftedRun(ref, at), r);
                EXPECT_EQ(sim.horizon(), at + fresh.horizon());
                expectShiftedTail(sim.memory().totalTrace(),
                                  fresh.memory().totalTrace(), at);
                for (auto kind : kAllKinds)
                    EXPECT_EQ(sim.memory().peak(kind),
                              fresh.memory().peak(kind));
                auto want =
                    repeatedActivity(ref_activity, i + 1, r.end);
                auto got = sim.activity(r.end);
                EXPECT_EQ(got.computeBusy, want.computeBusy);
                EXPECT_EQ(got.diskBusy, want.diskBusy);
                EXPECT_EQ(got.bytesMoved, want.bytesMoved);
                EXPECT_EQ(sim.energyJoules(r.end),
                          power.energyJoules(want));
                at = r.end;
            }
        }
    }
}

// ------------------------------------------------------------------ Replay

TEST(Replay, MixedSequenceMatchesExecutionBitForBit)
{
    const auto dev = DeviceProfile::onePlus12();
    core::FlashMem fm(dev);
    std::vector<CompiledModel> compiled;
    for (auto id : {models::ModelId::ResNet50, models::ModelId::ViT,
                    models::ModelId::DepthAnythingS,
                    models::ModelId::GPTNeoS}) {
        compiled.push_back(fm.compile(models::buildModel(id)));
        compiled.push_back(
            fm.replan(compiled.back(), compiled.back().planBudget / 4));
    }

    // A budget between the smallest and largest solo peaks, so the
    // sequence mixes runs that overflow it with runs that do not.
    Bytes lo = std::numeric_limits<Bytes>::max(), hi = 0;
    for (const auto &cm : compiled) {
        GpuSimulator probe(dev);
        auto r = fm.execute(probe, cm);
        lo = std::min(lo, r.peakMemory);
        hi = std::max(hi, r.peakMemory);
    }
    ASSERT_LT(lo, hi);
    auto tight = dev;
    tight.appMemoryBudget = lo + (hi - lo) / 2;

    struct Solo
    {
        GpuSimulator sim;
        RunResult run;
    };
    std::vector<Solo> solos;
    for (const auto &cm : compiled) {
        solos.push_back({GpuSimulator(tight), {}});
        solos.back().run = fm.execute(solos.back().sim, cm, 0);
    }

    // Back to back (gap 0), one tick apart, and across idle gaps.
    const std::size_t order[] = {0, 1, 2, 3, 4, 5, 6, 7, 3, 3, 0, 6, 5,
                                 1, 7, 2, 4, 0};
    const SimTime gaps[] = {0, 1, milliseconds(3), 0, microseconds(7)};
    GpuSimulator executed(tight), replayed(tight);
    SimTime at = 0;
    int ooms = 0;
    for (std::size_t k = 0; k < std::size(order); ++k) {
        SCOPED_TRACE(testing::Message() << "step " << k);
        auto want = fm.execute(executed, compiled[order[k]], at);
        ASSERT_TRUE(replayed.idleAt(at));
        replayed.replay(solos[order[k]].sim, at);
        expectSameRun(want, shiftedRun(solos[order[k]].run, at));
        ooms += want.oom;
        at = want.end + gaps[k % std::size(gaps)];
    }
    EXPECT_GT(ooms, 0);
    EXPECT_LT(ooms, static_cast<int>(std::size(order)));

    const auto &want_mem = executed.memory();
    const auto &got_mem = replayed.memory();
    const auto &want_pts = want_mem.totalTrace().points();
    const auto &got_pts = got_mem.totalTrace().points();
    ASSERT_EQ(want_pts.size(), got_pts.size());
    for (std::size_t i = 0; i < want_pts.size(); ++i) {
        EXPECT_EQ(want_pts[i].time, got_pts[i].time) << "point " << i;
        EXPECT_EQ(want_pts[i].value, got_pts[i].value) << "point " << i;
    }
    EXPECT_EQ(want_mem.used(), got_mem.used());
    EXPECT_EQ(want_mem.peak(), got_mem.peak());
    for (auto kind : kAllKinds)
        EXPECT_EQ(want_mem.peak(kind), got_mem.peak(kind));
    EXPECT_EQ(want_mem.oomOccurred(), got_mem.oomOccurred());
    EXPECT_EQ(want_mem.lastTime(), got_mem.lastTime());

    auto same_timeline = [](const auto &a, const auto &b) {
        EXPECT_EQ(a.freeAt(), b.freeAt());
        EXPECT_EQ(a.busyTime(), b.busyTime());
    };
    same_timeline(executed.computeQueue(), replayed.computeQueue());
    same_timeline(executed.disk(), replayed.disk());
    same_timeline(executed.transformQueue(), replayed.transformQueue());
    EXPECT_EQ(executed.computeQueue().reservations(),
              replayed.computeQueue().reservations());
    EXPECT_EQ(executed.disk().bytesMoved(), replayed.disk().bytesMoved());
    EXPECT_EQ(executed.transformQueue().bytesMoved(),
              replayed.transformQueue().bytesMoved());
    EXPECT_EQ(executed.horizon(), replayed.horizon());
    auto wa = executed.activity(at), ga = replayed.activity(at);
    EXPECT_EQ(wa.computeBusy, ga.computeBusy);
    EXPECT_EQ(wa.diskBusy, ga.diskBusy);
    EXPECT_EQ(wa.bytesMoved, ga.bytesMoved);
    EXPECT_EQ(executed.energyJoules(at), replayed.energyJoules(at));
}

TEST(ReplayDeathTest, ReplayOntoABusySimulatorAborts)
{
    const auto dev = DeviceProfile::onePlus12();
    core::FlashMem fm(dev);
    auto compiled = fm.compile(toyGraph(2));
    GpuSimulator solo(dev);
    auto run = fm.execute(solo, compiled, 0);

    GpuSimulator busy(dev);
    fm.execute(busy, compiled, 0);
    EXPECT_DEATH(busy.replay(solo, run.end - 1), "busy");

    // A solo simulator holding two runs is not one replayable run.
    GpuSimulator twice(dev);
    fm.execute(twice, compiled, 0);
    fm.execute(twice, compiled, run.end + 1);
    GpuSimulator idle(dev);
    EXPECT_DEATH(idle.replay(twice, 0), "more than one run");
}

TEST(Runtime, SlowDiskIncreasesStalls)
{
    auto g = models::buildModel(models::ModelId::GPTNeoS);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    LcOpgPlanner planner(g, cap, km);
    auto plan = planner.plan();

    GpuSimulator fast(DeviceProfile::onePlus12());
    auto fast_r = StreamingRuntime(fast, g, plan).run();

    auto slow_dev = DeviceProfile::onePlus12();
    slow_dev.diskToUm = Bandwidth::mbps(300);
    GpuSimulator slow(slow_dev);
    auto slow_r = StreamingRuntime(slow, g, plan).run();

    EXPECT_GT(slow_r.stallTime, fast_r.stallTime);
    EXPECT_GT(slow_r.integratedLatency(), fast_r.integratedLatency());
}

TEST(Runtime, BranchFreeBeatsBranchy)
{
    auto g = models::buildModel(models::ModelId::ViT);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    LcOpgPlanner planner(g, cap, km);
    auto plan = planner.plan();

    GpuSimulator s1(DeviceProfile::onePlus12());
    RunConfig piped;
    piped.branchFreeKernels = true;
    auto r1 = StreamingRuntime(s1, g, plan).run(piped);

    GpuSimulator s2(DeviceProfile::onePlus12());
    RunConfig branchy;
    branchy.branchFreeKernels = false;
    auto r2 = StreamingRuntime(s2, g, plan).run(branchy);

    EXPECT_LT(r1.integratedLatency(), r2.integratedLatency());
}

TEST(Runtime, DeterministicAcrossRuns)
{
    auto g = toyGraph(4);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    LcOpgPlanner planner(g, cap, km);
    auto plan = planner.plan();

    GpuSimulator s1(DeviceProfile::onePlus12());
    auto r1 = StreamingRuntime(s1, g, plan).run();
    GpuSimulator s2(DeviceProfile::onePlus12());
    auto r2 = StreamingRuntime(s2, g, plan).run();
    EXPECT_EQ(r1.integratedLatency(), r2.integratedLatency());
    EXPECT_EQ(r1.peakMemory, r2.peakMemory);
    EXPECT_DOUBLE_EQ(r1.avgMemoryBytes, r2.avgMemoryBytes);
}

// ----------------------------------------------------------------- Facade

TEST(FlashMemFacade, CompileProducesConsistentArtifacts)
{
    core::FlashMem fm(DeviceProfile::onePlus12());
    auto g = models::buildModel(models::ModelId::ViT);
    auto compiled = fm.compile(g);

    EXPECT_TRUE(compiled.plan.validate(compiled.fusedGraph, false));
    EXPECT_EQ(compiled.kernels.size(),
              compiled.fusedGraph.layerCount());
    EXPECT_GT(compiled.overlapFraction(), 0.3);
    EXPECT_LT(compiled.fusedGraph.layerCount(), g.layerCount());
}

TEST(FlashMemFacade, AblationFusionReducesKernels)
{
    auto g = models::buildModel(models::ModelId::GPTNeoS);

    FlashMemOptions no_fusion;
    no_fusion.adaptiveFusion = false;
    core::FlashMem fm_plain(DeviceProfile::onePlus12(), no_fusion);
    auto plain = fm_plain.compile(g);

    core::FlashMem fm_fused(DeviceProfile::onePlus12());
    auto fused = fm_fused.compile(g);

    EXPECT_EQ(plain.fusedGraph.layerCount(), g.layerCount());
    EXPECT_LT(fused.fusedGraph.layerCount(),
              plain.fusedGraph.layerCount());
}

TEST(FlashMemFacade, FullSystemFastestAmongAblations)
{
    auto g = models::buildModel(models::ModelId::ViT);

    FlashMemOptions opg_only;
    opg_only.adaptiveFusion = false;
    opg_only.kernelRewriting = false;

    FlashMemOptions with_fusion = opg_only;
    with_fusion.adaptiveFusion = true;

    FlashMemOptions full; // fusion + rewriting

    struct Outcome
    {
        SimTime integrated;
        SimTime computeBusy;
    };
    auto run = [&](const FlashMemOptions &opt) -> Outcome {
        core::FlashMem fm(DeviceProfile::onePlus12(), opt);
        auto compiled = fm.compile(g);
        GpuSimulator sim(DeviceProfile::onePlus12());
        auto r = fm.execute(sim, compiled);
        return {r.integratedLatency(), sim.computeQueue().busyTime()};
    };

    auto opg = run(opg_only);
    auto fus = run(with_fusion);
    auto ful = run(full);

    // GPU-side work strictly shrinks as optimizations stack: fusion
    // removes launches + intermediate traffic, rewriting removes
    // divergence penalties.
    EXPECT_LT(fus.computeBusy, opg.computeBusy);
    EXPECT_LE(ful.computeBusy, fus.computeBusy);
    // Integrated latency is disk-bound for ViT, so fusion's
    // capacity-vs-launch trade-off may shift it slightly; the full
    // system must stay within a few percent of the OPG-only plan and
    // never regress materially.
    EXPECT_LT(static_cast<double>(ful.integrated),
              1.03 * static_cast<double>(opg.integrated));
}

TEST(FlashMemFacade, RecompilationReusesPlanMemo)
{
    // A recompile in the same process replays the first compile's
    // searched rounds from the global memo and ships the same bytes,
    // fusion decisions included. At 10% of the default budget C2
    // binds in SD-UNet's windows, so the compile reaches the CP path.
    PlanMemo::global().clear();
    FlashMemOptions opt;
    opt.opg.mPeak = OpgParams{}.mPeak / 10;
    core::FlashMem fm(DeviceProfile::onePlus12(), opt);
    auto g = models::buildModel(models::ModelId::SDUNet);
    auto first = fm.compile(g);
    auto second = fm.compile(g);
    EXPECT_GT(first.stats.solverDecisions, 0u) << "the CP path ran";
    EXPECT_GT(PlanMemo::global().stats().stores, 0u);
    EXPECT_EQ(first.stats.reusedRounds, 0);
    EXPECT_GT(second.stats.reusedRounds, 0);
    EXPECT_EQ(first.fusionRounds, second.fusionRounds);
    EXPECT_EQ(first.fusedGraph.layerCount(),
              second.fusedGraph.layerCount());
    EXPECT_EQ(first.plan.serialize(), second.plan.serialize());
    PlanMemo::global().clear();
}

TEST(FlashMemFacade, RepeatCompileShipsIdenticalPlans)
{
    // Plans depend only on their inputs: compiling a model a second
    // time on the same memo ships byte-identical plans, and the second
    // compile replays searched rounds instead of searching them. At
    // 10% of the default budget C2 binds in some windows of the larger
    // models, so their compiles reach the CP path; the flow settles
    // every round of the rest.
    int searched = 0;
    for (const auto &spec : models::modelZoo()) {
        PlanMemo memo;
        FlashMemOptions opt;
        opt.opg.memo = &memo;
        opt.opg.mPeak = OpgParams{}.mPeak / 10;
        core::FlashMem fm(DeviceProfile::onePlus12(), opt);
        const auto g = models::buildModel(spec.id);
        const auto first = fm.compile(g);
        const auto second = fm.compile(g);
        SCOPED_TRACE(spec.abbr);
        EXPECT_EQ(first.plan.serialize(), second.plan.serialize());
        if (first.stats.solverDecisions > 0) {
            ++searched;
            EXPECT_GT(second.stats.reusedRounds, 0);
        }
    }
    EXPECT_GE(searched, 3) << "the CP path ran";
}

TEST(FlashMemFacade, DefaultCompilesNeverStopOnTheClock)
{
    // Under default options every window ends on its decision budget
    // or by exhaustion, never on the solver's wall-clock limit, so
    // plan content does not depend on host speed or load.
    for (auto id : {models::ModelId::GPTNeoS, models::ModelId::ViT,
                    models::ModelId::DepthAnythingL}) {
        const auto g = models::buildModel(id);
        for (int threads : {1, 4}) {
            PlanMemo::global().clear();
            FlashMemOptions opt;
            opt.opg.parallel.threads = threads;
            core::FlashMem fm(DeviceProfile::onePlus12(), opt);
            const auto compiled = fm.compile(g);
            EXPECT_EQ(compiled.stats.timeLimitedWindows, 0)
                << models::modelSpec(id).abbr << " threads=" << threads;
        }
    }
    PlanMemo::global().clear();
}

TEST(FlashMemFacade, RunsGpt27BWithinOnePlus12Budget)
{
    // The headline claim: GPTN-2.7B (5.2 GB of fp16 weights) executes
    // under FlashMem on a device where preloading frameworks OOM.
    core::FlashMem fm(DeviceProfile::onePlus12());
    auto g = models::buildModel(models::ModelId::GPTNeo2_7B);
    auto r = fm.runOnce(g);
    EXPECT_FALSE(r.oom);
    EXPECT_LT(r.peakMemory, DeviceProfile::onePlus12().appMemoryBudget);
}

} // namespace
} // namespace flashmem::core
