/**
 * @file
 * Tests for the FlashMem core: weight slicing, overlap-plan invariants
 * and serialization, LC-OPG planning (C0-C4), adaptive fusion, kernel
 * rewriting, the streaming runtime, and the facade's ablation behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <set>

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

namespace {

/** 5% of the default budget. C2 binds there in 11 of SD-UNet's window
 * rounds and in most of GPTN-1.3B's. */
OpgParams
fivePercentBudgetParams()
{
    OpgParams params;
    params.mPeak = OpgParams{}.mPeak / 20;
    return params;
}

} // namespace

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
    for (int threads : arms) {
        OpgParams params;
        params.parallel.threads = threads;
        LcOpgPlanner planner(g, cap, km, params);
        PlanStats stats;
        auto s = planner.plan(&stats).serialize();
        EXPECT_EQ(stats.threads, threads);
        if (ref.empty())
            ref = s;
        EXPECT_EQ(s, ref) << "threads=" << threads;
    }
}

// ------------------------------------- Merge re-balancing + re-planning

TEST(LcOpg, MergeRebalanceTopsUpTruncatedWindows)
{
    // Under the latency-priority configuration some windows preload
    // chunks even though earlier windows reserved capacity greedily
    // and did not use it; the second merge pass moves those chunks
    // back into the stream.
    auto g = models::buildModel(models::ModelId::GPTNeoS);
    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);

    OpgParams params;
    params.mPeak = mib(1024);
    params.lambda = 0.5;

    params.mergeRebalance = false;
    PlanStats off_stats;
    LcOpgPlanner off(g, cap, km, params);
    auto plan_off = off.plan(&off_stats);

    params.mergeRebalance = true;
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

    LcOpgPlanner planner(g, cap, km, params);
    auto first = planner.plan();
    auto replanned = planner.replan(mib(1));
    EXPECT_TRUE(replanned.validate(g, false));

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
    // Plan bytes, flow-settled and greedy windows, tier-2 pins and the
    // summed window objective of the default planner path, pinned: on
    // two graphs the flow settles at the default budget, and on a
    // C2-binding budget where some rounds ship the greedy start. A
    // change that means to move them re-pins the values here and says
    // why.
    struct Golden
    {
        const char *name;
        graph::Graph graph;
        OpgParams params;
        std::uint64_t planHash;
        int flowWindows, greedyWindows, forcedPreloads;
        std::int64_t objective;
    };
    const Golden golden[] = {
        {"toy3", toyGraph(3), OpgParams{}, 16666781321811661279ull, 1, 0,
         0, -634},
        {"GPTN-S", models::buildModel(models::ModelId::GPTNeoS),
         OpgParams{}, 16356447235253697339ull, 19, 0, 3, -365908},
        {"SD-UNet@5%", models::buildModel(models::ModelId::SDUNet),
         fivePercentBudgetParams(), 2573985336864329254ull, 32, 8, 1,
         -3573278},
    };

    KernelModel km(DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    for (const auto &gold : golden) {
        for (int threads : {1, 4}) {
            OpgParams params = gold.params;
            params.parallel.threads = threads;
            LcOpgPlanner planner(gold.graph, cap, km, params);
            PlanStats stats;
            const auto bytes = planner.plan(&stats).serialize();
            SCOPED_TRACE(std::string(gold.name) +
                         " threads=" + std::to_string(threads));
            EXPECT_EQ(fnv1a(bytes), gold.planHash);
            EXPECT_EQ(stats.flowWindows, gold.flowWindows);
            EXPECT_EQ(stats.greedyWindows, gold.greedyWindows);
            EXPECT_EQ(stats.forcedPreloads, gold.forcedPreloads);
            EXPECT_EQ(stats.objective, gold.objective);
        }
    }
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

TEST(FlashMemFacade, RepeatCompileShipsIdenticalPlans)
{
    // Plans depend only on their inputs: compiling a model a second
    // time ships byte-identical plans, fusion decisions included. At
    // 10% of the default budget C2 binds in some windows of the larger
    // models, so their compiles ship greedy starts; the flow settles
    // every round of the rest.
    int binding = 0;
    for (const auto &spec : models::modelZoo()) {
        FlashMemOptions opt;
        opt.opg.mPeak = OpgParams{}.mPeak / 10;
        core::FlashMem fm(DeviceProfile::onePlus12(), opt);
        const auto g = models::buildModel(spec.id);
        const auto first = fm.compile(g);
        const auto second = fm.compile(g);
        SCOPED_TRACE(spec.abbr);
        EXPECT_EQ(first.fusionRounds, second.fusionRounds);
        EXPECT_EQ(first.plan.serialize(), second.plan.serialize());
        binding += first.stats.greedyWindows > 0;
    }
    EXPECT_GE(binding, 3) << "C2 bound somewhere";
}

TEST(FlashMemFacade, DefaultCompilesNeverStopOnTheClock)
{
    // Nothing in the planner reads the clock or races: every window is
    // settled by the flow, by the greedy start or is empty, and the
    // shipped plan is the same at any planner thread count, so plan
    // content does not depend on host speed or load.
    for (auto id : {models::ModelId::GPTNeoS, models::ModelId::ViT,
                    models::ModelId::DepthAnythingL}) {
        const auto g = models::buildModel(id);
        std::string ref;
        for (int threads : {1, 4}) {
            FlashMemOptions opt;
            opt.opg.parallel.threads = threads;
            core::FlashMem fm(DeviceProfile::onePlus12(), opt);
            const auto compiled = fm.compile(g);
            const auto &st = compiled.stats;
            SCOPED_TRACE(models::modelSpec(id).abbr + " threads=" +
                         std::to_string(threads));
            EXPECT_EQ(st.flowWindows + st.greedyWindows + st.emptyWindows,
                      st.windows);
            const auto bytes = compiled.plan.serialize();
            if (ref.empty())
                ref = bytes;
            EXPECT_EQ(bytes, ref);
        }
    }
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
