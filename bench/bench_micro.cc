/**
 * @file
 * Google-benchmark micro suites for the performance-sensitive library
 * components: LC-OPG planning end to end, texture
 * layout/cache simulation, the GBT regressor, the streaming runtime,
 * and windowed memory-trace queries.
 */

#include <benchmark/benchmark.h>

#include "common/stats.hh"
#include "core/flashmem.hh"
#include "core/lc_opg.hh"
#include "gpusim/texture_cache.hh"
#include "models/model_zoo.hh"
#include "profiler/capacity.hh"
#include "profiler/gbt.hh"

namespace {

using namespace flashmem;

/** Full LC-OPG plan generation per model scale. */
void
BM_PlanModel(benchmark::State &state)
{
    static const models::ModelId ids[] = {models::ModelId::ResNet50,
                                          models::ModelId::ViT,
                                          models::ModelId::GPTNeo1_3B};
    auto g = models::buildModel(ids[state.range(0)]);
    gpusim::KernelModel km(gpusim::DeviceProfile::onePlus12());
    profiler::AnalyticCapacityProvider cap(km);
    for (auto _ : state) {
        core::LcOpgPlanner planner(g, cap, km);
        auto plan = planner.plan();
        benchmark::DoNotOptimize(plan.preloadBytes(g));
    }
    state.SetLabel(g.name());
}
BENCHMARK(BM_PlanModel)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

/** Texture-cache simulation throughput (tiled sweep). */
void
BM_TextureCacheTiledSweep(benchmark::State &state)
{
    graph::TensorDesc desc{{768, 3072}, Precision::FP16};
    auto layout = gpusim::TextureLayout::forTensor(desc);
    for (auto _ : state) {
        gpusim::TextureCache cache(kib(128), 64, 8);
        double rate = gpusim::simulateTiledSweep(cache, layout,
                                                 Precision::FP16, 8, 8);
        benchmark::DoNotOptimize(rate);
    }
}
BENCHMARK(BM_TextureCacheTiledSweep)->Unit(benchmark::kMillisecond);

/** GBT training on profiling-sized datasets. */
void
BM_GbtFit(benchmark::State &state)
{
    Rng rng(9);
    const int n = static_cast<int>(state.range(0));
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < n; ++i) {
        double a = rng.uniform(0, 8), b = rng.uniform(0, 8);
        x.push_back({a, b, a * b});
        y.push_back(3 * a + b * b + rng.gaussian(0, 0.1));
    }
    for (auto _ : state) {
        profiler::GbtParams params;
        params.trees = 60;
        profiler::GbtRegressor gbt(params);
        gbt.fit(x, y);
        benchmark::DoNotOptimize(gbt.predict({4.0, 4.0, 16.0}));
    }
}
BENCHMARK(BM_GbtFit)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

/** Streaming-runtime simulation throughput (compile once, run many). */
void
BM_StreamingRuntime(benchmark::State &state)
{
    core::FlashMem fm(gpusim::DeviceProfile::onePlus12());
    auto g = models::buildModel(models::ModelId::ViT);
    auto compiled = fm.compile(g);
    for (auto _ : state) {
        gpusim::GpuSimulator sim(fm.device());
        auto r = fm.execute(sim, compiled);
        benchmark::DoNotOptimize(r.integratedLatency());
    }
}
BENCHMARK(BM_StreamingRuntime)->Unit(benchmark::kMillisecond);

/**
 * Windowed memory-trace queries over the last ~1k points of a series of
 * 2^k points: what each run on a long-lived simulator asks of its
 * memory trace. The per-query cost should stay flat as the series grows.
 */
void
BM_TimeSeriesTailWindow(benchmark::State &state)
{
    const auto n = static_cast<SimTime>(state.range(0));
    const SimTime window = 1024;
    TimeSeries ts;
    for (SimTime i = 0; i < n; ++i)
        ts.record(i * 10, static_cast<double>((i * 7919) % 1000 + 1));
    const SimTime start = (n - window) * 10;
    const SimTime end = n * 10;
    for (auto _ : state) {
        benchmark::DoNotOptimize(ts.maxOver(start, end));
        benchmark::DoNotOptimize(ts.timeWeightedAverage(start, end));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimeSeriesTailWindow)
    ->RangeMultiplier(4)
    ->Range(1 << 14, 1 << 20)
    ->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
