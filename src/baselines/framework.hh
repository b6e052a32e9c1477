/**
 * @file
 * Behavioural traits of the compared mobile DNN frameworks.
 *
 * All baselines share the same simulator and kernel model as FlashMem;
 * only their *policies* differ: full weight preloading, per-tensor
 * dedicated transform dispatches with staging copies, runtime layout
 * conversions (except SmartMem, which eliminates them), buffer-path
 * execution (ExecuTorch), and operator-support gaps (NCNN's missing
 * GPU LayerNorm). Trait values are calibrated so the published
 * qualitative ordering of Tables 1/7/8 reproduces. Paper-vs-measured
 * numbers are printed side by side by bench_table7_latency,
 * bench_table8_memory and bench_table9_energy; perfbench reports the
 * per-framework log-ratio error against Table 7 as
 * `baselines.log_error.<fw>` and its aggregate as `paper_error`.
 */

#ifndef FLASHMEM_BASELINES_FRAMEWORK_HH
#define FLASHMEM_BASELINES_FRAMEWORK_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "graph/graph.hh"

namespace flashmem::baselines {

/** The compared frameworks (paper Section 5.1). */
enum class FrameworkId
{
    MNN,
    NCNN,
    TVM,
    LiteRT,
    ExecuTorch,
    SmartMem,
};

/** All baseline ids in the paper's column order. */
const std::vector<FrameworkId> &allFrameworks();

/** Behavioural parameters of one framework. */
struct FrameworkTraits
{
    FrameworkId id = FrameworkId::MNN;
    std::string name;

    /** @name Initialization (cold start). @{ */
    /** Per-tensor transform pipeline throughput (CPU repack + upload). */
    Bandwidth transformBw = Bandwidth::mbps(100);
    /** Staging copies per tensor transform. */
    int transformPasses = 2;
    /** Staging bytes resident across init, as a multiple of weights. */
    double stagingFactor = 2.0;
    /** Weights stored/loaded as fp32 (doubles disk traffic). */
    bool fp32Storage = false;
    /** Skips texture transforms entirely (buffer execution). */
    bool buffersOnly = false;
    /** @} */

    /** @name Execution. @{ */
    /** Multiplier on every kernel's base latency. */
    double execSlowdown = 1.0;
    /** Multiplier on movement (layout) operator cost; SmartMem's
     * transformation elimination drives this below 1. */
    double movementCostFactor = 1.0;
    /** Effective bandwidth of runtime layout conversions. */
    Bandwidth runtimeLayoutBw = Bandwidth::gbps(0.6);
    /** @} */

    /** Framework-resident memory (context, workspaces, caches). */
    Bytes baseOverhead = mib(50);

    /** @name Operator support. @{ */
    bool supportsLayerNormGpu = true;  ///< NCNN: false
    bool supportsGroupNormGpu = true;
    /** Token-embedding / autoregressive graphs (LiteRT delegate: no). */
    bool supportsSequenceModels = true;
    /** Upsample-based decoders (LiteRT delegate: no). */
    bool supportsUpsample = true;
    /** Largest weight footprint the framework handles (0 = unbounded
     * until device OOM). */
    Bytes maxModelBytes = 0;
    /** Models the framework's converter rejects outright (graph names;
     * documented per-framework gaps that have no structural proxy). */
    std::vector<std::string> unsupportedModels;
    /** @} */
};

/** Calibrated traits for @p id. */
const FrameworkTraits &frameworkTraits(FrameworkId id);

/** Framework display name ("MNN", "LiteRT", ...). */
const char *frameworkName(FrameworkId id);

} // namespace flashmem::baselines

#endif // FLASHMEM_BASELINES_FRAMEWORK_HH
