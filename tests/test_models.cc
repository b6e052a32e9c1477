/**
 * @file
 * Tests for the model zoo: every built model must match the published
 * Table-6 characteristics (parameters, MACs, lowered layer count) within
 * tolerance, validate structurally, and expose streamable weights.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/op.hh"
#include "models/model_zoo.hh"

namespace flashmem::models {

/** gtest prints a ModelId parameter as its integer value, so the
 * ZooGraph ctest names are stable across builds. */
void
PrintTo(ModelId id, std::ostream *os)
{
    *os << static_cast<int>(id);
}

namespace {

using graph::Graph;
using graph::OpClass;
using graph::OpKind;

/** Test-name suffix: the model's abbreviation, non-alphanumerics
 * replaced by '_'. */
std::string
abbrTestName(ModelId id)
{
    std::string name = modelSpec(id).abbr;
    for (auto &c : name) {
        if (!isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

/** Table-6 size checks, parameterized on the published spec. */
class ZooModel : public ::testing::TestWithParam<ModelSpec>
{
  protected:
    Graph
    build() const
    {
        return buildModel(GetParam().id);
    }
};

/** Graph-structure checks, parameterized on the model id. */
class ZooGraph : public ::testing::TestWithParam<ModelId>
{
  protected:
    Graph
    build() const
    {
        return buildModel(GetParam());
    }
};

TEST_P(ZooModel, ParamsMatchPaperTable6)
{
    auto g = build();
    double params_m = static_cast<double>(g.totalParams()) / 1e6;
    double rel = params_m / GetParam().paperParamsM;
    EXPECT_GT(rel, 0.88) << "params " << params_m << "M vs paper "
                         << GetParam().paperParamsM << "M";
    EXPECT_LT(rel, 1.12);
}

TEST_P(ZooModel, MacsMatchPaperTable6)
{
    auto g = build();
    double macs_g = static_cast<double>(g.totalMacs()) / 1e9;
    double rel = macs_g / GetParam().paperMacsG;
    EXPECT_GT(rel, 0.75) << "MACs " << macs_g << "G vs paper "
                         << GetParam().paperMacsG << "G";
    EXPECT_LT(rel, 1.25);
}

TEST_P(ZooModel, LayerCountMatchesPaperTable6)
{
    auto g = build();
    double rel = static_cast<double>(g.layerCount()) /
                 GetParam().paperLayers;
    EXPECT_GT(rel, 0.93) << "layers " << g.layerCount() << " vs paper "
                         << GetParam().paperLayers;
    EXPECT_LT(rel, 1.07);
}

INSTANTIATE_TEST_SUITE_P(
    Table6, ZooModel, ::testing::ValuesIn(modelZoo()),
    [](const ::testing::TestParamInfo<ModelSpec> &info) {
        return abbrTestName(info.param.id);
    });

std::vector<ModelId>
zooIds()
{
    std::vector<ModelId> ids;
    for (const auto &spec : modelZoo())
        ids.push_back(spec.id);
    return ids;
}

TEST_P(ZooGraph, ValidatesStructurally)
{
    auto g = build();
    EXPECT_TRUE(g.validate(false));
}

TEST_P(ZooGraph, WeightsConsumedInOrder)
{
    auto g = build();
    for (const auto &w : g.weights()) {
        ASSERT_GE(w.consumer, 0);
        ASSERT_LT(w.consumer,
                  static_cast<graph::NodeId>(g.layerCount()));
        // The consumer node must list this weight.
        const auto &ws = g.node(w.consumer).weights;
        EXPECT_NE(std::find(ws.begin(), ws.end(), w.id), ws.end());
    }
}

TEST_P(ZooGraph, HasAllThreeOperatorClasses)
{
    auto g = build();
    std::set<OpClass> classes;
    for (const auto &n : g.nodes())
        classes.insert(graph::opClass(n.kind));
    // Every evaluated network exercises elemental + reusable +
    // hierarchical operators (the premise of the capacity model).
    EXPECT_TRUE(classes.count(OpClass::Elemental));
    EXPECT_TRUE(classes.count(OpClass::Reusable));
    EXPECT_TRUE(classes.count(OpClass::Hierarchical));
}

TEST_P(ZooGraph, WeightBytesConsistentWithPrecision)
{
    auto g = build();
    EXPECT_EQ(g.totalWeightBytes(),
              static_cast<Bytes>(g.totalParams()) * 2); // fp16
    auto g32 = buildModel(GetParam(), Precision::FP32);
    EXPECT_EQ(g32.totalWeightBytes(),
              static_cast<Bytes>(g32.totalParams()) * 4);
}

INSTANTIATE_TEST_SUITE_P(
    Table6, ZooGraph, ::testing::ValuesIn(zooIds()),
    [](const ::testing::TestParamInfo<ModelId> &info) {
        return abbrTestName(info.param);
    });

TEST(ModelZoo, SpecLookupRoundTrip)
{
    for (const auto &spec : modelZoo()) {
        EXPECT_EQ(modelSpec(spec.id).abbr, spec.abbr);
        EXPECT_EQ(modelIdFromAbbr(spec.abbr), spec.id);
    }
}

TEST(ModelZoo, ElevenModels)
{
    EXPECT_EQ(modelZoo().size(), 11u);
}

TEST(ModelZoo, GptFamilyScalesMonotonically)
{
    auto s = buildModel(ModelId::GPTNeoS);
    auto m = buildModel(ModelId::GPTNeo1_3B);
    auto l = buildModel(ModelId::GPTNeo2_7B);
    EXPECT_LT(s.totalParams(), m.totalParams());
    EXPECT_LT(m.totalParams(), l.totalParams());
    EXPECT_LT(s.totalMacs(), m.totalMacs());
    EXPECT_LT(m.totalMacs(), l.totalMacs());
    EXPECT_LT(s.layerCount(), m.layerCount());
    EXPECT_LT(m.layerCount(), l.layerCount());
}

TEST(ModelZoo, CausalModelsContainMaskOps)
{
    auto g = buildModel(ModelId::GPTNeoS);
    int softmax = 0;
    for (const auto &n : g.nodes())
        softmax += (n.kind == OpKind::Softmax);
    EXPECT_EQ(softmax, 12); // one per block
}

TEST(SyntheticTransformer, Vit8BParams)
{
    SyntheticTransformerCfg cfg;
    cfg.name = "vit_8b";
    cfg.blocks = 40;
    cfg.dModel = 4096;
    cfg.heads = 32;
    cfg.vocab = 1000;
    auto g = buildSyntheticTransformer(cfg, Precision::FP16);
    double params_b = static_cast<double>(g.totalParams()) / 1e9;
    EXPECT_GT(params_b, 7.2);
    EXPECT_LT(params_b, 8.8);
}

TEST(SyntheticTransformer, Llama13BParams)
{
    SyntheticTransformerCfg cfg;
    cfg.name = "llama2_13b";
    cfg.blocks = 40;
    cfg.dModel = 5120;
    cfg.heads = 40;
    cfg.ffnHidden = 13824;
    cfg.llamaStyle = true;
    auto g = buildSyntheticTransformer(cfg, Precision::FP16);
    double params_b = static_cast<double>(g.totalParams()) / 1e9;
    EXPECT_GT(params_b, 11.7);
    EXPECT_LT(params_b, 14.3);
}

TEST(SyntheticTransformer, Llama70BGroupedQueryAttention)
{
    SyntheticTransformerCfg cfg;
    cfg.name = "llama2_70b";
    cfg.blocks = 80;
    cfg.dModel = 8192;
    cfg.heads = 64;
    cfg.ffnHidden = 28672;
    cfg.kvDim = 1024;
    cfg.llamaStyle = true;
    auto g = buildSyntheticTransformer(cfg, Precision::FP16);
    double params_b = static_cast<double>(g.totalParams()) / 1e9;
    EXPECT_GT(params_b, 63.0);
    EXPECT_LT(params_b, 77.0);
}

TEST(SyntheticTransformer, LlamaStyleUsesRmsNormAndGatedFfn)
{
    SyntheticTransformerCfg cfg;
    cfg.blocks = 2;
    cfg.dModel = 256;
    cfg.heads = 4;
    cfg.llamaStyle = true;
    auto g = buildSyntheticTransformer(cfg, Precision::FP16);
    int rms = 0, mul = 0, ln = 0;
    for (const auto &n : g.nodes()) {
        rms += (n.kind == OpKind::RMSNorm);
        mul += (n.kind == OpKind::Mul);
        ln += (n.kind == OpKind::LayerNorm);
    }
    EXPECT_EQ(rms, 5); // 2 per block + final
    EXPECT_EQ(ln, 0);
    EXPECT_GE(mul, 2); // gated FFN per block
}

} // namespace
} // namespace flashmem::models
