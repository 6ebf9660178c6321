/** @file Round-trip tests for the uplinkable deployment package. */

#include <gtest/gtest.h>

#include <sstream>

#include "core/kodan.hpp"
#include "fixture.hpp"

namespace kodan::core {
namespace {

using kodan::testing::SharedPipeline;

/** Build a deployment package from the shared fixture. */
DeploymentPackage
makePackage()
{
    const auto &pipeline = SharedPipeline::instance();
    const auto profile = SystemProfile::landsat8(
        hw::Target::Orin15W, pipeline.shared.prevalence);
    return pipeline.transformer.makeDeployment(pipeline.shared,
                                               pipeline.app4, profile);
}

TEST(DeploymentPackage, ContainsSelectedLogic)
{
    const auto package = makePackage();
    EXPECT_EQ(package.target, hw::Target::Orin15W);
    EXPECT_EQ(static_cast<int>(package.logic.per_context.size()),
              package.engine.contextCount());
    EXPECT_FALSE(package.zoo.entries.empty());
}

TEST(DeploymentPackage, SaveLoadRoundTrip)
{
    const auto package = makePackage();
    std::stringstream stream;
    package.save(stream);
    const auto loaded = DeploymentPackage::load(stream);

    EXPECT_EQ(loaded.target, package.target);
    EXPECT_EQ(loaded.logic.tiles_per_side, package.logic.tiles_per_side);
    ASSERT_EQ(loaded.logic.per_context.size(),
              package.logic.per_context.size());
    EXPECT_EQ(loaded.zoo.entries.size(), package.zoo.entries.size());
    EXPECT_EQ(loaded.zoo.reference, package.zoo.reference);
    EXPECT_EQ(loaded.engine.contextCount(),
              package.engine.contextCount());
}

TEST(DeploymentPackage, LoadedRuntimeMatchesOriginal)
{
    const auto &pipeline = SharedPipeline::instance();
    const auto package = makePackage();
    std::stringstream stream;
    package.save(stream);
    const auto loaded = DeploymentPackage::load(stream);

    const Runtime original(package.logic, &package.engine, &package.zoo,
                           package.target);
    const Runtime restored(loaded.logic, &loaded.engine, &loaded.zoo,
                           loaded.target);
    for (int i = 0; i < 4; ++i) {
        const auto &frame = pipeline.shared.val[i];
        const auto a = original.processFrame(frame);
        const auto b = restored.processFrame(frame);
        EXPECT_DOUBLE_EQ(a.compute_time, b.compute_time);
        EXPECT_NEAR(a.product_fraction, b.product_fraction, 1e-12);
        EXPECT_EQ(a.tiles_discarded, b.tiles_discarded);
        EXPECT_EQ(a.tiles_downlinked, b.tiles_downlinked);
        EXPECT_EQ(a.tiles_modeled, b.tiles_modeled);
        EXPECT_EQ(a.cells.tp(), b.cells.tp());
        EXPECT_EQ(a.cells.fp(), b.cells.fp());
    }
}

TEST(DeploymentPackage, LoadedEngineClassifiesIdentically)
{
    const auto &pipeline = SharedPipeline::instance();
    const auto package = makePackage();
    std::stringstream stream;
    package.engine.save(stream);
    const auto loaded_engine = ContextEngine::load(stream);

    const data::Tiler tiler(6);
    const auto tiles = tiler.tile(pipeline.shared.val.front());
    std::vector<int> loaded_contexts;
    std::vector<int> contexts;
    loaded_engine.classifyBatch(tiles, loaded_contexts);
    package.engine.classifyBatch(tiles, contexts);
    EXPECT_EQ(loaded_contexts, contexts);
}

TEST(DeploymentPackage, LoadedZooPredictsIdentically)
{
    const auto &pipeline = SharedPipeline::instance();
    const auto package = makePackage();
    std::stringstream stream;
    saveZoo(stream, package.zoo);
    const auto loaded_zoo = loadZoo(stream);

    const data::Tiler tiler(6);
    const auto tiles = tiler.tile(pipeline.shared.val[1]);
    constexpr auto kBlocks = static_cast<std::size_t>(data::kBlocksPerTile);
    std::vector<double> rows(kBlocks * data::kBlockInputDim);
    package.zoo.tileInputs(tiles[0], rows.data());
    std::vector<double> loaded_probs(kBlocks);
    std::vector<double> probs(kBlocks);
    for (std::size_t e = 0; e < package.zoo.entries.size(); ++e) {
        const int entry = static_cast<int>(e);
        loaded_zoo.predictRows(entry, rows.data(), kBlocks,
                               loaded_probs.data());
        package.zoo.predictRows(entry, rows.data(), kBlocks, probs.data());
        for (std::size_t b = 0; b < kBlocks; ++b) {
            EXPECT_NEAR(loaded_probs[b], probs[b], 1e-12);
        }
    }
}

} // namespace
} // namespace kodan::core
