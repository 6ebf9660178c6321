/** @file Failure-injection tests: malformed artifacts must die loudly. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/io.hpp"
#include "core/specialize.hpp"
#include "ml/mlp.hpp"
#include "util/rng.hpp"

namespace kodan::core {
namespace {

TEST(FailureInjection, LoadTableRejectsGarbage)
{
    std::stringstream stream("not-a-table 6 2");
    EXPECT_EXIT(loadTable(stream), ::testing::ExitedWithCode(1),
                "expected 'table'");
}

TEST(FailureInjection, LoadBundleRejectsWrongMagic)
{
    std::stringstream stream("kodan-pickle 1\n0.5 0\n");
    EXPECT_EXIT(loadBundle(stream), ::testing::ExitedWithCode(1),
                "expected 'kodan-bundle'");
}

TEST(FailureInjection, LoadBundleRejectsFutureVersion)
{
    std::stringstream stream("kodan-bundle 999\n0.5 0\n");
    EXPECT_EXIT(loadBundle(stream), ::testing::ExitedWithCode(1),
                "version mismatch");
}

TEST(FailureInjection, LoadTruncatedTableDies)
{
    // Second context missing entirely: fails the tag check.
    std::stringstream stream("table 6 2\ncontext 0 0.5 0.5 ocean 1\n"
                             "2 0 0.5 0.4 0.9 100\n");
    EXPECT_EXIT(loadTable(stream), ::testing::ExitedWithCode(1),
                "expected 'context'");
}

TEST(FailureInjection, LoadLogicRejectsGarbage)
{
    std::stringstream stream("selection-magic 6 1\n");
    EXPECT_EXIT(loadLogic(stream), ::testing::ExitedWithCode(1),
                "expected 'selection-logic'");
}

TEST(FailureInjection, MlpLoadRejectsBadHeader)
{
    std::stringstream stream("not-an-mlp 1\n");
    EXPECT_EXIT(ml::Mlp::load(stream), ::testing::ExitedWithCode(1),
                "bad header");
}

TEST(FailureInjection, MlpLoadRejectsTruncatedWeights)
{
    std::stringstream stream("mlp 1\n2 1 0 1 3\n0.5 0.25\n");
    EXPECT_EXIT(ml::Mlp::load(stream), ::testing::ExitedWithCode(1),
                "truncated");
}

TEST(FailureInjection, DeploymentLoadRejectsWrongMagic)
{
    std::stringstream stream("kodan-spacecraft 1 2\n");
    EXPECT_EXIT(DeploymentPackage::load(stream),
                ::testing::ExitedWithCode(1),
                "expected 'kodan-deployment'");
}

/**
 * A saved one-entry zoo (18 -> 4 -> 1, two linear layers) whose
 * entry carries @p quant_line in place of its "noquant" tag.
 */
std::string
zooWithQuantLine(const std::string &quant_line)
{
    ml::MlpConfig config;
    config.input_dim = 18;
    config.hidden = {4};
    util::Rng rng(3);
    SpecializedZoo zoo;
    zoo.entries.push_back(ZooEntry{ml::Mlp(config, rng), 1, -1, nullptr});
    std::ostringstream os;
    saveZoo(os, zoo);
    std::string text = os.str();
    const std::size_t at = text.find("noquant");
    text.replace(at, std::string("noquant").size(), quant_line);
    return text;
}

TEST(FailureInjection, LoadZooRejectsShortQuantScaleList)
{
    std::stringstream stream(zooWithQuantLine("quant 1 0.5"));
    EXPECT_EXIT(loadZoo(stream), ::testing::ExitedWithCode(1),
                "needs 2 quant scales");
}

TEST(FailureInjection, LoadZooRejectsHugeQuantScaleCount)
{
    // Rejected before the count sizes an allocation.
    std::stringstream stream(
        zooWithQuantLine("quant 1000000000000 0.5 0.5"));
    EXPECT_EXIT(loadZoo(stream), ::testing::ExitedWithCode(1),
                "needs 2 quant scales");
}

TEST(FailureInjection, LoadZooRejectsZeroQuantScale)
{
    std::stringstream stream(zooWithQuantLine("quant 2 0.5 0"));
    EXPECT_EXIT(loadZoo(stream), ::testing::ExitedWithCode(1),
                "not a finite positive number");
}

TEST(FailureInjection, LoadZooRejectsNegativeQuantScale)
{
    std::stringstream stream(zooWithQuantLine("quant 2 -0.25 0.5"));
    EXPECT_EXIT(loadZoo(stream), ::testing::ExitedWithCode(1),
                "not a finite positive number");
}

TEST(FailureInjection, LoadZooRejectsNaNQuantScale)
{
    std::stringstream stream(zooWithQuantLine("quant 2 0.5 nan"));
    EXPECT_EXIT(loadZoo(stream), ::testing::ExitedWithCode(1),
                "not a finite positive number");
}

TEST(FailureInjection, LoadZooAcceptsValidQuantScales)
{
    std::stringstream stream(zooWithQuantLine("quant 2 0.5 0.25"));
    const SpecializedZoo zoo = loadZoo(stream);
    ASSERT_EQ(zoo.entries.size(), 1U);
    ASSERT_NE(zoo.entries[0].quant, nullptr);
    EXPECT_EQ(zoo.entries[0].quant->actScales(),
              (std::vector<double>{0.5, 0.25}));
}

} // namespace
} // namespace kodan::core
