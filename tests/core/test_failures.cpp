/** @file Failure-injection tests: malformed artifacts must die loudly. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/engine.hpp"
#include "core/io.hpp"
#include "core/specialize.hpp"
#include "ml/mlp.hpp"
#include "ml/transforms.hpp"
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

TEST(FailureInjection, LoadTableRejectsHugeContextCount)
{
    // Two billion declared contexts, one present: contexts are appended
    // as they are read, never sized from the header.
    std::stringstream stream("table 6 2000000000\n"
                             "context 0 0.5 0.5 ocean 0\n");
    EXPECT_EXIT(loadTable(stream), ::testing::ExitedWithCode(1),
                "expected 'context'");
}

TEST(FailureInjection, LoadTableRejectsHugeActionCount)
{
    // A trillion declared actions, one present: reading stops at the
    // end of the input instead of appending defaults.
    std::stringstream stream("table 6 1\n"
                             "context 0 0.5 0.5 ocean 1000000000000\n"
                             "2 0 0.5 0.4 0.9 100 0\n");
    EXPECT_EXIT(loadTable(stream), ::testing::ExitedWithCode(1),
                "truncated table");
}

TEST(FailureInjection, LoadTableRejectsOutOfRangeActionKind)
{
    std::stringstream stream("table 6 1\ncontext 0 0.5 0.5 ocean 1\n"
                             "3 0 0.5 0.4 0.9 100 0\n");
    EXPECT_EXIT(loadTable(stream), ::testing::ExitedWithCode(1),
                "action kind 3 is out of range");
}

TEST(FailureInjection, LoadLogicRejectsGarbage)
{
    std::stringstream stream("selection-magic 6 1\n");
    EXPECT_EXIT(loadLogic(stream), ::testing::ExitedWithCode(1),
                "expected 'selection-logic'");
}

TEST(FailureInjection, LoadLogicRejectsHugeContextCount)
{
    std::stringstream stream("selection-logic 6 1000000000000\n0 -1\n");
    EXPECT_EXIT(loadLogic(stream), ::testing::ExitedWithCode(1),
                "truncated selection logic");
}

TEST(FailureInjection, LoadLogicRejectsOutOfRangeActionKind)
{
    std::stringstream stream("selection-logic 6 2\n0 -1\n-1 0\n");
    EXPECT_EXIT(loadLogic(stream), ::testing::ExitedWithCode(1),
                "action kind -1 is out of range");
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

/**
 * A saved deployment for @p target: a two-context logic that discards
 * context 0 and runs zoo model @p model on context 1, an untrained
 * two-context engine, and the one-entry zoo of zooWithQuantLine().
 */
std::string
deploymentText(int target, int model)
{
    SelectionLogic logic;
    logic.per_context = {Action{ActionKind::Discard, -1},
                         Action{ActionKind::RunModel, model}};
    ml::MlpConfig config;
    config.input_dim = ContextEngine::kInputDim;
    config.output_dim = 2;
    config.output = ml::OutputKind::Softmax;
    util::Rng rng(5);
    std::ostringstream os;
    os << "kodan-deployment 2 " << target << '\n';
    saveLogic(os, logic);
    os << "context-engine 2\n";
    ml::Standardizer().save(os);
    ml::Mlp(config, rng).save(os);
    os << zooWithQuantLine("noquant");
    return os.str();
}

TEST(FailureInjection, DeploymentLoadRejectsOutOfRangeTarget)
{
    std::stringstream stream(deploymentText(hw::kTargetCount, 0));
    EXPECT_EXIT(DeploymentPackage::load(stream),
                ::testing::ExitedWithCode(1),
                "deployment target 3 is out of range");
}

TEST(FailureInjection, DeploymentLoadRejectsModelOutsideZoo)
{
    std::stringstream stream(deploymentText(0, 1));
    EXPECT_EXIT(DeploymentPackage::load(stream),
                ::testing::ExitedWithCode(1),
                "logic runs model 1 of a 1-entry zoo");
}

TEST(FailureInjection, ValidTableAndDeploymentRoundTrip)
{
    const std::string table_text = "table 6 2\n"
                                   "context 0 0.25 0.5 ocean 2\n"
                                   "0 -1 0 0 1 0 0\n"
                                   "2 0 0.5 0.25 0.75 100 1\n"
                                   "context 1 0.75 0.5 - 1\n"
                                   "1 -1 1 0.5 1 0 0\n";
    std::stringstream table_in(table_text);
    const ContextActionTable table = loadTable(table_in);
    ASSERT_EQ(table.contextCount(), 2);
    EXPECT_EQ(table.actions[0][1], (Action{ActionKind::RunModel, 0}));
    EXPECT_TRUE(table.stats[0][1].quantized);
    std::ostringstream table_out;
    saveTable(table_out, table);
    EXPECT_EQ(table_out.str(), table_text);

    const std::string package_text =
        deploymentText(static_cast<int>(hw::Target::Orin15W), 0);
    std::stringstream package_in(package_text);
    const DeploymentPackage package = DeploymentPackage::load(package_in);
    EXPECT_EQ(package.target, hw::Target::Orin15W);
    EXPECT_EQ(package.logic.per_context[1],
              (Action{ActionKind::RunModel, 0}));
    std::ostringstream package_out;
    package.save(package_out);
    EXPECT_EQ(package_out.str(), package_text);
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
