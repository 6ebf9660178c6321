/** @file Failure-injection tests: malformed artifacts must die loudly. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/io.hpp"
#include "core/specialize.hpp"
#include "ml/mlp.hpp"
#include "ml/transforms.hpp"
#include "telemetry/report.hpp"
#include "util/json.hpp"
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

TEST(FailureInjection, MlpLoadRejectsHugeHiddenCount)
{
    // A trillion declared hidden layers, none present: widths are
    // appended as they are read, never sized from the header.
    std::stringstream stream("mlp 1\n18 1 0 1000000000000");
    EXPECT_EXIT(ml::Mlp::load(stream), ::testing::ExitedWithCode(1),
                "truncated stream");
}

TEST(FailureInjection, MlpLoadRejectsHugeHiddenWidth)
{
    // A two-billion-wide layer with two weights present: the weights
    // are read before the net is sized.
    std::stringstream stream("mlp 1\n18 1 0 1 2000000000\n0.5 0.25\n");
    EXPECT_EXIT(ml::Mlp::load(stream), ::testing::ExitedWithCode(1),
                "truncated stream");
}

TEST(FailureInjection, MlpLoadRejectsNegativeHiddenWidth)
{
    std::stringstream stream("mlp 1\n18 1 0 1 -4\n0.5 0.25\n");
    EXPECT_EXIT(ml::Mlp::load(stream), ::testing::ExitedWithCode(1),
                "hidden width must be >= 1, got -4");
}

TEST(FailureInjection, MlpLoadRejectsNegativeInputDim)
{
    std::stringstream stream("mlp 1\n-18 1 0 0\n0.5 0.25\n");
    EXPECT_EXIT(ml::Mlp::load(stream), ::testing::ExitedWithCode(1),
                "input and output dims must be >= 1, got -18 and 1");
}

TEST(FailureInjection, DeploymentLoadRejectsWrongMagic)
{
    std::stringstream stream("kodan-spacecraft 1 2\n");
    EXPECT_EXIT(DeploymentPackage::load(stream),
                ::testing::ExitedWithCode(1),
                "expected 'kodan-deployment'");
}

TEST(FailureInjection, StandardizerLoadRejectsWrongTag)
{
    std::stringstream stream("normalizer 1\n0.5 0.25\n");
    EXPECT_EXIT(ml::Standardizer::load(stream),
                ::testing::ExitedWithCode(1), "expected 'standardizer'");
}

TEST(FailureInjection, StandardizerLoadRejectsHugeDim)
{
    // A trillion declared dimensions, one pair present: pairs are
    // appended as they are read, never sized from the header.
    std::stringstream stream("standardizer 1000000000000\n0.5 0.25\n");
    EXPECT_EXIT(ml::Standardizer::load(stream),
                ::testing::ExitedWithCode(1), "truncated stream");
}

TEST(FailureInjection, StandardizerLoadRejectsNonPositiveStd)
{
    for (const char *text :
         {"standardizer 2\n0 1\n0 0\n", "standardizer 2\n0 1\n0 -2\n"}) {
        std::stringstream stream(text);
        EXPECT_EXIT(ml::Standardizer::load(stream),
                    ::testing::ExitedWithCode(1),
                    "std of dimension 1 is not a finite positive number")
            << text;
    }
}

/** A standardizer fit to @p dim columns: finite, positive stds. */
ml::Standardizer
fittedScaler(std::size_t dim)
{
    ml::Matrix x(2, dim);
    for (std::size_t d = 0; d < dim; ++d) {
        x.at(1, d) = 1.0 + static_cast<double>(d);
    }
    ml::Standardizer scaler;
    scaler.fit(x);
    return scaler;
}

/** A saved context engine: @p tag and @p contexts head an
 *  @p scaler_dim-wide scaler and a @p net_in -> 8 -> @p net_out
 *  softmax net. */
std::string
engineText(const std::string &tag, int contexts, std::size_t scaler_dim,
           int net_in, int net_out)
{
    ml::MlpConfig config;
    config.input_dim = net_in;
    config.hidden = {8};
    config.output_dim = net_out;
    config.output = ml::OutputKind::Softmax;
    util::Rng rng(5);
    std::ostringstream os;
    os << tag << ' ' << contexts << '\n';
    fittedScaler(scaler_dim).save(os);
    ml::Mlp(config, rng).save(os);
    return os.str();
}

TEST(FailureInjection, EngineLoadRejectsWrongTag)
{
    std::stringstream stream(engineText("not-an-engine", 7, 20, 20, 2));
    EXPECT_EXIT(ContextEngine::load(stream), ::testing::ExitedWithCode(1),
                "expected 'context-engine'");
}

TEST(FailureInjection, EngineLoadRejectsNoContexts)
{
    std::stringstream stream(engineText("context-engine", 0, 20, 20, 1));
    EXPECT_EXIT(ContextEngine::load(stream), ::testing::ExitedWithCode(1),
                "needs at least one context");
}

TEST(FailureInjection, EngineLoadRejectsScalerWidth)
{
    std::stringstream stream(engineText("context-engine", 2, 18, 20, 2));
    EXPECT_EXIT(ContextEngine::load(stream), ::testing::ExitedWithCode(1),
                "scaler has 18 dimensions, the engine input has 20");
}

TEST(FailureInjection, EngineLoadRejectsNetInputWidth)
{
    std::stringstream stream(engineText("context-engine", 2, 20, 18, 2));
    EXPECT_EXIT(ContextEngine::load(stream), ::testing::ExitedWithCode(1),
                "net takes 18 inputs, the engine input has 20");
}

TEST(FailureInjection, EngineLoadRejectsContextCountOtherThanNetOutputs)
{
    std::stringstream stream(engineText("context-engine", 7, 20, 20, 2));
    EXPECT_EXIT(ContextEngine::load(stream), ::testing::ExitedWithCode(1),
                "net has 2 outputs for 7 contexts");
}

/**
 * A saved one-entry zoo with a @p scaler_dim-wide scaler, reference
 * @p reference and an entry net @p net_in -> 4 -> @p net_out (two
 * linear layers), whose entry carries @p quant_line in place of its
 * "noquant" tag.
 */
std::string
zooText(const std::string &quant_line, std::size_t scaler_dim = 18,
        int reference = 0, int net_in = 18, int net_out = 1)
{
    ml::MlpConfig config;
    config.input_dim = net_in;
    config.hidden = {4};
    config.output_dim = net_out;
    util::Rng rng(3);
    SpecializedZoo zoo;
    zoo.scaler = fittedScaler(scaler_dim);
    zoo.reference = reference;
    zoo.entries.push_back(ZooEntry{ml::Mlp(config, rng), 1, -1, nullptr});
    std::ostringstream os;
    saveZoo(os, zoo);
    std::string text = os.str();
    const std::size_t at = text.find("noquant");
    text.replace(at, std::string("noquant").size(), quant_line);
    return text;
}

TEST(FailureInjection, LoadZooRejectsScalerWidth)
{
    std::stringstream stream(zooText("noquant", 20));
    EXPECT_EXIT(loadZoo(stream), ::testing::ExitedWithCode(1),
                "zoo scaler has 20 dimensions, model inputs have 18");
}

TEST(FailureInjection, LoadZooRejectsEntryNetShape)
{
    for (const auto &[in, out] : {std::pair{20, 1}, std::pair{18, 2}}) {
        std::stringstream stream(zooText("noquant", 18, 0, in, out));
        EXPECT_EXIT(loadZoo(stream), ::testing::ExitedWithCode(1),
                    "zoo entry 0 maps " + std::to_string(in) +
                        " inputs to " + std::to_string(out) +
                        " outputs; models map 18 to 1");
    }
}

TEST(FailureInjection, LoadZooRejectsReferenceOutsideEntries)
{
    for (int reference : {1, -1}) {
        std::stringstream stream(zooText("noquant", 18, reference));
        EXPECT_EXIT(loadZoo(stream), ::testing::ExitedWithCode(1),
                    "zoo reference " + std::to_string(reference) +
                        " indexes no entry of 1");
    }
}

TEST(FailureInjection, LoadLogicRejectsTilesPerSideBelowOne)
{
    for (const char *text : {"selection-logic 0 1\n0 -1\n",
                             "selection-logic -3 1\n0 -1\n"}) {
        std::stringstream stream(text);
        EXPECT_EXIT(loadLogic(stream), ::testing::ExitedWithCode(1),
                    "per side; needs at least 1")
            << text;
    }
}

TEST(FailureInjection, LoadZooRejectsShortQuantScaleList)
{
    std::stringstream stream(zooText("quant 1 0.5"));
    EXPECT_EXIT(loadZoo(stream), ::testing::ExitedWithCode(1),
                "needs 2 quant scales");
}

TEST(FailureInjection, LoadZooRejectsHugeQuantScaleCount)
{
    // Rejected before the count sizes an allocation.
    std::stringstream stream(
        zooText("quant 1000000000000 0.5 0.5"));
    EXPECT_EXIT(loadZoo(stream), ::testing::ExitedWithCode(1),
                "needs 2 quant scales");
}

TEST(FailureInjection, LoadZooRejectsZeroQuantScale)
{
    std::stringstream stream(zooText("quant 2 0.5 0"));
    EXPECT_EXIT(loadZoo(stream), ::testing::ExitedWithCode(1),
                "not a finite positive number");
}

TEST(FailureInjection, LoadZooRejectsNegativeQuantScale)
{
    std::stringstream stream(zooText("quant 2 -0.25 0.5"));
    EXPECT_EXIT(loadZoo(stream), ::testing::ExitedWithCode(1),
                "not a finite positive number");
}

TEST(FailureInjection, LoadZooRejectsNaNQuantScale)
{
    std::stringstream stream(zooText("quant 2 0.5 nan"));
    EXPECT_EXIT(loadZoo(stream), ::testing::ExitedWithCode(1),
                "not a finite positive number");
}

/**
 * A saved deployment for @p target: a logic that discards context 0,
 * runs zoo model @p model on context 1 and downlinks any further
 * contexts (@p logic_contexts in all), an untrained two-context
 * engine, and the valid one-entry zoo of zooText().
 */
std::string
deploymentText(int target, int model, int logic_contexts = 2)
{
    SelectionLogic logic;
    logic.per_context = {Action{ActionKind::Discard, -1},
                         Action{ActionKind::RunModel, model}};
    logic.per_context.resize(static_cast<std::size_t>(logic_contexts),
                             Action{ActionKind::Downlink, -1});
    std::ostringstream os;
    os << "kodan-deployment 2 " << target << '\n';
    saveLogic(os, logic);
    os << engineText("context-engine", 2, ContextEngine::kInputDim,
                     ContextEngine::kInputDim, 2);
    os << zooText("noquant");
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

TEST(FailureInjection, DeploymentLoadRejectsLogicContextCountMismatch)
{
    // The runtime indexes the logic by engine context id; a short
    // logic would be read past its end on the first frame.
    for (int contexts : {1, 3}) {
        std::stringstream stream(deploymentText(0, 0, contexts));
        EXPECT_EXIT(DeploymentPackage::load(stream),
                    ::testing::ExitedWithCode(1),
                    "logic has " + std::to_string(contexts) +
                        " contexts, the engine has 2");
    }
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

    // The parts on their own: the engine and zoo pass every width and
    // index check the deployment's loaders apply, and save back as
    // read.
    const std::string engine_text =
        engineText("context-engine", 2, ContextEngine::kInputDim,
                   ContextEngine::kInputDim, 2);
    std::stringstream engine_in(engine_text);
    const ContextEngine engine = ContextEngine::load(engine_in);
    EXPECT_EQ(engine.contextCount(), 2);
    std::ostringstream engine_out;
    engine.save(engine_out);
    EXPECT_EQ(engine_out.str(), engine_text);
    const std::string zoo_text = zooText("noquant");
    std::stringstream zoo_in(zoo_text);
    const SpecializedZoo zoo = loadZoo(zoo_in);
    EXPECT_EQ(zoo.scaler.mean().size(),
              static_cast<std::size_t>(data::kBlockInputDim));
    std::ostringstream zoo_out;
    saveZoo(zoo_out, zoo);
    EXPECT_EQ(zoo_out.str(), zoo_text);
}

TEST(FailureInjection, LoadZooAcceptsValidQuantScales)
{
    std::stringstream stream(zooText("quant 2 0.5 0.25"));
    const SpecializedZoo zoo = loadZoo(stream);
    ASSERT_EQ(zoo.entries.size(), 1U);
    ASSERT_NE(zoo.entries[0].quant, nullptr);
    EXPECT_EQ(zoo.entries[0].quant->actScales(),
              (std::vector<double>{0.5, 0.25}));
}

/** @p depth nested arrays around a number: "[[[...1...]]]". */
std::string
nestedArrays(int depth)
{
    return std::string(static_cast<std::size_t>(depth), '[') + "1" +
           std::string(static_cast<std::size_t>(depth), ']');
}

TEST(FailureInjection, JsonRejectsNestingBeyondTheDepthCap)
{
    namespace json = util::json;
    json::Value value;
    std::string error;
    ASSERT_TRUE(json::parse(nestedArrays(json::kMaxDepth), value, &error))
        << error;
    EXPECT_FALSE(json::parse(nestedArrays(json::kMaxDepth + 1), value,
                             &error));
    EXPECT_NE(error.find("nesting deeper than"), std::string::npos)
        << error;

    // Far past the cap, and unterminated: each level would be one more
    // recursion without it. Objects nest through their member values.
    const std::string deep_arrays(200000, '[');
    std::string deep_objects;
    for (int i = 0; i < 100000; ++i) {
        deep_objects += "{\"k\":";
    }
    for (const std::string &text : {deep_arrays, deep_objects}) {
        error.clear();
        EXPECT_FALSE(json::parse(text, value, &error));
        EXPECT_NE(error.find("nesting deeper than"), std::string::npos)
            << error;
        std::vector<json::Value> lines;
        error.clear();
        EXPECT_FALSE(json::parseLines("{}\n" + text + "\n", lines, &error));
        EXPECT_NE(error.find("line 2: nesting deeper than"),
                  std::string::npos)
            << error;
    }
}

TEST(FailureInjection, ReportRejectsSnapshotCounterOutOfRange)
{
    namespace report = telemetry::report;
    report::Snapshot snapshot;
    std::string error;
    EXPECT_FALSE(report::parse(
        R"({"metrics": [{"name": "a.count", "type": "counter",)"
        R"( "value": 1e300}]})",
        snapshot, &error));
    EXPECT_NE(error.find("\"value\""), std::string::npos) << error;
}

TEST(FailureInjection, ReportRejectsNegativeJournalSeq)
{
    namespace report = telemetry::report;
    report::JournalDoc journal;
    std::string error;
    EXPECT_FALSE(report::parse(
        "{\"kodan_journal\": 1, \"events\": 1, \"dropped\": 0}\n"
        "{\"seq\": -1, \"region\": 1, \"slot\": 0, \"ord\": 0, "
        "\"type\": \"runtime.batch.begin\", \"fields\": {}}\n",
        journal, &error));
    EXPECT_NE(error.find("\"seq\""), std::string::npos) << error;
}

TEST(FailureInjection, ReportRejectsFractionalSeriesBinCount)
{
    namespace report = telemetry::report;
    report::TimeSeriesDoc series;
    std::string error;
    EXPECT_FALSE(report::parse(
        R"({"kodan_timeseries": 1, "series": [{"name": "sim.dvd",)"
        R"( "bin_s": 1800, "dropped_bins": 0, "bins": [{"bin": 0,)"
        R"( "t_s": 0, "count": 1.5, "sum": 1, "min": 1, "max": 1}]}]})",
        series, &error));
    EXPECT_NE(error.find("\"count\""), std::string::npos) << error;
}

TEST(FailureInjection, ReportRejectsProfileSpanCallsBeyondUint64)
{
    namespace report = telemetry::report;
    report::ProfileDoc profile;
    std::string error;
    EXPECT_FALSE(report::parse(
        R"({"kodan_profile": 1, "period_us": 1003, "samples": 0,)"
        R"( "frames": [], "spans": {"source": "rusage", "rows": [)"
        R"({"name": "ml.kernels.gemm", "calls": 2e19,)"
        R"( "task_clock_ns": 1}]}})",
        profile, &error));
    EXPECT_NE(error.find("\"calls\""), std::string::npos) << error;
}

} // namespace
} // namespace kodan::core
