/**
 * @file
 * Table 1: per-tile processing time of the seven application
 * architectures on each hardware deployment target.
 *
 * Two parts:
 *  1. google-benchmark measurements of the kodan surrogate networks'
 *     per-tile inference cost on the host CPU (one tile = one batched
 *     forward pass over its 64 block rows, as the runtime infers) —
 *     demonstrating the tiers' relative cost ordering;
 *  2. the anchored device-time model (the actual Table 1 values used by
 *     every experiment), printed for reference.
 */

#include <benchmark/benchmark.h>

#include <iostream>

#include "common.hpp"
#include "core/types.hpp"
#include "data/tiler.hpp"
#include "hw/target.hpp"
#include "ml/mlp.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace kodan;

const ml::Mlp &
surrogate(int tier)
{
    static std::vector<ml::Mlp> nets = [] {
        util::Rng rng(42);
        std::vector<ml::Mlp> built;
        for (int t = 1; t <= hw::kAppCount; ++t) {
            built.emplace_back(core::Application{t}.surrogateConfig(),
                               rng);
        }
        return built;
    }();
    return nets[tier - 1];
}

void
perTileInference(benchmark::State &state)
{
    const int tier = static_cast<int>(state.range(0));
    const ml::Mlp &net = surrogate(tier);
    util::Rng rng(7);
    ml::Matrix rows(data::kBlocksPerTile, data::kBlockInputDim);
    for (auto &v : rows.data()) {
        v = rng.normal(0.0, 1.0);
    }
    ml::Matrix probs;
    for (auto _ : state) {
        net.forwardBatch(rows, probs);
        benchmark::DoNotOptimize(probs.data().data());
        benchmark::ClobberMemory();
    }
    state.counters["params"] =
        static_cast<double>(net.parameterCount());
}

} // namespace

BENCHMARK(perTileInference)->DenseRange(1, hw::kAppCount)->Name(
    "surrogate_per_tile");

int
main(int argc, char **argv)
{
    kodan::bench::initHarness(argc, argv);
    std::cout << "==================================================\n"
                 "Per-tile processing times (Table 1 of Kodan, "
                 "ASPLOS 2023)\n"
                 "==================================================\n\n";

    std::cout << "Anchored device model (ms per tile):\n";
    util::TablePrinter table({"app", "architecture", "1070Ti", "i7-7800",
                              "Orin15W", "surrogate params"});
    for (int tier = 1; tier <= hw::kAppCount; ++tier) {
        table.addRow(
            {"App " + std::to_string(tier), hw::CostModel::tierName(tier),
             util::TablePrinter::fmt(
                 1e3 * hw::CostModel::tileTime(tier,
                                               hw::Target::Gtx1070Ti),
                 1),
             util::TablePrinter::fmt(
                 1e3 * hw::CostModel::tileTime(tier, hw::Target::I7_7800),
                 1),
             util::TablePrinter::fmt(
                 1e3 * hw::CostModel::tileTime(tier, hw::Target::Orin15W),
                 1),
             util::TablePrinter::fmt(static_cast<long long>(
                 hw::CostModel::tierParamCount(tier)))});
    }
    table.print(std::cout);
    std::cout << "\nHost-measured surrogate inference (relative cost "
                 "ordering):\n";

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
