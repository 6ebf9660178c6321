/**
 * @file
 * frames_fp64 / frames_int8: the deployed frame path.
 *
 * Set-up runs the one-time step for the tier-4 app on Orin 15 W under
 * the Landsat-8 profile, uplinks the package through
 * DeploymentPackage::save/load, and builds a one-worker
 * PipelineRuntime. The measured loop then pushes 8-frame groups (the
 * pipeline's default burst) from a pool of seed-generated frames and
 * checks every report bit for bit against Runtime::processFrames on
 * the same group, computed untimed during set-up.
 *
 * The traced run alternates, group by group, one untraced
 * PipelineRuntime call with a replay of the same frames through the
 * layers' public entry points (Tiler::statsInto,
 * ContextEngine::classifyBatch, Tiler::decimate,
 * SpecializedZoo::tileInputs / predictRows with
 * Runtime::keepFromProbs, Runtime::stageElide), timing each call. The
 * replay infers as the pipeline's burst stage does: one predictRows
 * call per model over the modeled tiles of all frames in the group.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/io.hpp"
#include "core/runtime.hpp"
#include "core/transformer.hpp"
#include "data/generator.hpp"
#include "data/geomodel.hpp"
#include "data/tiler.hpp"
#include "measure.hpp"
#include "pipeline/pipeline_runtime.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace kodan;

/** Frames per call: the pipeline's default burst. */
constexpr std::size_t kGroupFrames = 8;
/** Groups in the pool: 56 frames of ~310 KB each, far more than one
 *  core's L2, as fresh sensor frames would be. An odd count keeps the
 *  median call inside one group rather than between two. */
constexpr std::size_t kGroups = 7;
/** Seed of the pool's fixed scene centres. */
constexpr std::uint64_t kSceneSeed = 0x5CE7E5ULL;
/** Threads generating the pool (untimed). */
constexpr std::size_t kPoolThreads = 4;
/** Set-ups per run (setup_s is their median), and measured windows. */
constexpr int kSetupReps = 3;
/** Calls each measured window makes at least. */
constexpr std::size_t kMinWindowCalls = 1000;

/** The canonical transform options of the deployment (as
 *  bench_dataplane). */
core::TransformOptions
transformOptions()
{
    core::TransformOptions options;
    options.train_frames = 40;
    options.val_frames = 24;
    options.specialize.max_train_blocks = 16000;
    return options;
}

/** The deployed state the measured loop runs against. */
struct Deployment
{
    std::unique_ptr<core::DeploymentPackage> package;
    std::unique_ptr<core::Runtime> runtime;
    std::unique_ptr<pipeline::PipelineRuntime> pipeline;
    /** The selected plan's projected DVD. */
    double dvd = 0.0;
    /** The uplinked bytes (set-up determinism check). */
    std::string bytes;
};

/** Wall time of each set-up step (s). */
struct SetupTimes
{
    double prepare = 0.0;
    double app = 0.0;
    double select = 0.0;
    double package = 0.0;
    double construct = 0.0;
    double total = 0.0;
};

/**
 * Run the deployment's set-up, timing each step. @p inspect, when
 * given, sees the dataset artifacts after the timed region.
 */
std::unique_ptr<Deployment>
setUp(SetupTimes &times,
      const std::function<void(const core::DataArtifacts &)> &inspect = {})
{
    auto dep = std::make_unique<Deployment>();
    const double t0 = nowSeconds();
    const core::Transformer transformer(transformOptions());
    const data::GeoModel world;
    const core::DataArtifacts shared = transformer.prepareData(world);
    const double t1 = nowSeconds();
    const auto profile = core::SystemProfile::landsat8(
        hw::Target::Orin15W, shared.prevalence);
    const core::AppArtifacts artifacts =
        transformer.transformApp(core::Application{4}, shared);
    const double t2 = nowSeconds();
    const core::SweepResult selected =
        transformer.select(artifacts, profile);
    const double t3 = nowSeconds();
    std::stringstream link;
    core::DeploymentPackage{selected.logic, *shared.engine, artifacts.zoo,
                            hw::Target::Orin15W}
        .save(link);
    dep->package = std::make_unique<core::DeploymentPackage>(
        core::DeploymentPackage::load(link));
    const double t4 = nowSeconds();
    const core::DeploymentPackage &pkg = *dep->package;
    dep->runtime = std::make_unique<core::Runtime>(
        pkg.logic, &pkg.engine, &pkg.zoo, pkg.target);
    pipeline::PipelineRuntime::Options options;
    options.workers = 1;
    options.burst = kGroupFrames;
    dep->pipeline =
        std::make_unique<pipeline::PipelineRuntime>(*dep->runtime, options);
    const double t5 = nowSeconds();

    dep->dvd = selected.outcome.dvd;
    dep->bytes = link.str();
    if (inspect) {
        inspect(shared);
    }
    times.prepare = t1 - t0;
    times.app = t2 - t1;
    times.select = t3 - t2;
    times.package = t4 - t3;
    times.construct = t5 - t4;
    times.total = t5 - t0;
    return dep;
}

bool
sameFrames(const std::vector<data::FrameSample> &a,
           const std::vector<data::FrameSample> &b)
{
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].features != b[i].features || a[i].cloudy != b[i].cloudy) {
            return false;
        }
    }
    return true;
}

/** The frames one generation replay produced, and its wall time. */
struct Generated
{
    std::vector<data::FrameSample> frames;
    std::vector<data::FrameSample> legacy;
    double seconds = 0.0;
};

/**
 * Generate again, with the same parameters, the frames
 * prepareData(world) generates inside itself: the train/val frames and
 * the legacy corpus. Timing the replay splits data generation from the
 * rest of stage 1 without tracing inside the transformer.
 */
Generated
replayGeneration()
{
    const core::TransformOptions options = transformOptions();
    Generated out;
    const double t0 = nowSeconds();
    data::DatasetParams params;
    params.seed = util::splitMix64(options.seed ^ 0xDA7A);
    data::DatasetGenerator generator(data::GeoModel(), params);
    out.frames =
        generator.generateGlobal(options.train_frames + options.val_frames);
    data::DatasetParams legacy_params;
    legacy_params.seed = util::splitMix64(options.seed ^ 0x1E6AC);
    legacy_params.grid = out.frames.front().grid;
    legacy_params.frame_size_m = out.frames.front().size_m;
    data::DatasetGenerator legacy_generator(
        data::GeoModel(data::GeoModelParams::legacyDomain()),
        legacy_params);
    out.legacy = legacy_generator.generateGlobal(options.legacy_frames);
    out.seconds = nowSeconds() - t0;
    return out;
}

/** Whether @p replay reproduced the frames of @p shared. */
bool
faithfulReplay(const Generated &replay, const core::DataArtifacts &shared)
{
    std::vector<data::FrameSample> expected = shared.train;
    expected.insert(expected.end(), shared.val.begin(), shared.val.end());
    return sameFrames(replay.frames, expected) &&
           sameFrames(replay.legacy, shared.legacy);
}

/**
 * The frame pool: kGroups groups of kGroupFrames distinct frames.
 *
 * The scene centres and capture times are fixed; the seed draws each
 * frame's sensor noise. What a frame costs depends on its scene — how
 * many tiles the plan sends to a model — so with seed-drawn centres
 * two 32-frame pools differed by ~20% in frames/s, and the spread over
 * seeds measured the scene lottery rather than the code. Frames are
 * generated on kPoolThreads threads, one generator per frame, so the
 * pool is the same at any thread count.
 */
std::vector<std::vector<data::FrameSample>>
makePool(std::uint64_t seed)
{
    const std::size_t count = kGroups * kGroupFrames;
    util::Rng scenes(kSceneSeed);
    std::vector<std::pair<double, double>> centres(count);
    for (auto &[lat, lon] : centres) {
        lat = std::asin(2.0 * scenes.uniform() - 1.0);
        lon = scenes.uniform(-util::kPi, util::kPi);
    }
    const data::GeoModel world;
    std::vector<data::FrameSample> frames(count);
    {
        std::vector<std::jthread> threads;
        for (std::size_t first = 0; first < kPoolThreads; ++first) {
            threads.emplace_back([&, first] {
                for (std::size_t i = first; i < count; i += kPoolThreads) {
                    data::DatasetParams params;
                    params.seed = util::splitMix64(seed ^ (kSceneSeed + i));
                    data::DatasetGenerator generator(world, params);
                    frames[i] = generator.makeFrame(
                        centres[i].first, centres[i].second,
                        static_cast<double>(i) * params.frame_interval_s);
                }
            });
        }
    }
    std::vector<std::vector<data::FrameSample>> groups(kGroups);
    for (std::size_t i = 0; i < count; ++i) {
        groups[i / kGroupFrames].push_back(std::move(frames[i]));
    }
    return groups;
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

bool
sameReport(const core::FrameReport &a, const core::FrameReport &b)
{
    return sameBits(a.compute_time, b.compute_time) &&
           sameBits(a.product_fraction, b.product_fraction) &&
           sameBits(a.product_high_fraction, b.product_high_fraction) &&
           a.tiles_discarded == b.tiles_discarded &&
           a.tiles_downlinked == b.tiles_downlinked &&
           a.tiles_modeled == b.tiles_modeled &&
           a.cells.tp() == b.cells.tp() && a.cells.fp() == b.cells.fp() &&
           a.cells.tn() == b.cells.tn() && a.cells.fn() == b.cells.fn();
}

/** The pool with its reference reports, and a warm pipeline. */
struct Pool
{
    std::vector<std::vector<data::FrameSample>> groups;
    std::vector<core::FrameReport> reference;
};

/**
 * One untimed pass over the pool, checked against the references:
 * caches, scratch arenas and slot buffers reach their steady state.
 */
void
warmPass(Deployment &dep, const Pool &pool, WorkloadOutcome &out)
{
    for (std::size_t g = 0; g < pool.groups.size(); ++g) {
        if (!sameReport(dep.pipeline->processFrames(pool.groups[g]),
                        pool.reference[g])) {
            std::cout << "[perfbench] warm-up report differs from "
                         "Runtime::processFrames on group "
                      << g << "\n";
            out.setup_ok = false;
        }
    }
}

Pool
preparePool(std::uint64_t seed, Deployment &dep, WorkloadOutcome &out)
{
    Pool pool;
    pool.groups = makePool(seed);
    for (const auto &group : pool.groups) {
        pool.reference.push_back(dep.runtime->processFrames(group));
    }
    warmPass(dep, pool, out);
    return pool;
}

/** Seconds hostRefMops runs just before and just after each timed
 *  set-up; set-up time is scaled by the mean of the two rates. */
constexpr double kSetupProbeS = 0.25;

WorkloadOutcome
measureFrames(const RunOptions &options)
{
    WorkloadOutcome out;
    // Every time is scaled to the nominal host (measure.hpp): calls by
    // the SpeedProbe run right after each, set-ups by hostRefMops
    // around them. Raw figures are printed beside the scaled ones.
    std::vector<double> setup_s;
    std::vector<double> setup_raw_s;
    SetupTimes times;
    const auto timedSetUp = [&] {
        const double before = hostRefMops(kSetupProbeS);
        auto dep = setUp(times);
        const double after = hostRefMops(kSetupProbeS);
        setup_raw_s.push_back(times.total);
        setup_s.push_back(
            hostScaled(times.total, (before + after) / 2.0, kNominalRefMops));
        return dep;
    };
    const auto dep = timedSetUp();
    const Pool pool = preparePool(options.seed, *dep, out);

    // The calls are measured in kSetupReps windows with a repeated
    // set-up between them, so a run samples the host over a longer
    // stretch than one block of the same length would.
    SpeedProbe probe;
    std::vector<double> call_s;
    std::vector<double> probe_s;
    for (int window = 0; window < kSetupReps; ++window) {
        if (window > 0) {
            const auto again = timedSetUp();
            if (again->bytes != dep->bytes ||
                !sameBits(again->dvd, dep->dvd)) {
                std::cout << "[perfbench] set-up " << window
                          << " produced a different deployment\n";
                out.setup_ok = false;
            }
            // The set-up evicted the pool from the caches.
            warmPass(*dep, pool, out);
        }
        const std::size_t first_call = call_s.size();
        const double start = nowSeconds();
        while (nowSeconds() - start < options.seconds / kSetupReps ||
               call_s.size() - first_call < kMinWindowCalls) {
            const std::size_t g = call_s.size() % pool.groups.size();
            const double a = nowSeconds();
            const core::FrameReport report =
                dep->pipeline->processFrames(pool.groups[g]);
            call_s.push_back(nowSeconds() - a);
            probe_s.push_back(probe.run());
            if (!sameReport(report, pool.reference[g])) {
                ++out.failed;
            }
        }
    }
    out.attempted = call_s.size();

    const std::vector<double> scaled =
        hostScaled(call_s, probe_s, kLatencyWindowS);
    double raw_total = 0.0;
    double scaled_total = 0.0;
    for (std::size_t i = 0; i < call_s.size(); ++i) {
        raw_total += call_s[i];
        scaled_total += scaled[i];
    }
    const double frames = static_cast<double>(call_s.size() * kGroupFrames);
    out.values["throughput"] = frames / scaled_total;
    out.values["latency_p50_ms"] =
        1e3 * windowedMedian(scaled, kLatencyWindowS);
    if (const auto p99 = reportablePercentile(scaled, 99.0)) {
        out.values["latency_p99_ms"] = 1e3 * *p99;
    }
    out.values["setup_s"] = median(setup_s);
    out.values["dvd"] = dep->dvd;
    std::cout << "[perfbench] " << call_s.size() << " calls of "
              << kGroupFrames << " frames in " << raw_total
              << " s of call time: raw " << frames / raw_total
              << " frames/s, host-scaled " << frames / scaled_total
              << "; probe " << probeMops(probe_s)
              << " Mops/s; set-ups raw (s):";
    for (const double s : setup_raw_s) {
        std::cout << ' ' << s;
    }
    std::cout << ", host-scaled (s):";
    for (const double s : setup_s) {
        std::cout << ' ' << s;
    }
    std::cout << "\n";
    return out;
}

/** Per-frame layer costs accumulated over the traced loop. */
struct FrameLedger
{
    double stats = 0.0;
    double classify = 0.0;
    double decimate = 0.0;
    double inputs = 0.0;
    double infer = 0.0;
    double elide = 0.0;
    double replay = 0.0;
    double pipeline = 0.0;
    std::uint64_t frames = 0;
    std::uint64_t tiles = 0;
    std::uint64_t decimated = 0;
    std::uint64_t modeled = 0;
    std::uint64_t elided = 0;
};

/**
 * The infer stage of one group, as PipelineRuntime's burst stage runs
 * it: per model, the modeled tiles of every frame in @p works are
 * standardized into one batch of rows (SpecializedZoo::tileInputs),
 * inferred in one SpecializedZoo::predictRows call, and turned into
 * keep flags (Runtime::keepFromProbs). Adds the time of the predictRows
 * calls to @p acc.infer and the rest to @p acc.inputs.
 */
void
replayBurstInfer(const core::Runtime &runtime,
                 std::vector<core::FrameWork> &works, std::vector<double> &rows,
                 std::vector<double> &probs, FrameLedger &acc)
{
    const core::SelectionLogic &logic = runtime.logic();
    const core::SpecializedZoo &zoo = runtime.zoo();
    const auto model_of = [&](const core::FrameWork &work, std::size_t t) {
        const core::Action &action = logic.per_context[work.contexts[t]];
        return action.kind == core::ActionKind::RunModel ? action.model
                                                          : -1;
    };
    constexpr auto kDim = static_cast<std::size_t>(data::kBlockInputDim);
    for (int m = 0; m < static_cast<int>(zoo.entries.size()); ++m) {
        const double t0 = nowSeconds();
        std::size_t count = 0;
        for (const core::FrameWork &work : works) {
            for (std::size_t t = 0; t < work.tiles.size(); ++t) {
                count += model_of(work, t) == m ? data::kBlocksPerTile : 0;
            }
        }
        if (count == 0) {
            continue;
        }
        // Grown to the largest group seen, so steady state allocates
        // nothing, as the pipeline's scratch arena does not.
        rows.resize(std::max(rows.size(), count * kDim));
        probs.resize(std::max(probs.size(), count));
        std::size_t row = 0;
        for (const core::FrameWork &work : works) {
            for (std::size_t t = 0; t < work.tiles.size(); ++t) {
                if (model_of(work, t) == m) {
                    zoo.tileInputs(work.tiles[t], rows.data() + row * kDim);
                    row += data::kBlocksPerTile;
                }
            }
        }
        const double t1 = nowSeconds();
        zoo.predictRows(m, rows.data(), count, probs.data());
        const double t2 = nowSeconds();
        row = 0;
        for (core::FrameWork &work : works) {
            for (std::size_t t = 0; t < work.tiles.size(); ++t) {
                if (model_of(work, t) == m) {
                    core::Runtime::keepFromProbs(
                        probs.data() + row, data::kBlocksPerTile,
                        work.keep.data() + t * data::kBlocksPerTile);
                    row += data::kBlocksPerTile;
                }
            }
        }
        acc.inputs += (t1 - t0) + (nowSeconds() - t2);
        acc.infer += t2 - t1;
    }
}

WorkloadOutcome
traceFrames(const RunOptions &options)
{
    WorkloadOutcome out;
    // The generation prepareData(world) runs inside set-up is replayed
    // just before and just after it, and the two replays averaged: the
    // rest of stage 1 is its time minus the generation's, a difference
    // of two seconds-long timings that a drift of the host's speed
    // would otherwise skew.
    SetupTimes times;
    const double before_s = replayGeneration().seconds;
    double after_s = 0.0;
    bool faithful = false;
    const auto dep =
        setUp(times, [&](const core::DataArtifacts &shared) {
            const Generated replay = replayGeneration();
            after_s = replay.seconds;
            faithful = faithfulReplay(replay, shared);
        });
    const double generate_s = (before_s + after_s) / 2.0;
    if (!faithful) {
        std::cout << "[perfbench] WARNING: the generation replay no "
                     "longer reproduces prepareData's frames; "
                     "data.generator_s is an estimate\n";
    }

    Ledger setup;
    setup.title = "set-up ledger";
    setup.unit = "s";
    setup.total = times.total;
    setup.rows = {{"data.generator", generate_s},
                  {"core.transformer.prepare (self)",
                   times.prepare - generate_s},
                  {"core.transformer.app", times.app},
                  {"core.selection.select", times.select},
                  {"core.io.package", times.package},
                  {"pipeline.construct", times.construct}};
    setup.print(std::cout);

    const Pool pool = preparePool(options.seed, *dep, out);
    const core::Runtime &runtime = *dep->runtime;
    const core::SelectionLogic &logic = runtime.logic();
    const core::ContextEngine &engine = dep->package->engine;
    const data::Tiler tiler(logic.tiles_per_side);
    const auto modeled = [&](const core::FrameWork &work, std::size_t t) {
        return logic.per_context[work.contexts[t]].kind ==
               core::ActionKind::RunModel;
    };

    FrameLedger acc;
    std::vector<core::FrameWork> works(kGroupFrames);
    std::vector<double> rows;
    std::vector<double> probs;
    std::vector<core::FrameReport> reports;
    std::uint64_t rounds = 0;
    const double start = nowSeconds();
    while (nowSeconds() - start < options.seconds ||
           rounds < 2 * kGroups) {
        const std::size_t g = rounds % pool.groups.size();
        const std::vector<data::FrameSample> &group = pool.groups[g];
        ++rounds;

        // Untraced: the deployed scheduler on this group.
        const double a = nowSeconds();
        const core::FrameReport report =
            dep->pipeline->processFrames(group);
        acc.pipeline += nowSeconds() - a;

        // Traced: the same frames, one layer call at a time, in the
        // order of the pipeline's stages.
        const double r0 = nowSeconds();
        for (std::size_t i = 0; i < group.size(); ++i) {
            core::FrameWork &work = works[i];
            work.frame = &group[i];
            const double t0 = nowSeconds();
            tiler.statsInto(group[i], work.tiles);
            const double t1 = nowSeconds();
            engine.classifyBatch(work.tiles, work.contexts);
            work.keep.resize(work.tiles.size() * data::kBlocksPerTile);
            const double t2 = nowSeconds();
            for (std::size_t t = 0; t < work.tiles.size(); ++t) {
                if (modeled(work, t)) {
                    data::Tiler::decimate(work.tiles[t]);
                    ++acc.decimated;
                }
            }
            acc.stats += t1 - t0;
            acc.classify += t2 - t1;
            acc.decimate += nowSeconds() - t2;
        }
        replayBurstInfer(runtime, works, rows, probs, acc);
        reports.clear();
        for (core::FrameWork &work : works) {
            const double t0 = nowSeconds();
            runtime.stageElide(work);
            acc.elide += nowSeconds() - t0;
            acc.tiles += work.tiles.size();
            acc.modeled += static_cast<std::uint64_t>(
                work.report.tiles_modeled);
            acc.elided += static_cast<std::uint64_t>(
                work.report.tiles_discarded + work.report.tiles_downlinked);
            ++acc.frames;
            reports.push_back(work.report);
        }
        acc.replay += nowSeconds() - r0;
        if (!sameReport(report, pool.reference[g]) ||
            !sameReport(core::Runtime::aggregate(reports),
                        pool.reference[g])) {
            ++out.failed;
        }
    }
    out.attempted = rounds;

    const double n = static_cast<double>(acc.frames);
    const double us = 1e6 / n;
    Ledger frame;
    frame.title = "frame-path ledger";
    frame.unit = "us/frame";
    frame.total = acc.replay * us;
    frame.rows = {{"data.tiler.stats", acc.stats * us},
                  {"core.engine.classify", acc.classify * us},
                  {"data.tiler.decimate", acc.decimate * us},
                  {"core.zoo.tile_inputs", acc.inputs * us},
                  {"ml.infer", acc.infer * us},
                  {"core.elide", acc.elide * us}};
    frame.print(std::cout);
    const double pipeline_us = acc.pipeline * us;
    const double overhead_ratio = acc.replay / acc.pipeline;
    std::cout << "  untraced PipelineRuntime, same frames: " << pipeline_us
              << " us/frame; pipeline.overhead = that - layers = "
              << pipeline_us - frame.attributed()
              << " us/frame; trace.overhead_ratio = " << overhead_ratio
              << "\n";

    auto &v = out.values;
    v["data.tiler.stats_us"] = frame.rows[0].value;
    v["core.engine.classify_us"] = frame.rows[1].value;
    v["data.tiler.decimate_us"] = frame.rows[2].value;
    v["core.zoo.tile_inputs_us"] = frame.rows[3].value;
    v["ml.infer_us"] = frame.rows[4].value;
    v["core.elide_us"] = frame.rows[5].value;
    v["pipeline.overhead_us"] = pipeline_us - frame.attributed();
    v["core.runtime.tiles_modeled"] = static_cast<double>(acc.modeled) / n;
    v["core.runtime.tiles_elided"] = static_cast<double>(acc.elided) / n;
    v["ml.infer.ns_per_row"] =
        acc.modeled > 0
            ? 1e9 * acc.infer /
                  (static_cast<double>(acc.modeled) * data::kBlocksPerTile)
            : 0.0;
    v["data.tiler.decimate_ratio"] =
        static_cast<double>(acc.decimated) / static_cast<double>(acc.tiles);
    v["data.generator_s"] = generate_s;
    v["core.transformer.prepare_s"] = times.prepare - generate_s;
    v["core.transformer.app_s"] = times.app;
    v["core.selection.select_s"] = times.select;
    v["core.io.package_ms"] = 1e3 * times.package;
    v["pipeline.construct_ms"] = 1e3 * times.construct;
    v["trace.overhead_ratio"] = overhead_ratio;
    return out;
}

} // namespace

WorkloadOutcome
runFrames(const RunOptions &options, ml::Precision precision)
{
    // Inference precision is a process-wide knob read at dispatch; it
    // is set before set-up so the sweep measures and selects under it.
    ml::setPrecision(precision);
    util::setGlobalThreads(1);
    return options.trace ? traceFrames(options) : measureFrames(options);
}

} // namespace perfbench
