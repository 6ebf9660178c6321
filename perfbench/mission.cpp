/**
 * @file
 * mission_global_recorded: a Walker constellation over the 24-station
 * global ground segment through ConstellationEngine, with the flight
 * recorder on (metrics, series, journal, health with the stock rules).
 * One operation is one mission run plus the export of its journal,
 * series and alerts into an in-memory byte-counting sink; recording
 * state is reset between operations, outside the timed region. Every
 * operation's MissionResult must be bit-identical to the same
 * scenario's unrecorded run, made once per scenario before the
 * measured loop.
 *
 * The traced run times the engine unrecorded and recorded, and replays
 * its contact scan (ContactFinder::findAllParallel) and ground
 * scheduling (GroundSegmentScheduler begin/allocateSpan/finish) chunk
 * by chunk on the same scenario, to split the engine's wall time.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "ground/contact.hpp"
#include "ground/downlink.hpp"
#include "ground/station.hpp"
#include "measure.hpp"
#include "orbit/propagator.hpp"
#include "sim/constellation.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace kodan;

/** Worker threads of the engine and its contact sweep. */
constexpr int kThreads = 2;
/** Walker pattern: satellites, planes, phasing. */
constexpr int kSatellites = 8;
constexpr int kPlanes = 4;
constexpr int kPhasing = 1;
/** Satellites per engine shard: one shard per thread, so the
 *  per-satellite simulation runs on both threads as the contact sweep
 *  does (bench_constellation's 16 is sized for 100 satellites). */
constexpr std::size_t kShardSize = kSatellites / kThreads;
/**
 * The scenarios: the same constellation over horizons of 3 h, 6 h, ...
 * 21 h, and one of 72 h, each with its own frame-value seed.
 * Operations cycle through the short horizons and run the 72-h one
 * every kCycle-th time. The mix is chosen for the latency metrics: the
 * p50 falls inside the 12-h class and the p99 inside the 72-h class
 * (2% of operations), so the p99 measures a typical 72-h operation,
 * not the stalls of the host. On this two-thread fork-join path one
 * stalled thread stretches the whole operation, and with the 21-h
 * class on top the p99 swung 21-45 ms between runs on a shared
 * 4-vCPU VM.
 */
constexpr std::size_t kShortScenarios = 7;
constexpr double kHorizonStepS = 3.0 * 3600.0;
constexpr double kLongHorizonS = 72.0 * 3600.0;
constexpr std::size_t kScenarios = kShortScenarios + 1;
constexpr std::size_t kCycle = 50;

/** The scenario operation @p op runs. */
std::size_t
scenarioOf(std::size_t op)
{
    const std::size_t slot = op % kCycle;
    return slot == kCycle - 1 ? kShortScenarios : slot % kShortScenarios;
}

/** A p99 needs ten operations beyond it. */
constexpr std::uint64_t kMinOps = 1000;
/** Set-up timing: every kSetupEvery operations, one batch of
 *  kSetupPerBatch set-ups is timed; setup_s is the median per-set-up
 *  time over the batches, which span the run as the operations do. */
constexpr std::uint64_t kSetupEvery = 64;
constexpr int kSetupPerBatch = 100;

/** Where timing loops publish a value, so the timed work is kept. */
volatile double g_sink = 0.0;

/** Scenario @p index of the pool, with bench_constellation's engine
 *  settings. */
sim::ConstellationConfig
makeScenario(std::uint64_t seed, std::size_t index)
{
    sim::ConstellationConfig config;
    config.mission =
        sim::MissionConfig::makeConstellation(kSatellites, kPlanes, kPhasing);
    config.mission.stations = ground::globalGroundSegment();
    config.mission.duration =
        index < kShortScenarios
            ? static_cast<double>(index + 1) * kHorizonStepS
            : kLongHorizonS;
    config.mission.scheduler_step = 30.0;
    config.mission.contact_scan_step = 120.0;
    config.mission.telemetry_bin_s = 1800.0;
    config.mission.telemetry_prefix = "constellation";
    config.mission.seed = util::splitMix64(seed ^ (0x3155A7ULL + index));
    config.shard_size = kShardSize;
    config.chunk_s = util::kSecondsPerDay;
    return config;
}

/** bench_constellation's Kodan-like filter: costly, selective,
 *  compact products. */
sim::FilterBehavior
kodanFilter()
{
    sim::FilterBehavior filter;
    filter.frame_time = 40.0;
    filter.keep_high = 0.9;
    filter.keep_low = 0.1;
    filter.product_fraction = 0.5;
    return filter;
}

void
setRecording(bool on)
{
    telemetry::setEnabled(on);
    telemetry::setJournalEnabled(on);
    telemetry::health::setHealthEnabled(on);
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

bool
sameResult(const sim::MissionResult &a, const sim::MissionResult &b)
{
    if (a.per_satellite.size() != b.per_satellite.size() ||
        !sameBits(a.idle_station_seconds, b.idle_station_seconds) ||
        !sameBits(a.busy_station_seconds, b.busy_station_seconds)) {
        return false;
    }
    for (std::size_t s = 0; s < a.per_satellite.size(); ++s) {
        const sim::SatelliteResult &x = a.per_satellite[s];
        const sim::SatelliteResult &y = b.per_satellite[s];
        if (x.frames_observed != y.frames_observed ||
            x.frames_processed != y.frames_processed ||
            !sameBits(x.frames_downlinked, y.frames_downlinked) ||
            !sameBits(x.bits_observed, y.bits_observed) ||
            !sameBits(x.high_bits_observed, y.high_bits_observed) ||
            !sameBits(x.bits_downlinked, y.bits_downlinked) ||
            !sameBits(x.high_bits_downlinked, y.high_bits_downlinked) ||
            !sameBits(x.contact_seconds, y.contact_seconds) ||
            !sameBits(x.frame_deadline, y.frame_deadline)) {
            return false;
        }
    }
    return true;
}

/** Byte and event counts of one export. */
struct Export
{
    std::uint64_t journal_events = 0;
    std::uint64_t journal_bytes = 0;
};

/** Export the recorded journal, series and alerts into @p sink. */
Export
exportRecording(CountingSink &sink)
{
    Export out;
    const auto events = telemetry::collectJournal();
    telemetry::writeJournalJsonl(events, telemetry::journalDroppedEvents(),
                                 sink);
    out.journal_events = events.size();
    out.journal_bytes = sink.bytes();
    telemetry::writeTimeSeriesJson(telemetry::timeSeriesSnapshot(), sink);
    telemetry::health::writeAlertsJsonl(
        telemetry::health::plane().snapshot().alerts, sink);
    return out;
}

/** One recorded operation: run + export, each timed. */
struct RecordedOp
{
    sim::MissionResult result;
    Export exported;
    double run_s = 0.0;
    double export_s = 0.0;
};

RecordedOp
recordedOp(const sim::ConstellationEngine &engine,
           const sim::ConstellationConfig &config,
           const sim::FilterBehavior &filter)
{
    telemetry::resetAll();
    RecordedOp op;
    CountingSink sink;
    const double a = nowSeconds();
    op.result = engine.run(config, filter);
    const double b = nowSeconds();
    op.exported = exportRecording(sink);
    const double c = nowSeconds();
    op.run_s = b - a;
    op.export_s = c - b;
    return op;
}

/** The scenario pool. */
std::vector<sim::ConstellationConfig>
makeScenarios(std::uint64_t seed)
{
    std::vector<sim::ConstellationConfig> scenarios;
    for (std::size_t k = 0; k < kScenarios; ++k) {
        scenarios.push_back(makeScenario(seed, k));
    }
    return scenarios;
}

/** Seconds hostRefMops runs just before and just after each set-up
 *  batch (about the batch's own length). */
constexpr double kSetupProbeS = 0.002;

/** Mean time of one set-up — the scenario pool and the engine — over
 *  a batch of kSetupPerBatch (s), scaled to the nominal host by the
 *  probe rates just before and just after the batch. */
double
timeSetupBatch(std::uint64_t seed)
{
    const double before = hostRefMops(kSetupProbeS);
    const double a = nowSeconds();
    for (int i = 0; i < kSetupPerBatch; ++i) {
        const auto scenarios = makeScenarios(seed);
        const sim::ConstellationEngine engine(nullptr, 1.0 / 3.0);
        g_sink = static_cast<double>(
            scenarios.back().mission.satellites.size() +
            scenarios.back().mission.stations.size());
    }
    const double seconds = (nowSeconds() - a) / kSetupPerBatch;
    const double after = hostRefMops(kSetupProbeS);
    return hostScaled(seconds, (before + after) / 2.0, kNominalRefMops);
}

/** Satellite-days one operation on @p config simulates. */
double
satDays(const sim::ConstellationConfig &config)
{
    return static_cast<double>(config.mission.satellites.size()) *
           config.mission.duration / util::kSecondsPerDay;
}

/** DVD of the pooled downlink of @p results. */
double
pooledDvd(const std::vector<sim::MissionResult> &results)
{
    double bits = 0.0;
    double high_bits = 0.0;
    for (const auto &result : results) {
        const sim::SatelliteResult totals = result.totals();
        bits += totals.bits_downlinked;
        high_bits += totals.high_bits_downlinked;
    }
    return bits > 0.0 ? high_bits / bits : 0.0;
}

WorkloadOutcome
measureMission(const RunOptions &options)
{
    WorkloadOutcome out;
    std::vector<double> setup_s = {timeSetupBatch(options.seed)};
    const auto scenarios = makeScenarios(options.seed);
    const sim::ConstellationEngine engine(nullptr, 1.0 / 3.0);
    const sim::FilterBehavior filter = kodanFilter();

    // The reference of each scenario: its unrecorded run. Recording
    // must not change what the engine computes.
    std::vector<sim::MissionResult> reference;
    setRecording(false);
    for (const auto &config : scenarios) {
        reference.push_back(engine.run(config, filter));
    }
    setRecording(true);
    for (const auto &config : scenarios) {
        recordedOp(engine, config, filter); // warm-up, untimed
    }

    // Every time is scaled to the nominal host (measure.hpp): each
    // operation by the SpeedProbe run right after it, set-up batches
    // by hostRefMops around them.
    SpeedProbe probe;
    std::vector<double> op_s;
    std::vector<double> probe_s;
    double measured = 0.0;
    double sat_days = 0.0;
    while (measured < options.seconds || op_s.size() < kMinOps) {
        if (op_s.size() % kSetupEvery == kSetupEvery - 1) {
            setup_s.push_back(timeSetupBatch(options.seed));
        }
        const std::size_t k = scenarioOf(op_s.size());
        const RecordedOp op = recordedOp(engine, scenarios[k], filter);
        op_s.push_back(op.run_s + op.export_s);
        probe_s.push_back(probe.run());
        measured += op_s.back();
        sat_days += satDays(scenarios[k]);
        if (!sameResult(op.result, reference[k])) {
            ++out.failed;
        }
    }
    setRecording(false);
    telemetry::resetAll();
    out.attempted = op_s.size();

    const std::vector<double> scaled =
        hostScaled(op_s, probe_s, kLatencyWindowS);
    double scaled_total = 0.0;
    for (const double s : scaled) {
        scaled_total += s;
    }
    out.values["throughput"] = sat_days / scaled_total;
    out.values["latency_p50_ms"] =
        1e3 * windowedMedian(scaled, kLatencyWindowS);
    if (const auto p99 = reportablePercentile(scaled, 99.0)) {
        out.values["latency_p99_ms"] = 1e3 * *p99;
    }
    out.values["setup_s"] = median(setup_s);
    out.values["dvd"] = pooledDvd(reference);
    std::cout << "[perfbench] " << op_s.size() << " recorded missions, "
              << sat_days << " sat-days in " << measured
              << " s: raw " << sat_days / measured
              << " sat-days/s, host-scaled " << sat_days / scaled_total
              << "; probe " << probeMops(probe_s) << " Mops/s; "
              << setup_s.size() << " set-up batches\n";
    return out;
}

/** Engine wall split by the traced run, summed over rounds. */
struct MissionLedger
{
    double unrecorded = 0.0;
    double scan = 0.0;
    double allocate = 0.0;
    double recorded = 0.0;
    double exported = 0.0;
    double untraced_op = 0.0;
    std::uint64_t windows = 0;
    std::uint64_t journal_events = 0;
    std::uint64_t journal_bytes = 0;
};

/**
 * Replay the engine's contact scan and ground scheduling chunk by
 * chunk. Adds their wall times to @p acc; returns false when the
 * replayed allocation disagrees with the engine's station totals.
 */
bool
replayContacts(const sim::ConstellationConfig &config,
               const sim::MissionResult &engine_result, MissionLedger &acc)
{
    const sim::MissionConfig &mission = config.mission;
    std::vector<orbit::J2Propagator> sats;
    for (const auto &elements : mission.satellites) {
        sats.emplace_back(elements);
    }
    const ground::ContactFinder finder(mission.contact_scan_step);
    const ground::GroundSegmentScheduler scheduler(mission.scheduler_step);

    double a = nowSeconds();
    auto state = scheduler.beginAllocation(sats.size(),
                                           mission.stations.size(), 0.0);
    acc.allocate += nowSeconds() - a;
    ground::GroundSegmentScheduler::Allocation final_allocation;
    const auto chunks = static_cast<std::size_t>(
        std::ceil(mission.duration / config.chunk_s));
    for (std::size_t c = 0; c < chunks; ++c) {
        const double t0 = static_cast<double>(c) * config.chunk_s;
        const double t1 = std::min(mission.duration, t0 + config.chunk_s);
        a = nowSeconds();
        const auto windows =
            finder.findAllParallel(sats, mission.stations, t0, t1);
        const double b = nowSeconds();
        scheduler.allocateSpan(windows, t1, state);
        if (c + 1 == chunks) {
            final_allocation = scheduler.finishAllocation(std::move(state));
        }
        acc.scan += b - a;
        acc.allocate += nowSeconds() - b;
        acc.windows += windows.size();
    }
    return sameBits(final_allocation.busy_station_seconds,
                    engine_result.busy_station_seconds) &&
           sameBits(final_allocation.idle_station_seconds,
                    engine_result.idle_station_seconds);
}

/** Median ns per J2Propagator::stateAt over the scenario's satellites
 *  on the contact-scan grid. */
double
timePropagation(const sim::ConstellationConfig &config)
{
    std::vector<orbit::J2Propagator> sats;
    for (const auto &elements : config.mission.satellites) {
        sats.emplace_back(elements);
    }
    const double step = config.mission.contact_scan_step;
    const auto steps = static_cast<std::size_t>(
        config.mission.duration / step);
    std::vector<double> per_call;
    double checksum = 0.0;
    for (int batch = 0; batch < 5; ++batch) {
        const double a = nowSeconds();
        for (const auto &sat : sats) {
            for (std::size_t k = 0; k < steps; ++k) {
                checksum += sat.stateAt(static_cast<double>(k) * step)
                                .position.x;
            }
        }
        per_call.push_back((nowSeconds() - a) /
                           static_cast<double>(sats.size() * steps));
    }
    g_sink = checksum;
    return 1e9 * median(per_call);
}

WorkloadOutcome
traceMission(const RunOptions &options)
{
    WorkloadOutcome out;
    const auto scenarios = makeScenarios(options.seed);
    const sim::ConstellationEngine engine(nullptr, 1.0 / 3.0);
    const sim::FilterBehavior filter = kodanFilter();

    MissionLedger acc;
    std::vector<sim::MissionResult> reference(kScenarios);
    std::vector<bool> seen(kScenarios, false);
    std::uint64_t rounds = 0;
    bool faithful = true;
    const double start = nowSeconds();
    while (nowSeconds() - start < options.seconds || rounds < kCycle) {
        const std::size_t k = scenarioOf(rounds);
        const sim::ConstellationConfig &config = scenarios[k];
        setRecording(false);
        telemetry::resetAll();
        const double a = nowSeconds();
        sim::MissionResult unrecorded = engine.run(config, filter);
        acc.unrecorded += nowSeconds() - a;
        bool ok = true;
        if (!seen[k]) {
            reference[k] = std::move(unrecorded);
            seen[k] = true;
        } else {
            ok = sameResult(unrecorded, reference[k]);
        }
        faithful = replayContacts(config, reference[k], acc) && faithful;

        setRecording(true);
        const RecordedOp traced = recordedOp(engine, config, filter);
        acc.recorded += traced.run_s;
        acc.exported += traced.export_s;
        acc.journal_events += traced.exported.journal_events;
        acc.journal_bytes += traced.exported.journal_bytes;
        // The same operation again with nothing traced around it, as
        // --trace 0 runs it.
        const RecordedOp untraced = recordedOp(engine, config, filter);
        acc.untraced_op += untraced.run_s + untraced.export_s;
        setRecording(false);
        ok = sameResult(traced.result, reference[k]) &&
             sameResult(untraced.result, reference[k]) && ok;
        if (!ok) {
            ++out.failed;
        }
        ++rounds;
    }
    telemetry::resetAll();
    out.attempted = rounds;
    if (!faithful) {
        std::cout << "[perfbench] WARNING: the contact replay no longer "
                     "matches the engine's station totals; the scan and "
                     "allocate rows are estimates\n";
    }

    const double n = static_cast<double>(rounds);
    const double scan = acc.scan / n;
    const double allocate = acc.allocate / n;
    const double unrecorded = acc.unrecorded / n;
    const double recorded = acc.recorded / n;
    const double exported = acc.exported / n;
    Ledger ledger;
    ledger.title = "mission ledger";
    ledger.unit = "ms/op";
    ledger.total = 1e3 * (recorded + exported);
    ledger.rows = {{"ground.contact.scan", 1e3 * scan},
                   {"ground.schedule.allocate", 1e3 * allocate},
                   {"sim.self", 1e3 * (unrecorded - scan - allocate)},
                   {"telemetry.record", 1e3 * (recorded - unrecorded)},
                   {"telemetry.export", 1e3 * exported}};
    ledger.print(std::cout);
    const double overhead_ratio =
        (acc.recorded + acc.exported) / acc.untraced_op;
    std::cout << "  untraced recorded op: " << 1e3 * acc.untraced_op / n
              << " ms; trace.overhead_ratio = " << overhead_ratio << "\n";

    auto &v = out.values;
    v["orbit.propagate_ns"] = timePropagation(scenarios.front());
    v["ground.contact.scan_s"] = scan;
    v["ground.contact.windows"] = static_cast<double>(acc.windows) / n;
    v["ground.schedule.allocate_s"] = allocate;
    v["sim.self_s"] = unrecorded - scan - allocate;
    v["telemetry.record_s"] = recorded - unrecorded;
    v["telemetry.export_s"] = exported;
    v["telemetry.journal_events"] =
        static_cast<double>(acc.journal_events) / n;
    v["telemetry.journal_mb"] =
        static_cast<double>(acc.journal_bytes) / n / 1.0e6;
    v["trace.overhead_ratio"] = overhead_ratio;
    return out;
}

} // namespace

WorkloadOutcome
runMission(const RunOptions &options)
{
    util::setGlobalThreads(kThreads);
    return options.trace ? traceMission(options) : measureMission(options);
}

} // namespace perfbench
