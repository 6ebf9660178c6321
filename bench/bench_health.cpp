/**
 * @file
 * Fleet health plane guard: determinism, alert accuracy, and overhead.
 *
 * Runs a small constellation with a synthetic degradation injected into
 * one satellite (its contact runs transfer zero bits from
 * --degrade-after-h on, so backlog grows until the storage cap sheds
 * it) and checks three contracts of the health plane:
 *
 *  1. **Determinism** (--verify): the alert JSONL produced by the
 *     degraded scenario is byte-identical at 1/4/16 threads.
 *  2. **Accuracy**: every satellite-kind alert names the degraded
 *     satellite, and both `storage.drop` and `downlink.absence` fire
 *     for it — the injected fault is detected, with no false positives
 *     on the healthy satellites.
 *  3. **Overhead** (--assert-overhead): the serial health fold meters
 *     itself via the `telemetry.self.health.fold_s` timer; its total
 *     must stay within the given fraction of the mission wall time
 *     (best of three runs) at the pool's default thread count. The
 *     fold is serial while the mission fans out over the pool, so the
 *     fraction grows with the thread count; the table and the run
 *     record print the count measured.
 *
 * The measured (health-on) run executes last so the harness's
 * --alerts-out / --telemetry-out exit snapshots capture it; results go
 * to stdout and BENCH_health.run.json (in KODAN_BENCH_CSV_DIR when
 * set, else the bench cache directory).
 *
 * Flags (after the harness's --telemetry-out/--journal-out/--alerts-out):
 *   --sats N             total satellites                 (default 12)
 *   --planes P           orbital planes                   (default 3)
 *   --days D             simulated days                   (default 2)
 *   --shard-size S       satellites per work unit         (default 4)
 *   --chunk-hours H      streaming chunk length           (default 6)
 *   --bin-minutes M      telemetry bin width, minutes     (default 30)
 *   --storage-gbits G    on-board storage per sat, Gbit   (default 60)
 *   --degrade-sat K      satellite to degrade, -1 = none  (default 3)
 *   --degrade-after-h H  degradation onset, hours         (default 12)
 *   --assert-overhead F  exit 1 above fold/wall fraction  (default 0.03)
 *   --verify             byte-compare alerts at 1/4/16 threads
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "sim/constellation.hpp"
#include "telemetry/telemetry.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace kodan;

double
timeSeconds(const std::function<void()> &fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

struct Scenario
{
    int sats = 12;
    int planes = 3;
    double days = 2.0;
    std::size_t shard_size = 4;
    double chunk_hours = 6.0;
    double bin_minutes = 30.0;
    double storage_gbits = 60.0;
    long long degrade_sat = 3;
    double degrade_after_h = 12.0;
};

sim::ConstellationConfig
makeScenario(const Scenario &s)
{
    sim::ConstellationConfig config;
    config.mission = sim::MissionConfig::makeConstellation(
        s.sats, s.planes, 1);
    config.mission.duration = s.days * util::kSecondsPerDay;
    config.mission.scheduler_step = 30.0;
    config.mission.contact_scan_step = 60.0;
    config.mission.telemetry_bin_s = s.bin_minutes * 60.0;
    config.mission.telemetry_prefix = "health";
    config.shard_size = s.shard_size;
    config.chunk_s = s.chunk_hours * 3600.0;
    config.storage_bits = s.storage_gbits * 1e9;
    config.degrade.satellite = s.degrade_sat;
    config.degrade.after_s = s.degrade_after_h * 3600.0;
    return config;
}

/**
 * A provisioned Kodan-style filter: costly, selective, compact
 * products, raws discarded. Product volume (~63 Gbit/sat/day) sits
 * well inside the fleet's contact capacity, so a healthy satellite
 * drains fully every pass and fires nothing — the degraded one is the
 * only offender.
 */
sim::FilterBehavior
kodanFilter()
{
    sim::FilterBehavior filter;
    filter.frame_time = 200.0;
    filter.keep_high = 0.9;
    filter.keep_low = 0.05;
    filter.product_fraction = 0.1;
    filter.send_unprocessed = false;
    return filter;
}

/** Run the scenario on a fresh plane and render its alert JSONL. */
std::string
alertBytes(const sim::ConstellationConfig &config)
{
    telemetry::health::plane().reset();
    const sim::ConstellationEngine engine(nullptr, 1.0 / 3.0);
    engine.run(config, kodanFilter());
    const auto snapshot = telemetry::health::plane().snapshot();
    std::ostringstream oss;
    telemetry::health::writeAlertsJsonl(snapshot.alerts, oss);
    return oss.str();
}

/**
 * Check the reference run's alerts against the injected fault: every
 * satellite alert belongs to the degraded satellite and both expected
 * rules fired for it.
 */
bool
checkExpectedAlerts(const std::vector<telemetry::health::Alert> &alerts,
                    long long degrade_sat)
{
    using telemetry::health::EntityKind;
    bool ok = true;
    bool storage_drop = false;
    bool downlink_absence = false;
    for (const auto &alert : alerts) {
        if (alert.entity_kind != EntityKind::Satellite) {
            continue;
        }
        if (alert.entity != degrade_sat) {
            std::cerr << "[kodan-bench] FALSE POSITIVE: rule "
                      << alert.rule << " fired for healthy satellite "
                      << alert.entity << "\n";
            ok = false;
        }
        if (alert.rule == "storage.drop") {
            storage_drop = true;
        } else if (alert.rule == "downlink.absence") {
            downlink_absence = true;
        }
        if (alert.evidence.empty()) {
            std::cerr << "[kodan-bench] MISSING EVIDENCE: rule "
                      << alert.rule << " carries no observations\n";
            ok = false;
        }
    }
    if (!storage_drop) {
        std::cerr << "[kodan-bench] MISSED DETECTION: storage.drop did "
                     "not fire for the degraded satellite\n";
        ok = false;
    }
    if (!downlink_absence) {
        std::cerr << "[kodan-bench] MISSED DETECTION: downlink.absence "
                     "did not fire for the degraded satellite\n";
        ok = false;
    }
    return ok;
}

/**
 * Byte-compare the degraded scenario's alert JSONL across thread
 * counts, with recording off so only the plane is exercised.
 */
bool
verifyDeterminism(const sim::ConstellationConfig &config,
                  long long degrade_sat)
{
    const bool metrics_on = telemetry::enabled();
    const bool journal_on = telemetry::journalEnabled();
    telemetry::setEnabled(false);
    telemetry::setJournalEnabled(false);
    telemetry::health::setHealthEnabled(true);

    bool ok = true;
    std::string reference;
    for (const int threads : {1, 4, 16}) {
        util::setGlobalThreads(threads);
        const std::string bytes = alertBytes(config);
        util::setGlobalThreads(0);
        if (threads == 1) {
            reference = bytes;
            const auto snapshot = telemetry::health::plane().snapshot();
            if (!checkExpectedAlerts(snapshot.alerts, degrade_sat)) {
                ok = false;
                break;
            }
            std::cout << "expected alerts: OK (" << snapshot.alerts.size()
                      << " alert(s), all on satellite " << degrade_sat
                      << ")\n";
            continue;
        }
        if (bytes != reference) {
            std::size_t at = 0;
            while (at < bytes.size() && at < reference.size() &&
                   bytes[at] == reference[at]) {
                ++at;
            }
            std::cerr << "[kodan-bench] DETERMINISM VIOLATION: alert "
                         "JSONL diverged at "
                      << threads << " threads (byte " << at << ")\n";
            ok = false;
            break;
        }
    }
    telemetry::health::plane().reset();
    telemetry::setEnabled(metrics_on);
    telemetry::setJournalEnabled(journal_on);
    if (ok) {
        std::cout << "alert determinism: OK (1/4/16 threads "
                     "byte-identical JSONL)\n";
    }
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    kodan::bench::initHarness(argc, argv);

    Scenario s;
    double assert_overhead = 0.03;
    bool verify = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << arg << "\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--sats") {
            s.sats = std::stoi(next());
        } else if (arg == "--planes") {
            s.planes = std::stoi(next());
        } else if (arg == "--days") {
            s.days = std::stod(next());
        } else if (arg == "--shard-size") {
            s.shard_size = static_cast<std::size_t>(std::stoul(next()));
        } else if (arg == "--chunk-hours") {
            s.chunk_hours = std::stod(next());
        } else if (arg == "--bin-minutes") {
            s.bin_minutes = std::stod(next());
        } else if (arg == "--storage-gbits") {
            s.storage_gbits = std::stod(next());
        } else if (arg == "--degrade-sat") {
            s.degrade_sat = std::stoll(next());
        } else if (arg == "--degrade-after-h") {
            s.degrade_after_h = std::stod(next());
        } else if (arg == "--assert-overhead") {
            assert_overhead = std::stod(next());
        } else if (arg == "--verify") {
            verify = true;
        } else {
            std::cerr << "unknown argument: " << arg << "\n";
            return 2;
        }
    }

    bench::banner("Fleet health plane: determinism, accuracy, overhead",
                  "observability guard; no paper figure");

    const auto config = makeScenario(s);
    if (verify && !verifyDeterminism(config, s.degrade_sat)) {
        return 1;
    }

    const sim::ConstellationEngine engine(nullptr, 1.0 / 3.0);

    // Baseline: health plane off — the engine skips the fold entirely.
    telemetry::health::setHealthEnabled(false);
    sim::MissionResult result;
    const double wall_off = timeSeconds(
        [&] { result = engine.run(config, kodanFilter()); });

    // Measured runs last, with the plane armed and metrics on so the
    // fold's self-timer records: the harness exit hooks then snapshot
    // exactly the final run's alerts and metrics. The overhead verdict
    // takes the best of three repetitions — the fold is deterministic
    // work, so its *minimum* cost is the real cost and the occasional
    // scheduler hiccup that inflates one repetition is not a
    // regression.
    constexpr int kOverheadReps = 3;
    double wall_on = 0.0;
    double fold_s = 0.0;
    double overhead = 0.0;
    double overhead_best = 0.0;
    for (int rep = 0; rep < kOverheadReps; ++rep) {
        telemetry::resetAll();
        telemetry::setEnabled(true);
        telemetry::health::setHealthEnabled(true);
        wall_on = timeSeconds(
            [&] { result = engine.run(config, kodanFilter()); });
        const auto metrics = telemetry::registry().snapshot();
        const auto *fold = metrics.find("telemetry.self.health.fold_s");
        fold_s = fold != nullptr ? fold->sum : 0.0;
        overhead = wall_on > 0.0 ? fold_s / wall_on : 0.0;
        overhead_best = rep == 0 ? overhead
                                 : std::min(overhead_best, overhead);
    }
    const auto snapshot = telemetry::health::plane().snapshot();
    const auto totals = result.totals();
    const int threads = util::globalThreadCount();

    util::TablePrinter table({"metric", "value"});
    table.addRow({"satellites", util::TablePrinter::fmt(
                                    static_cast<long long>(s.sats))});
    table.addRow({"simulated days", util::TablePrinter::fmt(s.days, 1)});
    table.addRow({"pool threads", util::TablePrinter::fmt(
                                      static_cast<long long>(threads))});
    table.addRow({"degraded satellite",
                  util::TablePrinter::fmt(
                      static_cast<long long>(s.degrade_sat))});
    table.addRow({"frames observed",
                  util::TablePrinter::fmt(static_cast<long long>(
                      totals.frames_observed))});
    table.addRow({"health observations",
                  util::TablePrinter::fmt(
                      static_cast<long long>(snapshot.observations))});
    table.addRow({"entities tracked",
                  util::TablePrinter::fmt(
                      static_cast<long long>(snapshot.entities))});
    table.addRow({"alerts fired",
                  util::TablePrinter::fmt(
                      static_cast<long long>(snapshot.alerts_fired))});
    table.addRow({"alerts firing",
                  util::TablePrinter::fmt(
                      static_cast<long long>(snapshot.alerts_firing))});
    table.addRow({"wall seconds (health off)",
                  util::TablePrinter::fmt(wall_off, 3)});
    table.addRow({"wall seconds (health on)",
                  util::TablePrinter::fmt(wall_on, 3)});
    table.addRow({"health fold seconds",
                  util::TablePrinter::fmt(fold_s, 6)});
    table.addRow({"fold / wall fraction",
                  util::TablePrinter::fmt(overhead, 4)});
    table.addRow({"fold / wall best-of-" + std::to_string(kOverheadReps),
                  util::TablePrinter::fmt(overhead_best, 4)});
    table.print(std::cout);
    bench::emitCsv("bench_health", table);

    const std::string path = bench::runRecordPath("health");
    std::ofstream json(path);
    if (json) {
        json << "{\n  \"satellites\": " << s.sats
             << ",\n  \"days\": " << s.days
             << ",\n  \"threads\": " << threads
             << ",\n  \"degraded_satellite\": " << s.degrade_sat
             << ",\n  \"health_observations\": " << snapshot.observations
             << ",\n  \"alerts_fired\": " << snapshot.alerts_fired
             << ",\n  \"alerts_firing\": " << snapshot.alerts_firing
             << ",\n  \"wall_seconds_off\": " << wall_off
             << ",\n  \"wall_seconds_on\": " << wall_on
             << ",\n  \"fold_seconds\": " << fold_s
             << ",\n  \"fold_wall_fraction\": " << overhead
             << ",\n  \"fold_wall_fraction_best\": " << overhead_best
             << "\n}\n";
    }

    if (assert_overhead > 0.0 && overhead_best > assert_overhead) {
        std::cerr << "[kodan-bench] OVERHEAD REGRESSION: health fold "
                     "consumed "
                  << overhead_best
                  << " of the mission wall time (budget "
                  << assert_overhead << ")\n";
        return 1;
    }
    return 0;
}
