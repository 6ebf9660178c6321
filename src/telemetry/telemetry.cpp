#include "telemetry/telemetry.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>

#include "util/log.hpp"

namespace kodan::telemetry {

namespace {

std::mutex g_output_mutex;
std::string g_output_path;         // guarded by g_output_mutex
std::string g_journal_output_path; // guarded by g_output_mutex
std::string g_alerts_output_path;  // guarded by g_output_mutex
std::atomic<bool> g_exit_hook_armed{false};

/** foo.json -> foo<suffix>; anything else gets <suffix> appended. */
std::string
siblingPathFor(const std::string &metrics_path, const char *sibling)
{
    const std::string suffix = ".json";
    if (metrics_path.size() > suffix.size() &&
        metrics_path.compare(metrics_path.size() - suffix.size(),
                             suffix.size(), suffix) == 0) {
        return metrics_path.substr(0,
                                   metrics_path.size() - suffix.size()) +
               sibling;
    }
    return metrics_path + sibling;
}

void
armExitHook()
{
    if (!g_exit_hook_armed.exchange(true)) {
        std::atexit(&writeOutputs);
    }
}

/** Warn+ log lines become counters and instant trace events. */
void
logTap(util::LogLevel level, const std::string &message)
{
    if (!enabled() ||
        static_cast<int>(level) < static_cast<int>(util::LogLevel::Warn)) {
        return;
    }
    if (level == util::LogLevel::Warn) {
        KODAN_COUNT("util.log.warnings.emitted");
    } else {
        KODAN_COUNT("util.log.errors.emitted");
    }
    Tracer::instance().recordInstant("log: " + message);
}

} // namespace

namespace detail {

void
installLogBridge()
{
    util::setLogTap(&logTap);
}

} // namespace detail

bool
configureFromArgs(int &argc, char **argv)
{
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--telemetry-out") == 0 && i + 1 < argc) {
            setOutputPath(argv[++i]);
            setEnabled(true);
        } else if (std::strncmp(arg, "--telemetry-out=", 16) == 0) {
            setOutputPath(arg + 16);
            setEnabled(true);
        } else if (std::strcmp(arg, "--journal-out") == 0 && i + 1 < argc) {
            setJournalOutputPath(argv[++i]);
            setJournalEnabled(true);
        } else if (std::strncmp(arg, "--journal-out=", 14) == 0) {
            setJournalOutputPath(arg + 14);
            setJournalEnabled(true);
        } else if (std::strcmp(arg, "--alerts-out") == 0 &&
                   i + 1 < argc) {
            setAlertsOutputPath(argv[++i]);
            health::setHealthEnabled(true);
        } else if (std::strncmp(arg, "--alerts-out=", 13) == 0) {
            setAlertsOutputPath(arg + 13);
            health::setHealthEnabled(true);
        } else if (std::strcmp(arg, "--profile-out") == 0 &&
                   i + 1 < argc) {
            prof::setProfileOutputPath(argv[++i]);
            prof::setProfilingEnabled(true);
        } else if (std::strncmp(arg, "--profile-out=", 14) == 0) {
            prof::setProfileOutputPath(arg + 14);
            prof::setProfilingEnabled(true);
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    argv[argc] = nullptr;
    // KODAN_PROF can also enable the profiling plane (possibly with a
    // path-like value as the output path).
    prof::configureFromEnv();
    if (enabled() || journalEnabled() || health::healthEnabled() ||
        prof::profilingEnabled()) {
        armExitHook();
        return true;
    }
    return false;
}

std::string
outputPath()
{
    std::lock_guard<std::mutex> lock(g_output_mutex);
    return g_output_path;
}

void
setOutputPath(const std::string &path)
{
    {
        std::lock_guard<std::mutex> lock(g_output_mutex);
        g_output_path = path;
    }
    armExitHook();
}

std::string
journalOutputPath()
{
    std::lock_guard<std::mutex> lock(g_output_mutex);
    return g_journal_output_path;
}

void
setJournalOutputPath(const std::string &path)
{
    {
        std::lock_guard<std::mutex> lock(g_output_mutex);
        g_journal_output_path = path;
    }
    armExitHook();
}

std::string
alertsOutputPath()
{
    {
        std::lock_guard<std::mutex> lock(g_output_mutex);
        if (!g_alerts_output_path.empty()) {
            return g_alerts_output_path;
        }
    }
    // KODAN_ALERTS doubles as the output path when its value is not a
    // bare on/off toggle.
    if (const char *env = std::getenv("KODAN_ALERTS")) {
        if (*env != '\0' && std::strcmp(env, "0") != 0 &&
            std::strcmp(env, "1") != 0 &&
            std::strcmp(env, "true") != 0 &&
            std::strcmp(env, "false") != 0 &&
            std::strcmp(env, "on") != 0 &&
            std::strcmp(env, "off") != 0) {
            return env;
        }
    }
    return std::string();
}

void
setAlertsOutputPath(const std::string &path)
{
    {
        std::lock_guard<std::mutex> lock(g_output_mutex);
        g_alerts_output_path = path;
    }
    armExitHook();
}

namespace {

void
writeMetricsOutputs(const std::string &path)
{
    const RegistrySnapshot snapshot = registry().snapshot();
    if (path.empty()) {
        std::cerr << "[kodan-telemetry] metrics snapshot:\n";
        writeMetricsTable(snapshot, std::cerr);
        return;
    }
    std::ofstream metrics_file(path);
    if (!metrics_file) {
        std::cerr << "[kodan-telemetry] cannot write " << path << "\n";
    } else {
        writeMetricsJson(snapshot, metrics_file);
        std::cerr << "[kodan-telemetry] wrote metrics snapshot to "
                  << path << "\n";
    }
    const std::string trace_path = siblingPathFor(path, ".trace.json");
    std::ofstream trace_file(trace_path);
    if (!trace_file) {
        std::cerr << "[kodan-telemetry] cannot write " << trace_path
                  << "\n";
    } else {
        Tracer &tracer = Tracer::instance();
        writeChromeTrace(tracer.collect(), tracer.droppedEvents(),
                         trace_file);
        std::cerr << "[kodan-telemetry] wrote Chrome trace to "
                  << trace_path << " (load at chrome://tracing)\n";
    }
    const TimeSeriesSnapshot series = timeSeriesSnapshot();
    const std::string ts_json_path =
        siblingPathFor(path, ".timeseries.json");
    std::ofstream ts_json(ts_json_path);
    if (!ts_json) {
        std::cerr << "[kodan-telemetry] cannot write " << ts_json_path
                  << "\n";
    } else {
        writeTimeSeriesJson(series, ts_json);
        std::cerr << "[kodan-telemetry] wrote " << series.series.size()
                  << " time series to " << ts_json_path << "\n";
    }
}

void
writeAlertsOutputs(const std::string &path)
{
    const health::HealthSnapshot snapshot = health::plane().snapshot();
    if (path.empty()) {
        std::cerr << "[kodan-health] " << snapshot.alerts.size()
                  << " alert(s), " << snapshot.alerts_firing
                  << " firing (set --alerts-out <path> for the "
                     "JSONL)\n";
        return;
    }
    std::ofstream alerts_file(path);
    if (!alerts_file) {
        std::cerr << "[kodan-health] cannot write " << path << "\n";
        return;
    }
    health::writeAlertsJsonl(snapshot.alerts, alerts_file);
    std::cerr << "[kodan-health] wrote " << snapshot.alerts.size()
              << " alert(s) to " << path << "\n";
}

void
writeJournalOutputs(const std::string &path)
{
    const std::vector<JournalEvent> events = collectJournal();
    const std::uint64_t dropped = journalDroppedEvents();
    if (path.empty()) {
        std::cerr << "[kodan-journal] " << events.size()
                  << " event(s) recorded, " << dropped
                  << " dropped (set --journal-out <path> for the JSONL)\n";
        return;
    }
    std::ofstream journal_file(path);
    if (!journal_file) {
        std::cerr << "[kodan-journal] cannot write " << path << "\n";
        return;
    }
    writeJournalJsonl(events, dropped, journal_file);
    std::cerr << "[kodan-journal] wrote " << events.size()
              << " event(s) to " << path << "\n";
}

} // namespace

void
writeOutputs()
{
    // Account for any rate-limited log sites before the run's outputs
    // are finalized, so suppression never goes unreported.
    util::flushLogSuppressed();
    std::string metrics_path;
    std::string journal_path;
    {
        std::lock_guard<std::mutex> lock(g_output_mutex);
        metrics_path = g_output_path;
        journal_path = g_journal_output_path;
    }
    if (enabled()) {
        writeMetricsOutputs(metrics_path);
    }
    if (journalEnabled()) {
        writeJournalOutputs(journal_path);
    }
    if (health::healthEnabled()) {
        writeAlertsOutputs(alertsOutputPath());
    }
    if (prof::profilingEnabled()) {
        prof::writeProfileOutputs();
    }
}

void
resetAll()
{
    registry().reset();
    Tracer::instance().reset();
    clearJournal();
    clearTimeSeries();
    health::plane().reset();
    prof::resetProfile();
}

} // namespace kodan::telemetry
