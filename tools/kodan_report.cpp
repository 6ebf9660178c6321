/**
 * @file
 * kodan-report — regression pipeline CLI over telemetry outputs.
 *
 * Subcommands:
 *
 *   kodan-report diff <base> <current> [<base> <current>]...
 *       [--tol-timer F] [--tol-value F] [--timer-floor SECONDS]
 *       [--tol NAME=F]... [--ignore PREFIX]...
 *       [--markdown PATH]
 *     Compares each baseline/current pair of telemetry documents. A
 *     pair's type comes from its document: a metrics snapshot
 *     (writeMetricsJson), a flight-recorder journal, a sim-time series
 *     document, a health-plane alert export, or a CPU profile. Timers
 *     and span task-clock regress when slower than --tol-timer
 *     (default 0.5) above --timer-floor seconds (default 1e-3);
 *     counters, gauges, histograms, series bins and span calls compare
 *     within --tol-value (default 0 = bit-equal); --tol overrides one
 *     record's tolerance and --ignore drops records by name prefix.
 *     Journals and alerts compare record by record. Profile pairs also
 *     rank frames by self-time regression and spans by cycle (or
 *     task-clock) regression. Prints one markdown summary over every
 *     pair (to stdout, or PATH with --markdown). Exit status: 0 when no
 *     regression, 1 on regression, 2 on usage/parse errors and on a
 *     pair whose two documents differ in type.
 *
 *   kodan-report profile <profile.json> [--top K]
 *     Summarizes a CPU profile (--profile-out output): sample header,
 *     top K frames by self time, and the per-span counter table
 *     (IPC / cache-miss attribution; default K 20). Exit status: 0 on
 *     success, 2 on usage/parse errors.
 *
 *   kodan-report health <alerts.jsonl> [--journal <journal.jsonl>]
 *       [--top K]
 *     Summarizes a health-plane alert export (writeAlertsJsonl output):
 *     per-rule/entity rollup table plus the top K alerts (default 20).
 *     With --journal, each alert's flight-recorder evidence window is
 *     resolved to the matching journal events. Exit status: 0 on
 *     success, 2 on usage/parse errors.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "telemetry/report.hpp"

namespace report = kodan::telemetry::report;

namespace {

int
usage()
{
    std::cerr
        << "usage:\n"
           "  kodan-report diff <base> <current> [<base> <current>]...\n"
           "      [--tol-timer F] [--tol-value F] [--timer-floor S]\n"
           "      [--tol NAME=F]... [--ignore PREFIX]... "
           "[--markdown PATH]\n"
           "  kodan-report profile <profile.json> [--top K]\n"
           "  kodan-report health <alerts.jsonl>\n"
           "      [--journal <journal.jsonl>] [--top K]\n";
    return 2;
}

int
fail(const std::string &message)
{
    std::cerr << "kodan-report: " << message << "\n";
    return 2;
}

/** A tolerance or floor: a finite, non-negative number. */
bool
parseTolerance(const std::string &text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end != text.c_str() && *end == '\0' && std::isfinite(out) &&
           out >= 0.0;
}

/** A row count: a non-negative integer. */
bool
parseCount(const std::string &text, std::size_t &out)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos) {
        return false;
    }
    errno = 0;
    out = std::strtoull(text.c_str(), nullptr, 10);
    return errno == 0;
}

int
badValue(const std::string &flag, const std::string &value)
{
    return fail("bad " + flag + " value " + value +
                (flag == "--top" ? " (want an integer >= 0)"
                                 : " (want a finite number >= 0)"));
}

int
runDiff(const std::vector<std::string> &args)
{
    std::vector<std::string> paths;
    std::string markdown_path;
    report::Tolerances tol;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        double *field = arg == "--tol-timer"     ? &tol.timer_rel
                        : arg == "--tol-value"   ? &tol.value_rel
                        : arg == "--timer-floor" ? &tol.timer_floor_s
                                                 : nullptr;
        if (field != nullptr && i + 1 < args.size()) {
            if (!parseTolerance(args[++i], *field)) {
                return badValue(arg, args[i]);
            }
        } else if (arg == "--tol" && i + 1 < args.size()) {
            const std::string &spec = args[++i];
            const std::size_t eq = spec.find('=');
            double value = 0.0;
            if (eq == std::string::npos ||
                !parseTolerance(spec.substr(eq + 1), value)) {
                return fail("bad --tol spec (want NAME=F, F a finite "
                            "number >= 0): " +
                            spec);
            }
            tol.overrides.emplace_back(spec.substr(0, eq), value);
        } else if (arg == "--ignore" && i + 1 < args.size()) {
            tol.ignore_prefixes.push_back(args[++i]);
        } else if (arg == "--markdown" && i + 1 < args.size()) {
            markdown_path = args[++i];
        } else if (!arg.empty() && arg[0] == '-') {
            return fail("unknown diff option: " + arg);
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty() || paths.size() % 2 != 0) {
        return usage();
    }

    report::DiffResult diff;
    for (std::size_t i = 0; i < paths.size(); i += 2) {
        std::string error;
        report::Document base;
        report::Document cur;
        if (!report::load(paths[i], base, &error) ||
            !report::load(paths[i + 1], cur, &error)) {
            return fail(error);
        }
        if (!report::diff(base, cur, tol, diff, &error)) {
            return fail(paths[i] + " vs " + paths[i + 1] + ": " + error);
        }
    }

    if (markdown_path.empty()) {
        report::writeMarkdown(diff, paths[0], paths[1], std::cout);
    } else {
        std::ofstream out(markdown_path);
        if (!out) {
            return fail("cannot write " + markdown_path);
        }
        report::writeMarkdown(diff, paths[0], paths[1], out);
        std::cerr << "kodan-report: wrote " << markdown_path << "\n";
    }
    return diff.hasRegression() ? 1 : 0;
}

int
runHealth(const std::vector<std::string> &args)
{
    std::vector<std::string> positional;
    std::string journal_path;
    std::size_t top = 20;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--journal" && i + 1 < args.size()) {
            journal_path = args[++i];
        } else if (arg == "--top" && i + 1 < args.size()) {
            if (!parseCount(args[++i], top)) {
                return badValue(arg, args[i]);
            }
        } else if (!arg.empty() && arg[0] == '-') {
            return fail("unknown health option: " + arg);
        } else {
            positional.push_back(arg);
        }
    }
    if (positional.size() != 1) {
        return usage();
    }

    std::string error;
    report::AlertsDoc doc;
    if (!report::load(positional[0], doc, &error)) {
        return fail(error);
    }

    std::cout << "# kodan-report: health `" << positional[0] << "`\n\n"
              << "- alerts: " << doc.alerts.size() << " (" << doc.firing
              << " firing)\n";

    // Per-rule rollup: fired / still-firing / entities touched.
    struct RuleRollup
    {
        std::string rule;
        std::size_t fired = 0;
        std::size_t firing = 0;
        std::vector<std::int64_t> entities;
    };
    std::vector<RuleRollup> rollups;
    for (const report::AlertReading &alert : doc.alerts) {
        RuleRollup *rollup = nullptr;
        for (RuleRollup &existing : rollups) {
            if (existing.rule == alert.rule) {
                rollup = &existing;
                break;
            }
        }
        if (rollup == nullptr) {
            rollups.push_back({alert.rule, 0, 0, {}});
            rollup = &rollups.back();
        }
        ++rollup->fired;
        if (alert.state == "firing") {
            ++rollup->firing;
        }
        if (std::find(rollup->entities.begin(), rollup->entities.end(),
                      alert.entity) == rollup->entities.end()) {
            rollup->entities.push_back(alert.entity);
        }
    }
    if (!rollups.empty()) {
        std::cout << "\n| rule | fired | firing | entities |\n"
                  << "| --- | --- | --- | --- |\n";
        for (const RuleRollup &rollup : rollups) {
            std::cout << "| " << rollup.rule << " | " << rollup.fired
                      << " | " << rollup.firing << " | "
                      << rollup.entities.size() << " |\n";
        }
    }

    report::JournalDoc journal;
    const bool have_journal =
        !journal_path.empty() && report::load(journal_path, journal, &error);
    if (!journal_path.empty() && !have_journal) {
        return fail(error);
    }

    std::cout << "\n";
    std::size_t shown = 0;
    for (const report::AlertReading &alert : doc.alerts) {
        if (shown++ >= top) {
            std::cout << "... " << (doc.alerts.size() - top)
                      << " more alert(s) not shown (--top)\n";
            break;
        }
        std::cout << "[" << alert.state << "] " << alert.rule << " "
                  << alert.kind << "/" << alert.entity << " bins "
                  << alert.first_bin << ".." << alert.last_bin
                  << " peak " << alert.peak << " last " << alert.last
                  << "\n";
        if (have_journal && alert.has_journal) {
            for (const report::JournalLine &event : journal.events) {
                if (event.region == alert.journal_region &&
                    event.slot == alert.journal_slot &&
                    event.ord >= alert.journal_ord_lo &&
                    event.ord <= alert.journal_ord_hi) {
                    std::cout << "    evidence: " << event.canonical
                              << "\n";
                }
            }
        }
    }
    return 0;
}

int
runProfile(const std::vector<std::string> &args)
{
    std::vector<std::string> positional;
    std::size_t top = 20;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--top" && i + 1 < args.size()) {
            if (!parseCount(args[++i], top)) {
                return badValue(arg, args[i]);
            }
        } else if (!arg.empty() && arg[0] == '-') {
            return fail("unknown profile option: " + arg);
        } else {
            positional.push_back(arg);
        }
    }
    if (positional.size() != 1) {
        return usage();
    }
    std::string error;
    report::ProfileDoc doc;
    if (!report::load(positional[0], doc, &error)) {
        return fail(error);
    }
    report::writeProfileMarkdown(doc, positional[0], top, std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        return usage();
    }
    const std::string command = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    if (command == "diff") {
        return runDiff(args);
    }
    if (command == "profile") {
        return runProfile(args);
    }
    if (command == "health") {
        return runHealth(args);
    }
    return usage();
}
