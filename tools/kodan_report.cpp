/**
 * @file
 * kodan-report — regression pipeline CLI over telemetry outputs.
 *
 * Subcommands:
 *
 *   kodan-report diff <base.json> <current.json>
 *       [--journal <base.jsonl> <current.jsonl>]
 *       [--timeseries <base.timeseries.json> <current.timeseries.json>]
 *       [--tol-timer F] [--tol-value F] [--tol-bin F]
 *       [--timer-floor SECONDS]
 *       [--tol NAME=F]... [--ignore PREFIX]...
 *       [--markdown PATH]
 *     Compares two metrics snapshots (writeMetricsJson output) and
 *     optionally two flight-recorder journals and/or two sim-time
 *     series documents (--tol-bin sets the per-bin relative tolerance,
 *     default 0 = bit-equal). Prints the markdown summary (to stdout,
 *     or PATH with --markdown). Exit status: 0 when no regression, 1 on
 *     regression, 2 on usage/parse errors.
 *
 *   kodan-report profile <profile.json> [--top K]
 *     Summarizes a CPU profile (--profile-out output): sample header,
 *     top K frames by self time, and the per-span counter table
 *     (IPC / cache-miss attribution; default K 20). Exit status: 0 on
 *     success, 2 on usage/parse errors.
 *
 *   kodan-report profile diff <base.json> <current.json> [--top K]
 *       [--assert] [--tol-calls F] [--tol-cost F] [--cost-floor S]
 *     Ranks regressed frames by delta self-time and regressed spans by
 *     delta cycles (delta task-clock when either run used the rusage
 *     fallback). Span call counts are deterministic and compared
 *     exactly by default (--tol-calls); span costs compare within
 *     --tol-cost relative slowdown (default 0.5) above --cost-floor
 *     seconds (default 1e-3). Exit status: without --assert always 0
 *     unless files fail to parse (2); with --assert, 1 when any
 *     tolerance finding is a regression.
 *
 *   kodan-report health <alerts.jsonl> [--baseline <base.jsonl>]
 *       [--journal <journal.jsonl>] [--top K]
 *     Summarizes a health-plane alert export (writeAlertsJsonl output):
 *     per-rule/entity rollup table plus the top K alerts (default 20).
 *     With --journal, each alert's flight-recorder evidence window is
 *     resolved to the matching journal events. With --baseline, diffs
 *     the alert stream against the committed baseline — the stream is
 *     deterministic, so any divergence is a regression. Exit status: 0
 *     when no regression, 1 on divergence, 2 on usage/parse errors.
 */

#include <algorithm>
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
           "  kodan-report diff <base.json> <current.json>\n"
           "      [--journal <base.jsonl> <current.jsonl>]\n"
           "      [--timeseries <base.ts.json> <current.ts.json>]\n"
           "      [--tol-timer F] [--tol-value F] [--tol-bin F]\n"
           "      [--timer-floor S]\n"
           "      [--tol NAME=F]... [--ignore PREFIX]... "
           "[--markdown PATH]\n"
           "  kodan-report profile <profile.json> [--top K]\n"
           "  kodan-report profile diff <base.json> <current.json>\n"
           "      [--top K] [--assert] [--tol-calls F] [--tol-cost F]\n"
           "      [--cost-floor S]\n"
           "  kodan-report health <alerts.jsonl>\n"
           "      [--baseline <base.jsonl>] [--journal <journal.jsonl>]\n"
           "      [--top K]\n";
    return 2;
}

int
fail(const std::string &message)
{
    std::cerr << "kodan-report: " << message << "\n";
    return 2;
}

bool
parseDouble(const std::string &text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end != nullptr && *end == '\0' && end != text.c_str();
}

int
runDiff(const std::vector<std::string> &args)
{
    std::vector<std::string> positional;
    std::string journal_base;
    std::string journal_cur;
    std::string ts_base;
    std::string ts_cur;
    std::string markdown_path;
    double tol_bin = 0.0;
    report::Tolerances tol;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--journal" && i + 2 < args.size()) {
            journal_base = args[++i];
            journal_cur = args[++i];
        } else if (arg == "--timeseries" && i + 2 < args.size()) {
            ts_base = args[++i];
            ts_cur = args[++i];
        } else if (arg == "--tol-bin" && i + 1 < args.size()) {
            if (!parseDouble(args[++i], tol_bin)) {
                return fail("bad --tol-bin value");
            }
        } else if (arg == "--tol-timer" && i + 1 < args.size()) {
            if (!parseDouble(args[++i], tol.timer_rel)) {
                return fail("bad --tol-timer value");
            }
        } else if (arg == "--tol-value" && i + 1 < args.size()) {
            if (!parseDouble(args[++i], tol.value_rel)) {
                return fail("bad --tol-value value");
            }
        } else if (arg == "--timer-floor" && i + 1 < args.size()) {
            if (!parseDouble(args[++i], tol.timer_floor_s)) {
                return fail("bad --timer-floor value");
            }
        } else if (arg == "--tol" && i + 1 < args.size()) {
            const std::string &spec = args[++i];
            const std::size_t eq = spec.find('=');
            double value = 0.0;
            if (eq == std::string::npos ||
                !parseDouble(spec.substr(eq + 1), value)) {
                return fail("bad --tol spec (want NAME=F): " + spec);
            }
            tol.overrides.emplace_back(spec.substr(0, eq), value);
        } else if (arg == "--ignore" && i + 1 < args.size()) {
            tol.ignore_prefixes.push_back(args[++i]);
        } else if (arg == "--markdown" && i + 1 < args.size()) {
            markdown_path = args[++i];
        } else if (!arg.empty() && arg[0] == '-') {
            return fail("unknown diff option: " + arg);
        } else {
            positional.push_back(arg);
        }
    }
    if (positional.size() != 2) {
        return usage();
    }

    std::string error;
    report::Snapshot base;
    report::Snapshot cur;
    if (!report::loadSnapshot(positional[0], base, &error) ||
        !report::loadSnapshot(positional[1], cur, &error)) {
        return fail(error);
    }
    report::DiffResult diff = report::diffSnapshots(base, cur, tol);
    if (!journal_base.empty()) {
        report::JournalDoc jbase;
        report::JournalDoc jcur;
        if (!report::loadJournal(journal_base, jbase, &error) ||
            !report::loadJournal(journal_cur, jcur, &error)) {
            return fail(error);
        }
        diff = report::mergeDiffs(std::move(diff),
                                  report::diffJournals(jbase, jcur));
    }
    if (!ts_base.empty()) {
        report::TimeSeriesDoc tbase;
        report::TimeSeriesDoc tcur;
        if (!report::loadTimeSeries(ts_base, tbase, &error) ||
            !report::loadTimeSeries(ts_cur, tcur, &error)) {
            return fail(error);
        }
        diff = report::mergeDiffs(
            std::move(diff), report::diffTimeSeries(tbase, tcur, tol_bin));
    }

    if (markdown_path.empty()) {
        report::writeMarkdown(diff, positional[0], positional[1],
                              std::cout);
    } else {
        std::ofstream out(markdown_path);
        if (!out) {
            return fail("cannot write " + markdown_path);
        }
        report::writeMarkdown(diff, positional[0], positional[1], out);
        std::cerr << "kodan-report: wrote " << markdown_path << "\n";
    }
    return diff.hasRegression() ? 1 : 0;
}

int
runHealth(const std::vector<std::string> &args)
{
    std::vector<std::string> positional;
    std::string baseline_path;
    std::string journal_path;
    std::size_t top = 20;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--baseline" && i + 1 < args.size()) {
            baseline_path = args[++i];
        } else if (arg == "--journal" && i + 1 < args.size()) {
            journal_path = args[++i];
        } else if (arg == "--top" && i + 1 < args.size()) {
            top = static_cast<std::size_t>(
                std::strtoul(args[++i].c_str(), nullptr, 10));
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
    if (!report::loadAlerts(positional[0], doc, &error)) {
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
        !journal_path.empty() &&
        report::loadJournal(journal_path, journal, &error);
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

    if (!baseline_path.empty()) {
        report::AlertsDoc base;
        if (!report::loadAlerts(baseline_path, base, &error)) {
            return fail(error);
        }
        const report::DiffResult diff = report::diffAlerts(base, doc);
        std::cout << "\n";
        report::writeMarkdown(diff, baseline_path, positional[0],
                              std::cout);
        return diff.hasRegression() ? 1 : 0;
    }
    return 0;
}

int
runProfile(const std::vector<std::string> &args)
{
    const bool is_diff = !args.empty() && args[0] == "diff";
    std::vector<std::string> positional;
    std::size_t top = 20;
    bool assert_clean = false;
    report::ProfileTolerances tol;
    for (std::size_t i = is_diff ? 1 : 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--top" && i + 1 < args.size()) {
            top = static_cast<std::size_t>(
                std::strtoul(args[++i].c_str(), nullptr, 10));
        } else if (is_diff && arg == "--assert") {
            assert_clean = true;
        } else if (is_diff && arg == "--tol-calls" &&
                   i + 1 < args.size()) {
            if (!parseDouble(args[++i], tol.calls_rel)) {
                return fail("bad --tol-calls value");
            }
        } else if (is_diff && arg == "--tol-cost" &&
                   i + 1 < args.size()) {
            if (!parseDouble(args[++i], tol.cost_rel)) {
                return fail("bad --tol-cost value");
            }
        } else if (is_diff && arg == "--cost-floor" &&
                   i + 1 < args.size()) {
            if (!parseDouble(args[++i], tol.cost_floor_s)) {
                return fail("bad --cost-floor value");
            }
        } else if (!arg.empty() && arg[0] == '-') {
            return fail("unknown profile option: " + arg);
        } else {
            positional.push_back(arg);
        }
    }

    std::string error;
    if (!is_diff) {
        if (positional.size() != 1) {
            return usage();
        }
        report::ProfileDoc doc;
        if (!report::loadProfile(positional[0], doc, &error)) {
            return fail(error);
        }
        report::writeProfileMarkdown(doc, positional[0], top, std::cout);
        return 0;
    }

    if (positional.size() != 2) {
        return usage();
    }
    report::ProfileDoc base;
    report::ProfileDoc cur;
    if (!report::loadProfile(positional[0], base, &error) ||
        !report::loadProfile(positional[1], cur, &error)) {
        return fail(error);
    }
    const report::ProfileDiffResult diff =
        report::diffProfiles(base, cur, tol);
    report::writeProfileDiffMarkdown(diff, positional[0], positional[1],
                                     top, std::cout);
    if (assert_clean && diff.findings.hasRegression()) {
        return 1;
    }
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
