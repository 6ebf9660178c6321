#include "telemetry/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "telemetry/export.hpp"
#include "util/json.hpp"

namespace kodan::telemetry::report {

namespace {

namespace json = kodan::util::json;

std::string
percentDelta(double base, double cur)
{
    if (base == 0.0) {
        return cur == 0.0 ? "+0%" : "new-from-zero";
    }
    const double pct = 100.0 * (cur - base) / std::fabs(base);
    char buffer[48];
    std::snprintf(buffer, sizeof(buffer), "%+.1f%%", pct);
    return buffer;
}

bool
readFile(const std::string &path, std::string &out, std::string *error)
{
    std::ifstream file(path, std::ios::binary);
    if (!file) {
        if (error != nullptr) {
            *error = "cannot open " + path;
        }
        return false;
    }
    std::ostringstream text;
    text << file.rdbuf();
    out = text.str();
    return true;
}

void
fail(std::string *error, const std::string &message)
{
    if (error != nullptr) {
        *error = message;
    }
}

/** Re-serialize a parsed journal "fields" object deterministically. */
std::string
canonicalFields(const json::Value &fields)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[key, value] : fields.members()) {
        if (!first) {
            out += ", ";
        }
        first = false;
        out += key + "=";
        switch (value.kind()) {
          case json::Value::Kind::Number:
            out += jsonNumber(value.asNumber());
            break;
          case json::Value::Kind::String:
            out += "\"" + value.asString() + "\"";
            break;
          case json::Value::Kind::Bool:
            out += value.asBool() ? "true" : "false";
            break;
          default:
            out += "?";
        }
    }
    out += "}";
    return out;
}

} // namespace

/* ------------------------------------------------------------------ */
/* Snapshot loading                                                    */
/* ------------------------------------------------------------------ */

const MetricReading *
Snapshot::find(const std::string &name) const
{
    const auto it = std::lower_bound(
        metrics.begin(), metrics.end(), name,
        [](const MetricReading &m, const std::string &n) {
            return m.name < n;
        });
    if (it != metrics.end() && it->name == name) {
        return &*it;
    }
    return nullptr;
}

bool
parseSnapshot(const std::string &text, Snapshot &out, std::string *error)
{
    json::Value doc;
    if (!json::parse(text, doc, error)) {
        return false;
    }
    const json::Value *metrics = doc.find("metrics");
    if (metrics == nullptr || !metrics->isArray()) {
        fail(error, "snapshot has no \"metrics\" array");
        return false;
    }
    out.metrics.clear();
    for (const json::Value &entry : metrics->array()) {
        if (!entry.isObject()) {
            fail(error, "snapshot metric entry is not an object");
            return false;
        }
        MetricReading m;
        m.name = entry.stringOr("name", "");
        m.type = entry.stringOr("type", "");
        if (m.name.empty() || m.type.empty()) {
            fail(error, "snapshot metric entry lacks name/type");
            return false;
        }
        if (m.type == "counter") {
            m.count =
                static_cast<std::int64_t>(entry.numberOr("value", 0.0));
        } else if (m.type == "gauge") {
            m.sum = entry.numberOr("value", 0.0);
        } else if (m.type == "timer") {
            m.count =
                static_cast<std::int64_t>(entry.numberOr("count", 0.0));
            m.sum = entry.numberOr("total_s", 0.0);
            m.max = entry.numberOr("max_s", 0.0);
        } else {
            // histogram (and any future kind): generic count/sum/max.
            m.count =
                static_cast<std::int64_t>(entry.numberOr("count", 0.0));
            m.sum = entry.numberOr("sum", 0.0);
            m.max = entry.numberOr("max", 0.0);
        }
        out.metrics.push_back(std::move(m));
    }
    std::sort(out.metrics.begin(), out.metrics.end(),
              [](const MetricReading &a, const MetricReading &b) {
                  return a.name < b.name;
              });
    return true;
}

bool
loadSnapshot(const std::string &path, Snapshot &out, std::string *error)
{
    std::string text;
    if (!readFile(path, text, error)) {
        return false;
    }
    if (!parseSnapshot(text, out, error)) {
        if (error != nullptr) {
            *error = path + ": " + *error;
        }
        return false;
    }
    return true;
}

/* ------------------------------------------------------------------ */
/* Journal loading                                                     */
/* ------------------------------------------------------------------ */

bool
parseJournal(const std::string &text, JournalDoc &out, std::string *error)
{
    std::vector<json::Value> lines;
    if (!json::parseLines(text, lines, error)) {
        return false;
    }
    if (lines.empty()) {
        fail(error, "journal is empty (missing header line)");
        return false;
    }
    const json::Value &header = lines.front();
    if (header.find("kodan_journal") == nullptr) {
        fail(error, "first journal line is not a kodan_journal header");
        return false;
    }
    out.declared_events =
        static_cast<std::uint64_t>(header.numberOr("events", 0.0));
    out.dropped = static_cast<std::uint64_t>(header.numberOr("dropped", 0.0));
    out.events.clear();
    for (std::size_t i = 1; i < lines.size(); ++i) {
        const json::Value &entry = lines[i];
        JournalLine line;
        line.seq = static_cast<std::uint64_t>(entry.numberOr("seq", 0.0));
        line.region =
            static_cast<std::uint64_t>(entry.numberOr("region", 0.0));
        line.slot = static_cast<std::uint64_t>(entry.numberOr("slot", 0.0));
        line.ord = static_cast<std::uint64_t>(entry.numberOr("ord", 0.0));
        line.type = entry.stringOr("type", "");
        if (line.type.empty()) {
            fail(error,
                 "journal line " + std::to_string(i + 1) + " lacks a type");
            return false;
        }
        // The canonical form excludes seq (purely positional) so an
        // inserted event shows up as one divergence, not a tail of
        // renumbered lines.
        std::string canonical =
            "region " + jsonNumber(entry.numberOr("region", 0.0)) +
            " slot " + jsonNumber(entry.numberOr("slot", 0.0)) + " ord " +
            jsonNumber(entry.numberOr("ord", 0.0)) + " " + line.type + " ";
        const json::Value *fields = entry.find("fields");
        canonical += fields != nullptr ? canonicalFields(*fields) : "{}";
        line.canonical = std::move(canonical);
        out.events.push_back(std::move(line));
    }
    return true;
}

bool
loadJournal(const std::string &path, JournalDoc &out, std::string *error)
{
    std::string text;
    if (!readFile(path, text, error)) {
        return false;
    }
    if (!parseJournal(text, out, error)) {
        if (error != nullptr) {
            *error = path + ": " + *error;
        }
        return false;
    }
    return true;
}

/* ------------------------------------------------------------------ */
/* Time-series loading                                                 */
/* ------------------------------------------------------------------ */

const SeriesReading *
TimeSeriesDoc::find(const std::string &name) const
{
    for (const SeriesReading &entry : series) {
        if (entry.name == name) {
            return &entry;
        }
    }
    return nullptr;
}

bool
parseTimeSeries(const std::string &text, TimeSeriesDoc &out,
                std::string *error)
{
    json::Value doc;
    if (!json::parse(text, doc, error)) {
        return false;
    }
    if (doc.find("kodan_timeseries") == nullptr) {
        fail(error, "document has no \"kodan_timeseries\" marker");
        return false;
    }
    const json::Value *series = doc.find("series");
    if (series == nullptr || !series->isArray()) {
        fail(error, "document has no \"series\" array");
        return false;
    }
    out.series.clear();
    for (const json::Value &entry : series->array()) {
        SeriesReading reading;
        reading.name = entry.stringOr("name", "");
        if (reading.name.empty()) {
            fail(error, "series entry lacks a name");
            return false;
        }
        reading.bin_s = entry.numberOr("bin_s", 0.0);
        reading.dropped_bins = static_cast<std::uint64_t>(
            entry.numberOr("dropped_bins", 0.0));
        const json::Value *bins = entry.find("bins");
        if (bins != nullptr && bins->isArray()) {
            for (const json::Value &bin : bins->array()) {
                SeriesBinReading b;
                b.index =
                    static_cast<std::int64_t>(bin.numberOr("bin", 0.0));
                b.count =
                    static_cast<std::int64_t>(bin.numberOr("count", 0.0));
                b.sum = bin.numberOr("sum", 0.0);
                b.min = bin.numberOr("min", 0.0);
                b.max = bin.numberOr("max", 0.0);
                reading.bins.push_back(b);
            }
        }
        out.series.push_back(std::move(reading));
    }
    std::sort(out.series.begin(), out.series.end(),
              [](const SeriesReading &a, const SeriesReading &b) {
                  return a.name < b.name;
              });
    return true;
}

bool
loadTimeSeries(const std::string &path, TimeSeriesDoc &out,
               std::string *error)
{
    std::string text;
    if (!readFile(path, text, error)) {
        return false;
    }
    if (!parseTimeSeries(text, out, error)) {
        if (error != nullptr) {
            *error = path + ": " + *error;
        }
        return false;
    }
    return true;
}

/* ------------------------------------------------------------------ */
/* Alerts loading                                                      */
/* ------------------------------------------------------------------ */

bool
parseAlerts(const std::string &text, AlertsDoc &out, std::string *error)
{
    std::vector<json::Value> lines;
    if (!json::parseLines(text, lines, error)) {
        return false;
    }
    if (lines.empty()) {
        fail(error, "alerts file is empty (missing header line)");
        return false;
    }
    const json::Value &header = lines.front();
    if (header.find("kodan_alerts") == nullptr) {
        fail(error, "first alerts line is not a kodan_alerts header");
        return false;
    }
    out.declared_alerts =
        static_cast<std::uint64_t>(header.numberOr("alerts", 0.0));
    out.firing = static_cast<std::uint64_t>(header.numberOr("firing", 0.0));
    out.alerts.clear();
    for (std::size_t i = 1; i < lines.size(); ++i) {
        const json::Value &entry = lines[i];
        AlertReading alert;
        alert.id = static_cast<std::uint64_t>(entry.numberOr("id", 0.0));
        alert.rule = entry.stringOr("rule", "");
        alert.signal = entry.stringOr("signal", "");
        alert.kind = entry.stringOr("kind", "");
        alert.entity =
            static_cast<std::int64_t>(entry.numberOr("entity", 0.0));
        alert.state = entry.stringOr("state", "");
        if (alert.rule.empty() || alert.state.empty()) {
            fail(error, "alerts line " + std::to_string(i + 1) +
                            " lacks a rule/state");
            return false;
        }
        alert.first_bin =
            static_cast<std::int64_t>(entry.numberOr("first_bin", 0.0));
        alert.last_bin =
            static_cast<std::int64_t>(entry.numberOr("last_bin", 0.0));
        alert.first_t_s = entry.numberOr("first_t_s", 0.0);
        alert.last_t_s = entry.numberOr("last_t_s", 0.0);
        alert.peak = entry.numberOr("peak", 0.0);
        alert.last = entry.numberOr("last", 0.0);
        const json::Value *journal = entry.find("journal");
        if (journal != nullptr &&
            journal->kind() == json::Value::Kind::Object) {
            alert.has_journal = true;
            alert.journal_region = static_cast<std::uint64_t>(
                journal->numberOr("region", 0.0));
            alert.journal_slot = static_cast<std::uint64_t>(
                journal->numberOr("slot", 0.0));
            alert.journal_ord_lo = static_cast<std::uint64_t>(
                journal->numberOr("ord_lo", 0.0));
            alert.journal_ord_hi = static_cast<std::uint64_t>(
                journal->numberOr("ord_hi", 0.0));
        }
        const json::Value *evidence = entry.find("evidence");
        if (evidence != nullptr &&
            evidence->kind() == json::Value::Kind::Array) {
            for (const json::Value &ev : evidence->array()) {
                alert.evidence.emplace_back(
                    static_cast<std::int64_t>(ev.numberOr("bin", 0.0)),
                    ev.numberOr("value", 0.0));
            }
        }
        // The canonical form excludes the id (purely positional) so one
        // inserted alert shows as one divergence, not a renumbered tail.
        std::string canonical = alert.rule + " " + alert.kind + "/" +
                                std::to_string(alert.entity) + " " +
                                alert.state + " bins " +
                                std::to_string(alert.first_bin) + ".." +
                                std::to_string(alert.last_bin) + " peak " +
                                jsonNumber(alert.peak) + " last " +
                                jsonNumber(alert.last) + " evidence [";
        for (std::size_t e = 0; e < alert.evidence.size(); ++e) {
            if (e != 0) {
                canonical += ",";
            }
            canonical += std::to_string(alert.evidence[e].first) + ":" +
                         jsonNumber(alert.evidence[e].second);
        }
        canonical += "]";
        if (alert.has_journal) {
            canonical += " journal " +
                         std::to_string(alert.journal_region) + ":" +
                         std::to_string(alert.journal_slot) + ":" +
                         std::to_string(alert.journal_ord_lo) + ".." +
                         std::to_string(alert.journal_ord_hi);
        }
        alert.canonical = std::move(canonical);
        out.alerts.push_back(std::move(alert));
    }
    return true;
}

bool
loadAlerts(const std::string &path, AlertsDoc &out, std::string *error)
{
    std::string text;
    if (!readFile(path, text, error)) {
        return false;
    }
    if (!parseAlerts(text, out, error)) {
        if (error != nullptr) {
            *error = path + ": " + *error;
        }
        return false;
    }
    return true;
}

/* ------------------------------------------------------------------ */
/* Diffing                                                             */
/* ------------------------------------------------------------------ */

bool
Tolerances::ignored(const std::string &name) const
{
    for (const std::string &prefix : ignore_prefixes) {
        if (name.compare(0, prefix.size(), prefix) == 0) {
            return true;
        }
    }
    return false;
}

double
Tolerances::relFor(const MetricReading &metric) const
{
    for (const auto &[name, tol] : overrides) {
        if (name == metric.name) {
            return tol;
        }
    }
    return metric.type == "timer" ? timer_rel : value_rel;
}

bool
DiffResult::hasRegression() const
{
    return regressionCount() > 0;
}

std::size_t
DiffResult::regressionCount() const
{
    std::size_t n = 0;
    for (const Finding &finding : findings) {
        if (finding.severity == Severity::Regression) {
            ++n;
        }
    }
    return n;
}

namespace {

void
add(DiffResult &diff, Severity severity, std::string subject,
    std::string message)
{
    diff.findings.push_back(
        {severity, std::move(subject), std::move(message)});
}

/** |cur - base| within rel * max(|base|, scale-floor)? */
bool
withinRel(double base, double cur, double rel, double floor_scale)
{
    const double allowed = rel * std::max(std::fabs(base), floor_scale);
    return std::fabs(cur - base) <= allowed;
}

void
diffOne(DiffResult &diff, const MetricReading &base,
        const MetricReading &cur, const Tolerances &tol)
{
    if (base.type != cur.type) {
        add(diff, Severity::Regression, base.name,
            "type changed: " + base.type + " -> " + cur.type);
        return;
    }
    const double rel = tol.relFor(base);
    if (base.type == "timer") {
        if (base.sum < tol.timer_floor_s && cur.sum < tol.timer_floor_s) {
            return; // both below the noise floor
        }
        const double allowed =
            std::max(base.sum * (1.0 + rel), tol.timer_floor_s);
        if (cur.sum > allowed) {
            add(diff, Severity::Regression, base.name,
                "timer slowed: " + jsonNumber(base.sum) + " s -> " +
                    jsonNumber(cur.sum) + " s (" +
                    percentDelta(base.sum, cur.sum) +
                    ", tolerance " + percentDelta(1.0, 1.0 + rel) + ")");
        } else if (cur.sum * (1.0 + rel) < base.sum) {
            add(diff, Severity::Info, base.name,
                "timer improved: " + jsonNumber(base.sum) + " s -> " +
                    jsonNumber(cur.sum) + " s (" +
                    percentDelta(base.sum, cur.sum) + ")");
        }
        return;
    }
    if (base.type == "counter" || base.type == "histogram") {
        if (!withinRel(static_cast<double>(base.count),
                       static_cast<double>(cur.count), rel, 1.0)) {
            add(diff, Severity::Regression, base.name,
                base.type + " count changed: " +
                    std::to_string(base.count) + " -> " +
                    std::to_string(cur.count) + " (" +
                    percentDelta(static_cast<double>(base.count),
                                 static_cast<double>(cur.count)) +
                    ")");
            return;
        }
    }
    if (base.type == "gauge" || base.type == "histogram") {
        if (!withinRel(base.sum, cur.sum, rel, 1e-12)) {
            add(diff, Severity::Regression, base.name,
                base.type + " value changed: " + jsonNumber(base.sum) +
                    " -> " + jsonNumber(cur.sum) + " (" +
                    percentDelta(base.sum, cur.sum) + ")");
        }
    }
}

} // namespace

DiffResult
diffSnapshots(const Snapshot &base, const Snapshot &cur,
              const Tolerances &tol)
{
    DiffResult diff;
    for (const MetricReading &m : base.metrics) {
        if (tol.ignored(m.name)) {
            continue;
        }
        const MetricReading *other = cur.find(m.name);
        if (other == nullptr) {
            add(diff, Severity::Regression, m.name,
                "present in baseline, missing from current run");
            continue;
        }
        diffOne(diff, m, *other, tol);
    }
    for (const MetricReading &m : cur.metrics) {
        if (!tol.ignored(m.name) && base.find(m.name) == nullptr) {
            add(diff, Severity::Info, m.name,
                "new metric (absent from baseline)");
        }
    }
    return diff;
}

DiffResult
diffJournals(const JournalDoc &base, const JournalDoc &cur,
             std::size_t max_reported)
{
    DiffResult diff;
    if (base.events.size() != cur.events.size()) {
        add(diff, Severity::Regression, "journal",
            "event count changed: " + std::to_string(base.events.size()) +
                " -> " + std::to_string(cur.events.size()));
    }
    if (base.dropped != cur.dropped) {
        add(diff, Severity::Info, "journal",
            "dropped-event count changed: " +
                std::to_string(base.dropped) + " -> " +
                std::to_string(cur.dropped));
    }
    const std::size_t n = std::min(base.events.size(), cur.events.size());
    std::size_t reported = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (base.events[i].canonical == cur.events[i].canonical) {
            continue;
        }
        if (reported < max_reported) {
            add(diff, Severity::Regression,
                "event #" + std::to_string(i) + " (" + base.events[i].type +
                    ")",
                "baseline [" + base.events[i].canonical +
                    "] != current [" + cur.events[i].canonical + "]");
        }
        ++reported;
    }
    if (reported > max_reported) {
        add(diff, Severity::Regression, "journal",
            std::to_string(reported - max_reported) +
                " further event divergence(s) not listed");
    }
    return diff;
}

DiffResult
diffAlerts(const AlertsDoc &base, const AlertsDoc &cur,
           std::size_t max_reported)
{
    DiffResult diff;
    if (base.alerts.size() != cur.alerts.size()) {
        add(diff, Severity::Regression, "alerts",
            "alert count changed: " + std::to_string(base.alerts.size()) +
                " -> " + std::to_string(cur.alerts.size()));
    }
    if (base.firing != cur.firing) {
        add(diff, Severity::Regression, "alerts",
            "firing count changed: " + std::to_string(base.firing) +
                " -> " + std::to_string(cur.firing));
    }
    const std::size_t n = std::min(base.alerts.size(), cur.alerts.size());
    std::size_t reported = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (base.alerts[i].canonical == cur.alerts[i].canonical) {
            continue;
        }
        if (reported < max_reported) {
            add(diff, Severity::Regression,
                "alert #" + std::to_string(i) + " (" +
                    base.alerts[i].rule + ")",
                "baseline [" + base.alerts[i].canonical +
                    "] != current [" + cur.alerts[i].canonical + "]");
        }
        ++reported;
    }
    if (reported > max_reported) {
        add(diff, Severity::Regression, "alerts",
            std::to_string(reported - max_reported) +
                " further alert divergence(s) not listed");
    }
    return diff;
}

namespace {

/** Bin lookup by index (bins are exported sorted, but stay robust). */
const SeriesBinReading *
findBin(const SeriesReading &series, std::int64_t index)
{
    for (const SeriesBinReading &bin : series.bins) {
        if (bin.index == index) {
            return &bin;
        }
    }
    return nullptr;
}

} // namespace

DiffResult
diffTimeSeries(const TimeSeriesDoc &base, const TimeSeriesDoc &cur,
               double bin_rel_tol, std::size_t max_reported)
{
    DiffResult diff;
    for (const SeriesReading &series : base.series) {
        const SeriesReading *other = cur.find(series.name);
        if (other == nullptr) {
            add(diff, Severity::Regression, series.name,
                "series present in baseline, missing from current run");
            continue;
        }
        if (series.bin_s != other->bin_s) {
            add(diff, Severity::Regression, series.name,
                "bin width changed: " + jsonNumber(series.bin_s) + " s -> " +
                    jsonNumber(other->bin_s) + " s");
            continue;
        }
        if (series.bins.size() != other->bins.size()) {
            add(diff, Severity::Regression, series.name,
                "bin count changed: " +
                    std::to_string(series.bins.size()) + " -> " +
                    std::to_string(other->bins.size()));
        }
        std::size_t reported = 0;
        const auto offend = [&](std::int64_t bin_index,
                                const std::string &message) {
            if (reported < max_reported) {
                add(diff, Severity::Regression,
                    series.name + "[bin " + std::to_string(bin_index) +
                        "]",
                    message);
            }
            ++reported;
        };
        for (const SeriesBinReading &bin : series.bins) {
            const SeriesBinReading *cur_bin = findBin(*other, bin.index);
            if (cur_bin == nullptr) {
                offend(bin.index, "bin missing from current run");
                continue;
            }
            if (bin.count != cur_bin->count) {
                offend(bin.index,
                       "count changed: " + std::to_string(bin.count) +
                           " -> " + std::to_string(cur_bin->count));
                continue;
            }
            const auto off_value = [&](const char *what, double b,
                                       double c) {
                if (!withinRel(b, c, bin_rel_tol, 1e-12)) {
                    offend(bin.index, std::string(what) + " changed: " +
                                          jsonNumber(b) + " -> " +
                                          jsonNumber(c) + " (" +
                                          percentDelta(b, c) + ")");
                    return true;
                }
                return false;
            };
            if (off_value("sum", bin.sum, cur_bin->sum) ||
                off_value("min", bin.min, cur_bin->min) ||
                off_value("max", bin.max, cur_bin->max)) {
                continue;
            }
        }
        if (reported > max_reported) {
            add(diff, Severity::Regression, series.name,
                std::to_string(reported - max_reported) +
                    " further bin divergence(s) not listed");
        }
    }
    for (const SeriesReading &series : cur.series) {
        if (base.find(series.name) == nullptr) {
            add(diff, Severity::Info, series.name,
                "new series (absent from baseline)");
        }
    }
    return diff;
}

DiffResult
mergeDiffs(DiffResult a, const DiffResult &b)
{
    a.findings.insert(a.findings.end(), b.findings.begin(),
                      b.findings.end());
    return a;
}

void
writeMarkdown(const DiffResult &diff, const std::string &base_label,
              const std::string &cur_label, std::ostream &os)
{
    os << "# kodan-report: `" << base_label << "` vs `" << cur_label
       << "`\n\n";
    const std::size_t regressions = diff.regressionCount();
    if (regressions > 0) {
        os << "**Verdict: REGRESSION** — " << regressions
           << " regression finding(s), "
           << diff.findings.size() - regressions << " informational.\n\n";
    } else if (!diff.findings.empty()) {
        os << "**Verdict: OK** — no regressions; "
           << diff.findings.size() << " informational finding(s).\n\n";
    } else {
        os << "**Verdict: OK** — no differences beyond tolerance.\n\n";
    }
    if (diff.findings.empty()) {
        return;
    }
    os << "| severity | subject | detail |\n";
    os << "| --- | --- | --- |\n";
    for (const Finding &finding : diff.findings) {
        os << "| "
           << (finding.severity == Severity::Regression ? "REGRESSION"
                                                        : "info")
           << " | `" << finding.subject << "` | " << finding.message
           << " |\n";
    }
}

/* ------------------------------------------------------------------ */
/* Profiles                                                            */
/* ------------------------------------------------------------------ */

double
ProfileDoc::frameSeconds(std::uint64_t sample_count) const
{
    return static_cast<double>(sample_count) *
           static_cast<double>(period_us) * 1e-6;
}

const ProfileFrame *
ProfileDoc::findFrame(const std::string &name) const
{
    for (const ProfileFrame &frame : frames) {
        if (frame.name == name) {
            return &frame;
        }
    }
    return nullptr;
}

const ProfileSpanRow *
ProfileDoc::findSpan(const std::string &name) const
{
    const auto it = std::lower_bound(
        spans.begin(), spans.end(), name,
        [](const ProfileSpanRow &row, const std::string &n) {
            return row.name < n;
        });
    if (it != spans.end() && it->name == name) {
        return &*it;
    }
    return nullptr;
}

namespace {

std::uint64_t
u64Or(const json::Value &object, const char *key)
{
    return static_cast<std::uint64_t>(object.numberOr(key, 0.0));
}

} // namespace

bool
parseProfile(const std::string &text, ProfileDoc &out, std::string *error)
{
    json::Value doc;
    if (!json::parse(text, doc, error)) {
        return false;
    }
    if (doc.find("kodan_profile") == nullptr) {
        fail(error, "not a kodan profile (no \"kodan_profile\" key)");
        return false;
    }
    out.period_us = u64Or(doc, "period_us");
    out.samples = u64Or(doc, "samples");
    out.dropped = u64Or(doc, "dropped");
    out.unregistered_hits = u64Or(doc, "unregistered_hits");
    out.threads = u64Or(doc, "threads");
    out.frames.clear();
    const json::Value *frames = doc.find("frames");
    if (frames == nullptr || !frames->isArray()) {
        fail(error, "profile has no \"frames\" array");
        return false;
    }
    for (const json::Value &entry : frames->array()) {
        if (!entry.isObject()) {
            fail(error, "profile frame entry is not an object");
            return false;
        }
        ProfileFrame frame;
        frame.name = entry.stringOr("name", "");
        frame.self = u64Or(entry, "self");
        frame.total = u64Or(entry, "total");
        if (frame.name.empty()) {
            fail(error, "profile frame entry lacks a name");
            return false;
        }
        out.frames.push_back(std::move(frame));
    }
    out.spans.clear();
    out.span_source.clear();
    const json::Value *spans = doc.find("spans");
    if (spans == nullptr || !spans->isObject()) {
        fail(error, "profile has no \"spans\" object");
        return false;
    }
    out.span_source = spans->stringOr("source", "unresolved");
    const json::Value *rows = spans->find("rows");
    if (rows == nullptr || !rows->isArray()) {
        fail(error, "profile \"spans\" has no \"rows\" array");
        return false;
    }
    for (const json::Value &entry : rows->array()) {
        if (!entry.isObject()) {
            fail(error, "profile span row is not an object");
            return false;
        }
        ProfileSpanRow row;
        row.name = entry.stringOr("name", "");
        row.calls = u64Or(entry, "calls");
        row.cycles = u64Or(entry, "cycles");
        row.instructions = u64Or(entry, "instructions");
        row.llc_misses = u64Or(entry, "llc_misses");
        row.branch_misses = u64Or(entry, "branch_misses");
        row.task_clock_ns = u64Or(entry, "task_clock_ns");
        if (row.name.empty()) {
            fail(error, "profile span row lacks a name");
            return false;
        }
        out.spans.push_back(std::move(row));
    }
    std::sort(out.spans.begin(), out.spans.end(),
              [](const ProfileSpanRow &a, const ProfileSpanRow &b) {
                  return a.name < b.name;
              });
    return true;
}

bool
loadProfile(const std::string &path, ProfileDoc &out, std::string *error)
{
    std::string text;
    if (!readFile(path, text, error)) {
        return false;
    }
    if (!parseProfile(text, out, error)) {
        if (error != nullptr) {
            *error = path + ": " + *error;
        }
        return false;
    }
    return true;
}

namespace {

/** Human-scale number for the profile tables (jsonNumber() is for exact
 *  round-trips; these columns are approximate by nature). */
std::string
shortNum(double value)
{
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.4g", value);
    return buffer;
}

/** Sort rows by descending delta, ties by name for determinism. */
void
rankDeltas(std::vector<ProfileDeltaRow> &rows,
           double (*key)(const ProfileDeltaRow &))
{
    std::sort(rows.begin(), rows.end(),
              [key](const ProfileDeltaRow &a, const ProfileDeltaRow &b) {
                  const double ka = key(a);
                  const double kb = key(b);
                  if (ka != kb) {
                      return ka > kb;
                  }
                  return a.name < b.name;
              });
}

} // namespace

ProfileDiffResult
diffProfiles(const ProfileDoc &base, const ProfileDoc &cur,
             const ProfileTolerances &tol)
{
    ProfileDiffResult out;

    // Sampled frames: union of both top-frame tables, cost =
    // self-samples converted to seconds via each run's own period.
    for (const ProfileFrame &frame : base.frames) {
        ProfileDeltaRow row;
        row.name = frame.name;
        row.base_s = base.frameSeconds(frame.self);
        const ProfileFrame *other = cur.findFrame(frame.name);
        if (other != nullptr) {
            row.cur_s = cur.frameSeconds(other->self);
        }
        row.delta_s = row.cur_s - row.base_s;
        out.frames.push_back(std::move(row));
    }
    for (const ProfileFrame &frame : cur.frames) {
        if (base.findFrame(frame.name) != nullptr) {
            continue;
        }
        ProfileDeltaRow row;
        row.name = frame.name;
        row.cur_s = cur.frameSeconds(frame.self);
        row.delta_s = row.cur_s;
        out.frames.push_back(std::move(row));
    }
    rankDeltas(out.frames,
               [](const ProfileDeltaRow &r) { return r.delta_s; });

    // Span rows: costs stay in task-clock seconds (portable across
    // counter sources); the ranking key upgrades to cycle deltas when
    // both runs actually read perf_event.
    out.spans_use_cycles = base.span_source == "perf_event" &&
                           cur.span_source == "perf_event";
    for (const ProfileSpanRow &span : base.spans) {
        ProfileDeltaRow row;
        row.name = span.name;
        row.base_s = static_cast<double>(span.task_clock_ns) * 1e-9;
        row.base_calls = span.calls;
        const ProfileSpanRow *other = cur.findSpan(span.name);
        if (other != nullptr) {
            row.cur_s = static_cast<double>(other->task_clock_ns) * 1e-9;
            row.cur_calls = other->calls;
            row.delta_cycles =
                static_cast<std::int64_t>(other->cycles) -
                static_cast<std::int64_t>(span.cycles);
        } else {
            row.delta_cycles = -static_cast<std::int64_t>(span.cycles);
            add(out.findings, Severity::Regression, span.name,
                "span row missing from current run (instrumentation "
                "lost?)");
        }
        row.delta_s = row.cur_s - row.base_s;
        if (other != nullptr) {
            if (!withinRel(static_cast<double>(span.calls),
                           static_cast<double>(other->calls),
                           tol.calls_rel, 1.0)) {
                add(out.findings, Severity::Regression, span.name,
                    "span calls changed: " + std::to_string(span.calls) +
                        " -> " + std::to_string(other->calls) + " (" +
                        percentDelta(static_cast<double>(span.calls),
                                     static_cast<double>(other->calls)) +
                        ")");
            }
            const bool above_floor = row.base_s >= tol.cost_floor_s ||
                                     row.cur_s >= tol.cost_floor_s;
            const double allowed =
                std::max(row.base_s * (1.0 + tol.cost_rel),
                         tol.cost_floor_s);
            if (above_floor && row.cur_s > allowed) {
                add(out.findings, Severity::Regression, span.name,
                    "span cost grew: " + jsonNumber(row.base_s) + " s -> " +
                        jsonNumber(row.cur_s) + " s (" +
                        percentDelta(row.base_s, row.cur_s) +
                        ", tolerance " +
                        percentDelta(1.0, 1.0 + tol.cost_rel) + ")");
            } else if (above_floor &&
                       row.cur_s * (1.0 + tol.cost_rel) < row.base_s) {
                add(out.findings, Severity::Info, span.name,
                    "span cost improved: " + jsonNumber(row.base_s) +
                        " s -> " + jsonNumber(row.cur_s) + " s (" +
                        percentDelta(row.base_s, row.cur_s) + ")");
            }
        }
        out.spans.push_back(std::move(row));
    }
    for (const ProfileSpanRow &span : cur.spans) {
        if (base.findSpan(span.name) != nullptr) {
            continue;
        }
        ProfileDeltaRow row;
        row.name = span.name;
        row.cur_s = static_cast<double>(span.task_clock_ns) * 1e-9;
        row.cur_calls = span.calls;
        row.delta_s = row.cur_s;
        row.delta_cycles = static_cast<std::int64_t>(span.cycles);
        add(out.findings, Severity::Info, span.name,
            "new span row (not in baseline)");
        out.spans.push_back(std::move(row));
    }
    if (out.spans_use_cycles) {
        rankDeltas(out.spans, [](const ProfileDeltaRow &r) {
            return static_cast<double>(r.delta_cycles);
        });
    } else {
        rankDeltas(out.spans,
                   [](const ProfileDeltaRow &r) { return r.delta_s; });
    }
    if (base.span_source != cur.span_source) {
        add(out.findings, Severity::Info, "spans.source",
            "counter source changed: " + base.span_source + " -> " +
                cur.span_source +
                " (cycle columns are not comparable)");
    }
    return out;
}

void
writeProfileMarkdown(const ProfileDoc &doc, const std::string &label,
                     std::size_t top, std::ostream &os)
{
    os << "# kodan-report: profile `" << label << "`\n\n"
       << "- samples: " << doc.samples << " (period " << doc.period_us
       << " us, " << doc.threads << " thread(s), " << doc.dropped
       << " dropped, " << doc.unregistered_hits
       << " on unregistered threads)\n"
       << "- counter source: " << doc.span_source << "\n";
    if (!doc.frames.empty()) {
        os << "\n## Top frames by self time\n\n"
           << "| frame | self | total | self % | self s |\n"
           << "| --- | --- | --- | --- | --- |\n";
        const double total =
            doc.samples > 0 ? static_cast<double>(doc.samples) : 1.0;
        std::size_t shown = 0;
        for (const ProfileFrame &frame : doc.frames) {
            if (shown++ >= top) {
                break;
            }
            os << "| `" << frame.name << "` | " << frame.self << " | "
               << frame.total << " | "
               << shortNum(100.0 * static_cast<double>(frame.self) /
                           total)
               << "% | " << shortNum(doc.frameSeconds(frame.self))
               << " |\n";
        }
    }
    if (!doc.spans.empty()) {
        std::vector<ProfileSpanRow> rows = doc.spans;
        std::sort(rows.begin(), rows.end(),
                  [](const ProfileSpanRow &a, const ProfileSpanRow &b) {
                      if (a.task_clock_ns != b.task_clock_ns) {
                          return a.task_clock_ns > b.task_clock_ns;
                      }
                      return a.name < b.name;
                  });
        os << "\n## Span counters (" << doc.span_source << ")\n\n"
           << "| span | calls | task-clock s | cycles | instructions "
              "| IPC | LLC miss | branch miss |\n"
           << "| --- | --- | --- | --- | --- | --- | --- | --- |\n";
        std::size_t shown = 0;
        for (const ProfileSpanRow &row : rows) {
            if (shown++ >= top) {
                break;
            }
            os << "| `" << row.name << "` | " << row.calls << " | "
               << shortNum(static_cast<double>(row.task_clock_ns) * 1e-9)
               << " | " << row.cycles << " | " << row.instructions
               << " | ";
            if (row.cycles > 0) {
                os << shortNum(static_cast<double>(row.instructions) /
                               static_cast<double>(row.cycles));
            } else {
                os << "-";
            }
            os << " | " << row.llc_misses << " | " << row.branch_misses
               << " |\n";
        }
    }
}

void
writeProfileDiffMarkdown(const ProfileDiffResult &diff,
                         const std::string &base_label,
                         const std::string &cur_label, std::size_t top,
                         std::ostream &os)
{
    os << "# kodan-report: profile `" << base_label << "` vs `"
       << cur_label << "`\n\n";
    const std::size_t regressions = diff.findings.regressionCount();
    if (regressions > 0) {
        os << "**Verdict: REGRESSION** — " << regressions
           << " regression finding(s).\n";
    } else {
        os << "**Verdict: OK** — no findings beyond tolerance.\n";
    }
    if (!diff.frames.empty()) {
        os << "\n## Frames by self-time regression\n\n"
           << "| frame | base s | cur s | delta s |\n"
           << "| --- | --- | --- | --- |\n";
        std::size_t shown = 0;
        for (const ProfileDeltaRow &row : diff.frames) {
            if (shown++ >= top) {
                break;
            }
            os << "| `" << row.name << "` | " << shortNum(row.base_s)
               << " | " << shortNum(row.cur_s) << " | "
               << shortNum(row.delta_s) << " |\n";
        }
    }
    if (!diff.spans.empty()) {
        os << "\n## Spans by "
           << (diff.spans_use_cycles ? "cycle" : "task-clock")
           << " regression\n\n"
           << "| span | base s | cur s | delta s | base calls "
              "| cur calls | delta cycles |\n"
           << "| --- | --- | --- | --- | --- | --- | --- |\n";
        std::size_t shown = 0;
        for (const ProfileDeltaRow &row : diff.spans) {
            if (shown++ >= top) {
                break;
            }
            os << "| `" << row.name << "` | " << shortNum(row.base_s)
               << " | " << shortNum(row.cur_s) << " | "
               << shortNum(row.delta_s) << " | " << row.base_calls
               << " | " << row.cur_calls << " | " << row.delta_cycles
               << " |\n";
        }
    }
    if (!diff.findings.findings.empty()) {
        os << "\n| severity | subject | detail |\n"
           << "| --- | --- | --- |\n";
        for (const Finding &finding : diff.findings.findings) {
            os << "| "
               << (finding.severity == Severity::Regression
                       ? "REGRESSION"
                       : "info")
               << " | `" << finding.subject << "` | " << finding.message
               << " |\n";
        }
    }
}

} // namespace kodan::telemetry::report
