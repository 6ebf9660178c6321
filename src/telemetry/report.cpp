#include "telemetry/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "telemetry/export.hpp"
#include "util/json.hpp"

namespace kodan::telemetry::report {

namespace {

namespace json = kodan::util::json;

/** Divergences listed per stream and per series; one finding counts
 *  the rest. */
constexpr std::size_t kListed = 5;

/** Rows each profile ranking prints. */
constexpr std::size_t kRankedRows = 20;

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

/** Sort records by key(); equal keys keep document order. */
template <class Record>
void
sortByKey(std::vector<Record> &records)
{
    std::stable_sort(records.begin(), records.end(),
                     [](const Record &a, const Record &b) {
                         return a.key() < b.key();
                     });
}

/* ------------------------------------------------------------------ */
/* The one reader                                                      */
/* ------------------------------------------------------------------ */

/** One parse in progress; the first error wins. */
struct Reader
{
    std::string error;

    bool fail(const std::string &message)
    {
        if (error.empty()) {
            error = message;
        }
        return false;
    }

    /** json::integerMember, failing the read with the field's name
     *  when the member is not an integer T can hold. */
    template <class T>
    T integer(const json::Value &object, const char *key)
    {
        if (const auto value = json::integerMember<T>(object, key)) {
            return *value;
        }
        const json::Value &member = *object.find(key);
        fail(std::string("field \"") + key + "\" is " +
             (member.isNumber() ? jsonNumber(member.asNumber())
                                : std::string("not a number")) +
             ", not an integer its type can hold");
        return 0;
    }
};

bool
readSnapshot(Reader &reader, const json::Value &doc, Snapshot &out)
{
    const json::Value *metrics = doc.find("metrics");
    if (metrics == nullptr || !metrics->isArray()) {
        return reader.fail("snapshot has no \"metrics\" array");
    }
    for (const json::Value &entry : metrics->array()) {
        if (!entry.isObject()) {
            return reader.fail("snapshot metric entry is not an object");
        }
        MetricReading m;
        m.name = entry.stringOr("name", "");
        m.type = entry.stringOr("type", "");
        if (m.name.empty() || m.type.empty()) {
            return reader.fail("snapshot metric entry lacks name/type");
        }
        if (m.type == "counter") {
            m.count = reader.integer<std::int64_t>(entry, "value");
        } else if (m.type == "gauge") {
            m.sum = entry.numberOr("value", 0.0);
        } else {
            // timer, histogram (and any future kind): count/sum/max.
            const bool timer = m.type == "timer";
            m.count = reader.integer<std::int64_t>(entry, "count");
            m.sum = entry.numberOr(timer ? "total_s" : "sum", 0.0);
            m.max = entry.numberOr(timer ? "max_s" : "max", 0.0);
        }
        out.metrics.push_back(std::move(m));
    }
    sortByKey(out.metrics);
    return reader.error.empty();
}

bool
readJournal(Reader &reader, const std::vector<json::Value> &lines,
            JournalDoc &out)
{
    out.declared_events =
        reader.integer<std::uint64_t>(lines.front(), "events");
    out.dropped = reader.integer<std::uint64_t>(lines.front(), "dropped");
    for (std::size_t i = 1; i < lines.size(); ++i) {
        const json::Value &entry = lines[i];
        JournalLine line;
        line.seq = reader.integer<std::uint64_t>(entry, "seq");
        line.region = reader.integer<std::uint64_t>(entry, "region");
        line.slot = reader.integer<std::uint64_t>(entry, "slot");
        line.ord = reader.integer<std::uint64_t>(entry, "ord");
        line.type = entry.stringOr("type", "");
        if (line.type.empty()) {
            return reader.fail("journal line " + std::to_string(i + 1) +
                               " lacks a type");
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
    return reader.error.empty();
}

bool
readTimeSeries(Reader &reader, const json::Value &doc, TimeSeriesDoc &out)
{
    const json::Value *series = doc.find("series");
    if (series == nullptr || !series->isArray()) {
        return reader.fail("document has no \"series\" array");
    }
    for (const json::Value &entry : series->array()) {
        SeriesReading reading;
        reading.name = entry.stringOr("name", "");
        if (reading.name.empty()) {
            return reader.fail("series entry lacks a name");
        }
        reading.bin_s = entry.numberOr("bin_s", 0.0);
        reading.dropped_bins =
            reader.integer<std::uint64_t>(entry, "dropped_bins");
        const json::Value *bins = entry.find("bins");
        if (bins != nullptr && bins->isArray()) {
            for (const json::Value &bin : bins->array()) {
                SeriesBinReading b;
                b.index = reader.integer<std::int64_t>(bin, "bin");
                b.count = reader.integer<std::int64_t>(bin, "count");
                b.sum = bin.numberOr("sum", 0.0);
                b.min = bin.numberOr("min", 0.0);
                b.max = bin.numberOr("max", 0.0);
                reading.bins.push_back(b);
            }
        }
        sortByKey(reading.bins);
        out.series.push_back(std::move(reading));
    }
    sortByKey(out.series);
    return reader.error.empty();
}

bool
readAlerts(Reader &reader, const std::vector<json::Value> &lines,
           AlertsDoc &out)
{
    out.declared_alerts =
        reader.integer<std::uint64_t>(lines.front(), "alerts");
    out.firing = reader.integer<std::uint64_t>(lines.front(), "firing");
    for (std::size_t i = 1; i < lines.size(); ++i) {
        const json::Value &entry = lines[i];
        AlertReading alert;
        alert.id = reader.integer<std::uint64_t>(entry, "id");
        alert.rule = entry.stringOr("rule", "");
        alert.signal = entry.stringOr("signal", "");
        alert.kind = entry.stringOr("kind", "");
        alert.entity = reader.integer<std::int64_t>(entry, "entity");
        alert.state = entry.stringOr("state", "");
        if (alert.rule.empty() || alert.state.empty()) {
            return reader.fail("alerts line " + std::to_string(i + 1) +
                               " lacks a rule/state");
        }
        alert.first_bin = reader.integer<std::int64_t>(entry, "first_bin");
        alert.last_bin = reader.integer<std::int64_t>(entry, "last_bin");
        alert.first_t_s = entry.numberOr("first_t_s", 0.0);
        alert.last_t_s = entry.numberOr("last_t_s", 0.0);
        alert.peak = entry.numberOr("peak", 0.0);
        alert.last = entry.numberOr("last", 0.0);
        const json::Value *journal = entry.find("journal");
        if (journal != nullptr && journal->isObject()) {
            alert.has_journal = true;
            alert.journal_region =
                reader.integer<std::uint64_t>(*journal, "region");
            alert.journal_slot =
                reader.integer<std::uint64_t>(*journal, "slot");
            alert.journal_ord_lo =
                reader.integer<std::uint64_t>(*journal, "ord_lo");
            alert.journal_ord_hi =
                reader.integer<std::uint64_t>(*journal, "ord_hi");
        }
        const json::Value *evidence = entry.find("evidence");
        if (evidence != nullptr && evidence->isArray()) {
            for (const json::Value &ev : evidence->array()) {
                alert.evidence.emplace_back(
                    reader.integer<std::int64_t>(ev, "bin"),
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
    return reader.error.empty();
}

bool
readProfile(Reader &reader, const json::Value &doc, ProfileDoc &out)
{
    out.period_us = reader.integer<std::uint64_t>(doc, "period_us");
    out.samples = reader.integer<std::uint64_t>(doc, "samples");
    out.dropped = reader.integer<std::uint64_t>(doc, "dropped");
    out.unregistered_hits =
        reader.integer<std::uint64_t>(doc, "unregistered_hits");
    out.threads = reader.integer<std::uint64_t>(doc, "threads");
    const json::Value *frames = doc.find("frames");
    if (frames == nullptr || !frames->isArray()) {
        return reader.fail("profile has no \"frames\" array");
    }
    for (const json::Value &entry : frames->array()) {
        if (!entry.isObject()) {
            return reader.fail("profile frame entry is not an object");
        }
        ProfileFrame frame;
        frame.name = entry.stringOr("name", "");
        frame.self = reader.integer<std::uint64_t>(entry, "self");
        frame.total = reader.integer<std::uint64_t>(entry, "total");
        if (frame.name.empty()) {
            return reader.fail("profile frame entry lacks a name");
        }
        out.frames.push_back(std::move(frame));
    }
    const json::Value *spans = doc.find("spans");
    if (spans == nullptr || !spans->isObject()) {
        return reader.fail("profile has no \"spans\" object");
    }
    out.span_source = spans->stringOr("source", "unresolved");
    const json::Value *rows = spans->find("rows");
    if (rows == nullptr || !rows->isArray()) {
        return reader.fail("profile \"spans\" has no \"rows\" array");
    }
    for (const json::Value &entry : rows->array()) {
        if (!entry.isObject()) {
            return reader.fail("profile span row is not an object");
        }
        ProfileSpanRow row;
        row.name = entry.stringOr("name", "");
        row.calls = reader.integer<std::uint64_t>(entry, "calls");
        row.cycles = reader.integer<std::uint64_t>(entry, "cycles");
        row.instructions =
            reader.integer<std::uint64_t>(entry, "instructions");
        row.llc_misses = reader.integer<std::uint64_t>(entry, "llc_misses");
        row.branch_misses =
            reader.integer<std::uint64_t>(entry, "branch_misses");
        row.task_clock_ns =
            reader.integer<std::uint64_t>(entry, "task_clock_ns");
        if (row.name.empty()) {
            return reader.fail("profile span row lacks a name");
        }
        out.spans.push_back(std::move(row));
    }
    sortByKey(out.spans);
    return reader.error.empty();
}

/** Parse @p text as the document its marker names. A JSONL stream opens
 *  with its marker line; any other document is one JSON value. */
bool
readDocument(Reader &reader, const std::string &text, Document &out)
{
    const std::size_t first =
        std::min(text.find_first_not_of(" \t\r\n"), text.size());
    json::Value head;
    if (json::parse(text.substr(first, text.find('\n', first) - first), head,
                    nullptr) &&
        (head.find("kodan_journal") != nullptr ||
         head.find("kodan_alerts") != nullptr)) {
        std::vector<json::Value> lines;
        if (!json::parseLines(text, lines, &reader.error)) {
            return false;
        }
        if (head.find("kodan_journal") != nullptr) {
            return readJournal(reader, lines, out.emplace<JournalDoc>());
        }
        return readAlerts(reader, lines, out.emplace<AlertsDoc>());
    }
    json::Value doc;
    if (!json::parse(text, doc, &reader.error)) {
        return false;
    }
    if (doc.find("kodan_timeseries") != nullptr) {
        return readTimeSeries(reader, doc, out.emplace<TimeSeriesDoc>());
    }
    if (doc.find("kodan_profile") != nullptr) {
        return readProfile(reader, doc, out.emplace<ProfileDoc>());
    }
    if (doc.find("metrics") != nullptr) {
        return readSnapshot(reader, doc, out.emplace<Snapshot>());
    }
    return reader.fail("unrecognised document: no kodan_journal, "
                       "kodan_alerts, kodan_timeseries or kodan_profile "
                       "marker and no \"metrics\" array");
}

} // namespace

const char *
kindName(const Document &doc)
{
    static const char *const kNames[] = {"metrics snapshot", "journal",
                                         "time series", "alerts",
                                         "profile"};
    return kNames[doc.index()];
}

template <class Doc>
bool
parse(const std::string &text, Doc &out, std::string *error)
{
    Reader reader;
    Document doc;
    if (readDocument(reader, text, doc)) {
        if constexpr (std::is_same_v<Doc, Document>) {
            out = std::move(doc);
            return true;
        } else {
            if (Doc *typed = std::get_if<Doc>(&doc)) {
                out = std::move(*typed);
                return true;
            }
            reader.fail(std::string("expected a ") +
                        kindName(Document(std::in_place_type<Doc>)) +
                        ", found a " + kindName(doc));
        }
    }
    fail(error, reader.error);
    return false;
}

template <class Doc>
bool
load(const std::string &path, Doc &out, std::string *error)
{
    std::ifstream file(path, std::ios::binary);
    if (!file) {
        fail(error, "cannot open " + path);
        return false;
    }
    std::ostringstream text;
    text << file.rdbuf();
    if (!parse(text.str(), out, error)) {
        if (error != nullptr) {
            *error = path + ": " + *error;
        }
        return false;
    }
    return true;
}

template bool parse(const std::string &, Document &, std::string *);
template bool parse(const std::string &, Snapshot &, std::string *);
template bool parse(const std::string &, JournalDoc &, std::string *);
template bool parse(const std::string &, TimeSeriesDoc &, std::string *);
template bool parse(const std::string &, AlertsDoc &, std::string *);
template bool parse(const std::string &, ProfileDoc &, std::string *);
template bool load(const std::string &, Document &, std::string *);
template bool load(const std::string &, Snapshot &, std::string *);
template bool load(const std::string &, JournalDoc &, std::string *);
template bool load(const std::string &, TimeSeriesDoc &, std::string *);
template bool load(const std::string &, AlertsDoc &, std::string *);
template bool load(const std::string &, ProfileDoc &, std::string *);

double
ProfileDoc::frameSeconds(std::uint64_t sample_count) const
{
    return static_cast<double>(sample_count) *
           static_cast<double>(period_us) * 1e-6;
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
Tolerances::relFor(const std::string &name, bool measured_time) const
{
    for (const auto &[overridden, tol] : overrides) {
        if (overridden == name) {
            return tol;
        }
    }
    return measured_time ? timer_rel : value_rel;
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

/** "<what> changed: base -> cur (+x%)" for a real-valued reading. */
std::string
valueChanged(const std::string &what, double base, double cur)
{
    return what + " changed: " + jsonNumber(base) + " -> " +
           jsonNumber(cur) + " (" + percentDelta(base, cur) + ")";
}

/** An integer count (metric count, span calls) outside @p rel is a
 *  Regression; true when it was. */
template <class Int>
bool
countRule(DiffResult &diff, const std::string &subject,
          const std::string &what, Int base, Int cur, double rel)
{
    const double b = static_cast<double>(base);
    const double c = static_cast<double>(cur);
    if (withinRel(b, c, rel, 1.0)) {
        return false;
    }
    add(diff, Severity::Regression, subject,
        what + " changed: " + std::to_string(base) + " -> " +
            std::to_string(cur) + " (" + percentDelta(b, c) + ")");
    return true;
}

/**
 * The one measured-time rule (timers, span task-clock): slower than
 * @p rel is a Regression (@p slower), faster by as much is Info
 * (@p faster), and both readings below the floor are scheduler noise.
 */
void
measuredTime(DiffResult &diff, const std::string &subject,
             const char *slower, const char *faster, double base_s,
             double cur_s, double rel, const Tolerances &tol)
{
    if (base_s < tol.timer_floor_s && cur_s < tol.timer_floor_s) {
        return;
    }
    const std::string times = jsonNumber(base_s) + " s -> " +
                              jsonNumber(cur_s) + " s (" +
                              percentDelta(base_s, cur_s);
    if (cur_s > std::max(base_s * (1.0 + rel), tol.timer_floor_s)) {
        add(diff, Severity::Regression, subject,
            std::string(slower) + ": " + times + ", tolerance " +
                percentDelta(1.0, 1.0 + rel) + ")");
    } else if (cur_s * (1.0 + rel) < base_s) {
        add(diff, Severity::Info, subject,
            std::string(faster) + ": " + times + ")");
    }
}

/**
 * The one keyed diff's walk over two runs' records, each sorted by
 * key(): visit(b, c) for each baseline record b with its current match
 * c (nullptr when missing), then visit(nullptr, c) for each current
 * record the baseline lacks.
 */
template <class Record, class Visit>
void
walkKeyed(const std::vector<Record> &base, const std::vector<Record> &cur,
          Visit visit)
{
    for (const Record &record : base) {
        visit(&record, findRecord(cur, record.key()));
    }
    for (const Record &record : cur) {
        if (findRecord(base, record.key()) == nullptr) {
            visit(nullptr, &record);
        }
    }
}

/**
 * The keyed diff over named records: an ignored name is skipped, a
 * record only in the baseline is a Regression (@p missing), one only in
 * the current run is Info (@p fresh); then @p visit sees the pair.
 */
template <class Record, class Visit>
void
diffNamed(DiffResult &diff, const std::vector<Record> &base,
          const std::vector<Record> &cur, const Tolerances &tol,
          const char *missing, const char *fresh, Visit visit)
{
    walkKeyed(base, cur, [&](const Record *b, const Record *c) {
        const std::string &name = (b != nullptr ? b : c)->name;
        if (tol.ignored(name)) {
            return;
        }
        if (c == nullptr) {
            add(diff, Severity::Regression, name, missing);
        } else if (b == nullptr) {
            add(diff, Severity::Info, name, fresh);
        }
        visit(b, c);
    });
}

/** Lists at most kListed divergences; close() counts the rest. */
struct Listing
{
    DiffResult &diff;
    std::size_t seen = 0;

    void add(Severity severity, std::string subject, std::string message)
    {
        if (seen++ < kListed) {
            report::add(diff, severity, std::move(subject),
                        std::move(message));
        }
    }

    void close(const std::string &subject, const char *noun)
    {
        if (seen > kListed) {
            report::add(diff, Severity::Regression, subject,
                        std::to_string(seen - kListed) + " further " +
                            noun + " divergence(s) not listed");
        }
    }
};

/** A stream-level count (records, dropped events, firing alerts). */
void
countChange(DiffResult &diff, Severity severity, const char *stream,
            const char *what, std::uint64_t base, std::uint64_t cur)
{
    if (base != cur) {
        add(diff, severity, stream,
            std::string(what) + " count changed: " + std::to_string(base) +
                " -> " + std::to_string(cur));
    }
}

/** The one positional diff over a JSONL stream: record i against record
 *  i in canonical form, each divergence named by position and
 *  @p label. */
template <class Line>
void
diffStream(DiffResult &diff, const char *stream, const char *noun,
           const std::vector<Line> &base, const std::vector<Line> &cur,
           const std::string Line::*label)
{
    Listing listing{diff};
    for (std::size_t i = 0; i < std::min(base.size(), cur.size()); ++i) {
        if (base[i].canonical != cur[i].canonical) {
            listing.add(Severity::Regression,
                        std::string(noun) + " #" + std::to_string(i) +
                            " (" + base[i].*label + ")",
                        "baseline [" + base[i].canonical +
                            "] != current [" + cur[i].canonical + "]");
        }
    }
    listing.close(stream, noun);
}

void
compareMetric(DiffResult &diff, const MetricReading &base,
              const MetricReading &cur, const Tolerances &tol)
{
    if (base.type != cur.type) {
        add(diff, Severity::Regression, base.name,
            "type changed: " + base.type + " -> " + cur.type);
        return;
    }
    const bool timer = base.type == "timer";
    const double rel = tol.relFor(base.name, timer);
    if (timer) {
        measuredTime(diff, base.name, "timer slowed", "timer improved",
                     base.sum, cur.sum, rel, tol);
        return;
    }
    if ((base.type == "counter" || base.type == "histogram") &&
        countRule(diff, base.name, base.type + " count", base.count,
                  cur.count, rel)) {
        return;
    }
    if ((base.type == "gauge" || base.type == "histogram") &&
        !withinRel(base.sum, cur.sum, rel, 1e-12)) {
        add(diff, Severity::Regression, base.name,
            valueChanged(base.type + " value", base.sum, cur.sum));
    }
}

void
compareSeries(DiffResult &diff, const SeriesReading &base,
              const SeriesReading &cur, const Tolerances &tol)
{
    if (base.bin_s != cur.bin_s) {
        add(diff, Severity::Regression, base.name,
            "bin width changed: " + jsonNumber(base.bin_s) + " s -> " +
                jsonNumber(cur.bin_s) + " s");
        return;
    }
    if (base.bins.size() != cur.bins.size()) {
        add(diff, Severity::Regression, base.name,
            "bin count changed: " + std::to_string(base.bins.size()) +
                " -> " + std::to_string(cur.bins.size()));
    }
    const double rel = tol.relFor(base.name, false);
    Listing listing{diff};
    walkKeyed(base.bins, cur.bins,
              [&](const SeriesBinReading *b, const SeriesBinReading *c) {
        const auto offend = [&](Severity severity, std::string message) {
            listing.add(severity,
                        base.name + "[bin " +
                            std::to_string((b != nullptr ? b : c)->index) +
                            "]",
                        std::move(message));
        };
        if (c == nullptr) {
            offend(Severity::Regression, "bin missing from current run");
        } else if (b == nullptr) {
            offend(Severity::Info, "new bin (absent from baseline)");
        } else if (b->count != c->count) {
            offend(Severity::Regression,
                   "count changed: " + std::to_string(b->count) + " -> " +
                       std::to_string(c->count));
        } else if (!withinRel(b->sum, c->sum, rel, 1e-12)) {
            offend(Severity::Regression, valueChanged("sum", b->sum, c->sum));
        } else if (!withinRel(b->min, c->min, rel, 1e-12)) {
            offend(Severity::Regression, valueChanged("min", b->min, c->min));
        } else if (!withinRel(b->max, c->max, rel, 1e-12)) {
            offend(Severity::Regression, valueChanged("max", b->max, c->max));
        }
    });
    listing.close(base.name, "bin");
}

/** Sort ranked rows by descending @p key, ties by name. */
template <class Key>
void
rank(Ranking &ranking, Key key)
{
    std::sort(ranking.rows.begin(), ranking.rows.end(),
              [key](const ProfileDeltaRow &a, const ProfileDeltaRow &b) {
                  const double ka = key(a);
                  const double kb = key(b);
                  if (ka != kb) {
                      return ka > kb;
                  }
                  return a.name < b.name;
              });
}

/** Human-scale number for the profile tables (jsonNumber() is for exact
 *  round-trips; these columns are approximate by nature). */
std::string
shortNum(double value)
{
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.4g", value);
    return buffer;
}

} // namespace

DiffResult
diff(const Snapshot &base, const Snapshot &cur, const Tolerances &tol)
{
    DiffResult out;
    diffNamed(out, base.metrics, cur.metrics, tol,
              "present in baseline, missing from current run",
              "new metric (absent from baseline)",
              [&](const MetricReading *b, const MetricReading *c) {
                  if (b != nullptr && c != nullptr) {
                      compareMetric(out, *b, *c, tol);
                  }
              });
    return out;
}

DiffResult
diff(const JournalDoc &base, const JournalDoc &cur, const Tolerances &)
{
    DiffResult out;
    countChange(out, Severity::Regression, "journal", "event",
                base.events.size(), cur.events.size());
    countChange(out, Severity::Info, "journal", "dropped-event",
                base.dropped, cur.dropped);
    diffStream(out, "journal", "event", base.events, cur.events,
               &JournalLine::type);
    return out;
}

DiffResult
diff(const TimeSeriesDoc &base, const TimeSeriesDoc &cur,
     const Tolerances &tol)
{
    DiffResult out;
    diffNamed(out, base.series, cur.series, tol,
              "series present in baseline, missing from current run",
              "new series (absent from baseline)",
              [&](const SeriesReading *b, const SeriesReading *c) {
                  if (b != nullptr && c != nullptr) {
                      compareSeries(out, *b, *c, tol);
                  }
              });
    return out;
}

DiffResult
diff(const AlertsDoc &base, const AlertsDoc &cur, const Tolerances &)
{
    DiffResult out;
    countChange(out, Severity::Regression, "alerts", "alert",
                base.alerts.size(), cur.alerts.size());
    countChange(out, Severity::Regression, "alerts", "firing", base.firing,
                cur.firing);
    diffStream(out, "alerts", "alert", base.alerts, cur.alerts,
               &AlertReading::rule);
    return out;
}

DiffResult
diff(const ProfileDoc &base, const ProfileDoc &cur, const Tolerances &tol)
{
    DiffResult out;

    // Sampled frames only rank: cost = self-samples converted to
    // seconds via each run's own period.
    Ranking frames{"Frames by self-time regression", false, {}};
    std::vector<ProfileFrame> base_frames = base.frames;
    std::vector<ProfileFrame> cur_frames = cur.frames;
    sortByKey(base_frames);
    sortByKey(cur_frames);
    walkKeyed(base_frames, cur_frames,
              [&](const ProfileFrame *b, const ProfileFrame *c) {
                  ProfileDeltaRow row;
                  row.name = (b != nullptr ? b : c)->name;
                  row.base_s = b != nullptr ? base.frameSeconds(b->self) : 0.0;
                  row.cur_s = c != nullptr ? cur.frameSeconds(c->self) : 0.0;
                  row.delta_s = row.cur_s - row.base_s;
                  frames.rows.push_back(std::move(row));
              });
    rank(frames, [](const ProfileDeltaRow &r) { return r.delta_s; });

    // Span rows: costs stay in task-clock seconds (portable across
    // counter sources); the ranking key upgrades to cycle deltas when
    // both runs actually read perf_event.
    const bool cycles = base.span_source == "perf_event" &&
                        cur.span_source == "perf_event";
    Ranking spans{cycles ? "Spans by cycle regression"
                         : "Spans by task-clock regression",
                  true,
                  {}};
    diffNamed(out, base.spans, cur.spans, tol,
              "span row missing from current run (instrumentation lost?)",
              "new span row (not in baseline)",
              [&](const ProfileSpanRow *b, const ProfileSpanRow *c) {
        ProfileDeltaRow row;
        row.name = (b != nullptr ? b : c)->name;
        std::uint64_t base_cycles = 0;
        std::uint64_t cur_cycles = 0;
        if (b != nullptr) {
            row.base_s = static_cast<double>(b->task_clock_ns) * 1e-9;
            row.base_calls = b->calls;
            base_cycles = b->cycles;
        }
        if (c != nullptr) {
            row.cur_s = static_cast<double>(c->task_clock_ns) * 1e-9;
            row.cur_calls = c->calls;
            cur_cycles = c->cycles;
        }
        row.delta_s = row.cur_s - row.base_s;
        // Unsigned difference: wraps where a signed one could overflow.
        row.delta_cycles =
            static_cast<std::int64_t>(cur_cycles - base_cycles);
        if (b != nullptr && c != nullptr) {
            countRule(out, row.name, "span calls", b->calls, c->calls,
                      tol.relFor(row.name, false));
            measuredTime(out, row.name, "span cost grew",
                         "span cost improved", row.base_s, row.cur_s,
                         tol.relFor(row.name, true), tol);
        }
        spans.rows.push_back(std::move(row));
    });
    if (cycles) {
        rank(spans, [](const ProfileDeltaRow &r) {
            return static_cast<double>(r.delta_cycles);
        });
    } else {
        rank(spans, [](const ProfileDeltaRow &r) { return r.delta_s; });
    }
    if (base.span_source != cur.span_source) {
        add(out, Severity::Info, "spans.source",
            "counter source changed: " + base.span_source + " -> " +
                cur.span_source + " (cycle columns are not comparable)");
    }
    out.rankings.push_back(std::move(frames));
    out.rankings.push_back(std::move(spans));
    return out;
}

bool
diff(const Document &base, const Document &cur, const Tolerances &tol,
     DiffResult &out, std::string *error)
{
    if (base.index() != cur.index()) {
        fail(error, std::string("cannot diff a ") + kindName(base) +
                        " against a " + kindName(cur));
        return false;
    }
    DiffResult pair = std::visit(
        [&](const auto &b) {
            return diff(b, std::get<std::decay_t<decltype(b)>>(cur), tol);
        },
        base);
    out.findings.insert(out.findings.end(), pair.findings.begin(),
                        pair.findings.end());
    out.rankings.insert(out.rankings.end(), pair.rankings.begin(),
                        pair.rankings.end());
    return true;
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
    for (const Ranking &ranking : diff.rankings) {
        if (ranking.rows.empty()) {
            continue;
        }
        os << "## " << ranking.title << "\n\n"
           << (ranking.spans ? "| span | base s | cur s | delta s "
                               "| base calls | cur calls | delta cycles |\n"
                               "| --- | --- | --- | --- | --- | --- | --- |\n"
                             : "| frame | base s | cur s | delta s |\n"
                               "| --- | --- | --- | --- |\n");
        for (std::size_t i = 0;
             i < std::min(ranking.rows.size(), kRankedRows); ++i) {
            const ProfileDeltaRow &row = ranking.rows[i];
            os << "| `" << row.name << "` | " << shortNum(row.base_s)
               << " | " << shortNum(row.cur_s) << " | "
               << shortNum(row.delta_s);
            if (ranking.spans) {
                os << " | " << row.base_calls << " | " << row.cur_calls
                   << " | " << row.delta_cycles;
            }
            os << " |\n";
        }
        os << "\n";
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

} // namespace kodan::telemetry::report
