/**
 * @file
 * kodan-top — live mission view over the flight-recorder event stream.
 *
 *   kodan-top <journal.jsonl> [--follow] [--interval-ms N]
 *       [--metric NAME] [--width N] [--profile <profile.json>]
 *
 * Tails a journal file — either a finished `--journal-out` export or
 * the live stream tap written by KODAN_JOURNAL_STREAM /
 * setJournalStreamPath — picks out the per-satellite chunk events
 * (`constellation.satellite.chunk`, emitted by the mission engine once
 * per satellite per time chunk) and renders one sparkline row per
 * satellite of the chosen per-chunk metric, plus totals. Each mission
 * run is its own journal region, so a journal holding several missions
 * renders one block per region, each with the chunk length of its own
 * `constellation.mission.config` event.
 *
 * Modes:
 *  - default: read the whole file, its last line with or without a
 *    newline, render one frame, exit (pipeable);
 *  - --follow: poll the file for appended lines every --interval-ms
 *    (default 500), repainting in place until interrupted; a last line
 *    still lacking its newline waits for the next poll.
 *
 * The header counts the lines that do not parse as JSON (a cut or
 * corrupt line), which every pane skips.
 *
 * Metrics (per-chunk event fields): frames, drained_bits (default),
 * queue_bits (backlog at the chunk's end), dropped_bits (shed so far).
 *
 * When the journal carries `health.alert.fire` / `health.alert.resolve` events
 * (the fleet health plane's rule transitions), an alerts pane renders
 * last: firing alerts first, one line per (rule, entity) with its bin
 * span and latest offending value. Feed it with e.g.
 *   bench_health --journal-out health.journal.jsonl
 *   kodan-top health.journal.jsonl
 *
 * With --profile, a hot-spans pane renders last: the CPU profile
 * written by --profile-out / KODAN_PROF (top spans by task-clock with
 * relative-cost bars, plus the hottest sampled frames). The file is
 * re-read on every repaint under --follow, so pointing it at the
 * profile path of a run that restarts (or a wrapper that re-captures)
 * keeps the pane current. Feed it with e.g.
 *   bench_dataplane --journal-out dp.jsonl --profile-out dp.prof.json
 *   kodan-top dp.jsonl --profile dp.prof.json
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "telemetry/report.hpp"
#include "util/json.hpp"

namespace json = kodan::util::json;
namespace report = kodan::telemetry::report;

namespace {

constexpr const char *kSparkLevels[] = {"▁", "▂", "▃",
                                        "▄", "▅", "▆",
                                        "▇", "█"};
constexpr int kSparkLevelCount = 8;

int
usage()
{
    std::cerr << "usage:\n"
                 "  kodan-top <journal.jsonl> [--follow]\n"
                 "      [--interval-ms N] [--metric NAME] [--width N]\n"
                 "      [--profile <profile.json>]\n"
                 "metrics (per constellation.satellite.chunk event): "
                 "frames drained_bits queue_bits dropped_bits\n";
    return 2;
}

int
fail(const std::string &message)
{
    std::cerr << "kodan-top: " << message << "\n";
    return 2;
}

/** Aggregated view of one mission's (journal region's) chunk events. */
struct MissionView
{
    /** satellite -> chunk index -> metric value. */
    std::map<std::int64_t, std::map<std::int64_t, double>> per_satellite;
    /** satellite -> frames observed over the chunks seen. */
    std::map<std::int64_t, double> frames_total;
    std::uint64_t events_seen = 0;
    /** Chunk length from this mission's config event (0 = not seen). */
    double chunk_s = 0.0;

    std::int64_t firstChunk() const
    {
        std::int64_t lo = 0;
        bool first = true;
        for (const auto &[sat, chunks] : per_satellite) {
            if (!chunks.empty() &&
                (first || chunks.begin()->first < lo)) {
                lo = chunks.begin()->first;
                first = false;
            }
        }
        return lo;
    }

    std::int64_t lastChunk() const
    {
        std::int64_t hi = 0;
        bool first = true;
        for (const auto &[sat, chunks] : per_satellite) {
            if (!chunks.empty() &&
                (first || chunks.rbegin()->first > hi)) {
                hi = chunks.rbegin()->first;
                first = false;
            }
        }
        return hi;
    }
};

/** Journal region (one per mission run) -> that mission's view. */
using MissionViews = std::map<std::int64_t, MissionView>;

/** Feed one parsed journal line into its mission's view; false when
 *  an integer field of the line is not an integer (the line is then
 *  unparseable and ingested nowhere). */
bool
ingest(MissionViews &views, const json::Value &event,
       const std::string &metric)
{
    const std::string type = event.stringOr("type", "");
    const json::Value *fields = event.find("fields");
    if (fields == nullptr) {
        return true;
    }
    const auto region = json::integerMember<std::int64_t>(event, "region");
    if (!region) {
        return false;
    }
    if (type == "constellation.mission.config") {
        views[*region].chunk_s = fields->numberOr("chunk_s", 0.0);
        return true;
    }
    if (type != "constellation.satellite.chunk") {
        return true;
    }
    const auto sat = json::integerMember<std::int64_t>(*fields, "sat", -1);
    const auto chunk = json::integerMember<std::int64_t>(*fields, "chunk");
    if (!sat || !chunk) {
        return false;
    }
    if (*sat < 0) {
        return true;
    }
    MissionView &view = views[*region];
    view.per_satellite[*sat][*chunk] = fields->numberOr(metric, 0.0);
    view.frames_total[*sat] += fields->numberOr("frames", 0.0);
    ++view.events_seen;
    return true;
}

/** Latest state of one (rule, entity) alert from the health plane. */
struct AlertRow
{
    bool firing = false;
    std::int64_t first_bin = 0;
    std::int64_t last_bin = 0;
    double value = 0.0;
    std::uint64_t fired = 0; ///< fire transitions seen
};

/** Aggregated view of health.alert.* journal events seen so far. */
struct AlertView
{
    /** (rule, entity_kind, entity) -> latest alert state. */
    std::map<std::tuple<std::string, std::string, std::int64_t>, AlertRow>
        rows;
    std::uint64_t events_seen = 0;

    std::size_t firingCount() const
    {
        std::size_t n = 0;
        for (const auto &[key, row] : rows) {
            n += row.firing ? 1 : 0;
        }
        return n;
    }
};

/** Feed one parsed journal line into the alert view; false when an
 *  integer field of the line is not an integer (see ingest). */
bool
ingestAlert(AlertView &view, const json::Value &event)
{
    const std::string type = event.stringOr("type", "");
    const bool fire = type == "health.alert.fire";
    if (!fire && type != "health.alert.resolve") {
        return true;
    }
    const json::Value *fields = event.find("fields");
    if (fields == nullptr) {
        return true;
    }
    const std::string rule = fields->stringOr("rule", "");
    if (rule.empty()) {
        return true;
    }
    const auto entity =
        json::integerMember<std::int64_t>(*fields, "entity", -1);
    const auto bin = json::integerMember<std::int64_t>(*fields, "bin");
    if (!entity || !bin) {
        return false;
    }
    AlertRow &row =
        view.rows[{rule, fields->stringOr("entity_kind", "?"), *entity}];
    if (fire) {
        row.first_bin = row.fired == 0 ? *bin : row.first_bin;
        ++row.fired;
    }
    row.firing = fire;
    row.last_bin = *bin;
    row.value = fields->numberOr("value", 0.0);
    ++view.events_seen;
    return true;
}

/** Alerts pane: firing alerts first, then resolved, each naming the
 *  rule, the entity, the bin span, and the latest observed value. */
void
renderAlerts(const AlertView &view, std::ostream &os)
{
    if (view.rows.empty()) {
        return;
    }
    os << "health alerts — " << view.firingCount() << " firing, "
       << view.rows.size() << " total (" << view.events_seen
       << " event(s))\n";
    std::vector<const std::pair<
        const std::tuple<std::string, std::string, std::int64_t>,
        AlertRow> *>
        rows;
    for (const auto &entry : view.rows) {
        rows.push_back(&entry);
    }
    std::sort(rows.begin(), rows.end(), [](const auto *a, const auto *b) {
        if (a->second.firing != b->second.firing) {
            return a->second.firing; // firing above resolved
        }
        return a->first < b->first;
    });
    for (const auto *row : rows) {
        const auto &[rule, kind, entity] = row->first;
        const AlertRow &alert = row->second;
        os << "  " << (alert.firing ? "[firing  ]" : "[resolved]") << " "
           << rule << " " << kind << "/" << entity << " bins "
           << alert.first_bin << ".." << alert.last_bin << " value "
           << alert.value;
        if (alert.fired > 1) {
            os << " (fired " << alert.fired << "x)";
        }
        os << "\n";
    }
}

/** Hot-spans pane: top spans by task-clock with relative-cost bars,
 *  then the hottest sampled frames by self time. */
void
renderProfile(const report::ProfileDoc &doc, const std::string &path,
              int width, std::ostream &os)
{
    os << "hot spans — " << path << " (" << doc.samples
       << " sample(s) @ " << doc.period_us << " us, counters: "
       << doc.span_source << ")\n";
    std::vector<report::ProfileSpanRow> rows = doc.spans;
    std::sort(rows.begin(), rows.end(),
              [](const report::ProfileSpanRow &a,
                 const report::ProfileSpanRow &b) {
                  if (a.task_clock_ns != b.task_clock_ns) {
                      return a.task_clock_ns > b.task_clock_ns;
                  }
                  return a.name < b.name;
              });
    const double peak_ns =
        rows.empty() ? 0.0 : static_cast<double>(rows[0].task_clock_ns);
    const int bar_width = std::min(24, std::max(4, width / 3));
    std::size_t shown = 0;
    for (const report::ProfileSpanRow &row : rows) {
        if (shown++ >= 8) {
            os << "  ... " << rows.size() - 8 << " more span(s)\n";
            break;
        }
        const int cells =
            peak_ns <= 0.0
                ? 0
                : static_cast<int>(std::lround(
                      static_cast<double>(row.task_clock_ns) / peak_ns *
                      bar_width));
        std::string bar;
        for (int c = 0; c < bar_width; ++c) {
            bar += c < cells ? kSparkLevels[kSparkLevelCount - 1] : "·";
        }
        std::ostringstream label;
        label << row.name;
        os << "  " << label.str()
           << std::string(label.str().size() < 28
                              ? 28 - label.str().size()
                              : 1,
                          ' ')
           << "|" << bar << "| "
           << static_cast<double>(row.task_clock_ns) * 1e-9 << " s, "
           << row.calls << " call(s)";
        if (row.cycles > 0) {
            os << ", IPC "
               << static_cast<double>(row.instructions) /
                      static_cast<double>(row.cycles);
        }
        os << "\n";
    }
    if (!doc.frames.empty()) {
        os << "  hot frames:";
        std::size_t frames_shown = 0;
        for (const report::ProfileFrame &frame : doc.frames) {
            if (frames_shown++ >= 5) {
                break;
            }
            os << (frames_shown == 1 ? " " : "; ") << frame.name << " ("
               << frame.self << ")";
        }
        os << "\n";
    }
}

/** One sparkline row over points [lo, hi], at most @p width cells. */
std::string
sparkline(const std::map<std::int64_t, double> &points, std::int64_t lo,
          std::int64_t hi, int width, double peak)
{
    const std::int64_t span = hi - lo + 1;
    const std::int64_t cells =
        std::min<std::int64_t>(span, std::max(1, width));
    std::string out;
    for (std::int64_t c = 0; c < cells; ++c) {
        // Cell c covers points [lo + c*span/cells, lo + (c+1)*span/cells).
        const std::int64_t b0 = lo + c * span / cells;
        const std::int64_t b1 = lo + (c + 1) * span / cells;
        double value = 0.0;
        bool seen = false;
        for (std::int64_t b = b0; b < std::max(b0 + 1, b1); ++b) {
            const auto it = points.find(b);
            if (it != points.end()) {
                value = std::max(value, it->second);
                seen = true;
            }
        }
        if (!seen) {
            out += "·"; // middle dot: no data in this cell
        } else if (peak <= 0.0) {
            out += kSparkLevels[0];
        } else {
            const int level = std::min(
                kSparkLevelCount - 1,
                static_cast<int>(std::floor(
                    value / peak * static_cast<double>(kSparkLevelCount))));
            out += kSparkLevels[std::max(0, level)];
        }
    }
    return out;
}

/** Re-read + render the --profile pane (ignored when path is empty). */
void
renderProfilePane(const std::string &profile_path, int width,
                  std::ostream &os)
{
    if (profile_path.empty()) {
        return;
    }
    report::ProfileDoc doc;
    std::string error;
    if (report::load(profile_path, doc, &error)) {
        renderProfile(doc, profile_path, width, os);
    } else {
        os << "hot spans — waiting for profile (" << error << ")\n";
    }
}

/** One mission's block: its header line, then one sparkline row per
 *  satellite over the mission's own chunk range and peak. */
void
renderMission(std::int64_t region, const MissionView &view, int width,
              std::ostream &os)
{
    const std::int64_t lo = view.firstChunk();
    const std::int64_t hi = view.lastChunk();
    double peak = 0.0;
    for (const auto &[sat, chunks] : view.per_satellite) {
        for (const auto &[chunk, value] : chunks) {
            peak = std::max(peak, value);
        }
    }
    os << "region " << region;
    if (view.chunk_s > 0.0) {
        os << " (" << view.chunk_s << " s/chunk)";
    }
    os << ": chunks " << lo << ".." << hi << ", peak " << peak << ", "
       << view.events_seen << " event(s)\n";
    for (const auto &[sat, chunks] : view.per_satellite) {
        double last = 0.0;
        double total = 0.0;
        for (const auto &[chunk, value] : chunks) {
            last = value;
            total += value;
        }
        os << "  sat " << sat << " |"
           << sparkline(chunks, lo, hi, width, peak) << "| last " << last
           << " total " << total;
        const auto frames = view.frames_total.find(sat);
        if (frames != view.frames_total.end()) {
            os << " frames " << frames->second;
        }
        os << "\n";
    }
}

void
render(const MissionViews &views, const AlertView &alerts,
       std::uint64_t unparseable, const std::string &metric,
       const std::string &profile_path, int width, bool follow,
       std::ostream &os)
{
    if (follow) {
        os << "\033[H\033[2J"; // home + clear
    }
    os << "kodan-top — per-satellite `" << metric << "` by chunk";
    if (unparseable > 0) {
        os << " (" << unparseable << " unparseable line(s) skipped)";
    }
    os << "\n";
    bool any_chunks = false;
    for (const auto &[region, view] : views) {
        if (!view.per_satellite.empty()) {
            renderMission(region, view, width, os);
            any_chunks = true;
        }
    }
    if (!any_chunks && alerts.rows.empty()) {
        os << "  (no constellation.satellite.chunk events yet — run "
              "a mission with --journal-out or "
              "KODAN_JOURNAL_STREAM)\n";
    }
    renderAlerts(alerts, os);
    renderProfilePane(profile_path, width, os);
    os.flush();
}

/** Incremental JSONL reader: remembers the file offset and carries any
 *  partial trailing line between polls. */
struct Tail
{
    std::string path;
    std::streamoff offset = 0;
    std::string partial;

    /** Read newly appended complete lines. */
    std::vector<std::string> poll()
    {
        std::vector<std::string> lines;
        std::ifstream file(path, std::ios::binary);
        if (!file) {
            return lines;
        }
        file.seekg(0, std::ios::end);
        const std::streamoff size = file.tellg();
        if (size <= offset) {
            return lines;
        }
        file.seekg(offset);
        std::string chunk(static_cast<std::size_t>(size - offset), '\0');
        file.read(chunk.data(),
                  static_cast<std::streamsize>(chunk.size()));
        offset = size;
        partial += chunk;
        std::size_t start = 0;
        for (std::size_t i = 0; i < partial.size(); ++i) {
            if (partial[i] == '\n') {
                lines.push_back(partial.substr(start, i - start));
                start = i + 1;
            }
        }
        partial.erase(0, start);
        return lines;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    std::string metric = "drained_bits";
    std::string profile_path;
    bool follow = false;
    int interval_ms = 500;
    int width = 64;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--follow") {
            follow = true;
        } else if (arg == "--interval-ms" && i + 1 < argc) {
            interval_ms = std::atoi(argv[++i]);
            if (interval_ms <= 0) {
                return fail("bad --interval-ms value");
            }
        } else if (arg == "--metric" && i + 1 < argc) {
            metric = argv[++i];
        } else if (arg == "--width" && i + 1 < argc) {
            width = std::atoi(argv[++i]);
            if (width <= 0) {
                return fail("bad --width value");
            }
        } else if (arg == "--profile" && i + 1 < argc) {
            profile_path = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            return usage();
        } else if (!arg.empty() && arg[0] == '-') {
            return fail("unknown option: " + arg);
        } else if (path.empty()) {
            path = arg;
        } else {
            return usage();
        }
    }
    if (path.empty()) {
        return usage();
    }
    MissionViews views;
    AlertView alerts;
    std::uint64_t unparseable = 0;
    Tail tail{path, 0, ""};

    const auto ingestLines = [&](const std::vector<std::string> &lines) {
        for (const std::string &line : lines) {
            if (line.empty() ||
                line.find("\"kodan_journal\"") != std::string::npos) {
                continue; // export header
            }
            json::Value event;
            if (!json::parse(line, event, nullptr) ||
                !ingest(views, event, metric) ||
                !ingestAlert(alerts, event)) {
                ++unparseable;
            }
        }
    };

    if (!follow) {
        std::ifstream file(path, std::ios::binary);
        if (!file) {
            return fail("cannot open " + path);
        }
        std::vector<std::string> lines = tail.poll();
        // The file is finished: its last line is whole even without a
        // newline, so take the line poll() holds back for a writer.
        lines.push_back(tail.partial);
        ingestLines(lines);
        render(views, alerts, unparseable, metric, profile_path, width,
               false, std::cout);
        return 0;
    }

    for (;;) {
        ingestLines(tail.poll());
        render(views, alerts, unparseable, metric, profile_path, width,
               true, std::cout);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(interval_ms));
    }
    return 0;
}
