/**
 * @file
 * bench_prof — CPU-profiling-plane guard: proves the profiler observes
 * without perturbing, and that sampling overhead stays bounded.
 *
 *   bench_prof [--verify] [--ceiling F] [--gemm-reps N]
 *
 * Default mode runs the deterministic workload once — a small
 * constellation scenario (journal + metrics + time series recording)
 * followed by a burst of --gemm-reps dense GEMMs (default 20) — and
 * exits. Combined with the harness flags this is the flamegraph/diff
 * capture target:
 *
 *   bench_prof --gemm-reps 20 --profile-out base.prof.json
 *   bench_prof --gemm-reps 60 --profile-out slow.prof.json
 *   kodan-report diff base.prof.json slow.prof.json
 *
 * The second run does three times the GEMM work, so the diff must rank
 * `ml.kernels.gemm` as the top regressed span.
 *
 * --verify asserts the determinism contract (DESIGN.md "CPU profiling
 * plane"): at KODAN_THREADS 1, 4, and 16, the workload's journal
 * JSONL, time-series JSON, and canonical metrics snapshot (timers
 * reduced to call counts — their durations are wall clock by
 * definition) are byte-identical with profiling on vs off. It then
 * measures the profiling plane's overhead (the sampler plus the
 * counter reads of every span) on the GEMM burst: 9 interleaved
 * (plain, profiled) pairs, the side that runs first alternating, so
 * host drift moves both halves of a pair alike. It fails when the
 * median pair ratio exceeds --ceiling (default 1.5 — the 997 Hz
 * sampler costs low single-digit percent; the headroom absorbs
 * shared-runner noise). Exit status: 0 on pass, 1 on any mismatch or
 * ceiling breach.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "ml/matrix.hpp"
#include "sim/constellation.hpp"
#include "telemetry/report.hpp"
#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace {

namespace telemetry = kodan::telemetry;
namespace prof = kodan::telemetry::prof;
namespace sim = kodan::sim;
namespace ml = kodan::ml;

/** The constellation scenario: small enough to run six times in
 *  --verify, big enough to exercise sharded multi-threaded scheduling
 *  and emit a real journal/time-series stream. */
sim::ConstellationConfig
scenario()
{
    sim::ConstellationConfig config;
    config.mission = sim::MissionConfig::makeConstellation(10, 2, 1);
    config.mission.duration = 6.0 * 3600.0;
    config.mission.scheduler_step = 30.0;
    config.mission.contact_scan_step = 60.0;
    config.mission.telemetry_bin_s = 1800.0;
    config.mission.telemetry_prefix = "constellation";
    config.chunk_s = 3.0 * 3600.0;
    config.shard_size = 4;
    return config;
}

/** Dense square operands for the GEMM burst. */
ml::Matrix
denseOperand(std::size_t n, std::uint64_t salt)
{
    ml::Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            m.at(i, j) =
                0.25 + 0.001 * static_cast<double>(
                                   (i * 37 + j * 11 + salt) % 97);
        }
    }
    return m;
}

/** The GEMM burst: @p reps dense multiplies through Matrix::multiply.
 *  Returns a value sink. */
double
gemmBurst(int reps)
{
    const std::size_t n = 256;
    const ml::Matrix a = denseOperand(n, 1);
    const ml::Matrix b = denseOperand(n, 2);
    double sink = 0.0;
    for (int r = 0; r < reps; ++r) {
        const ml::Matrix c = ml::Matrix::multiply(a, b);
        sink += c.at(0, 0) + c.at(n - 1, n - 1);
    }
    return sink;
}

/** Everything one instrumented workload run produces, captured for
 *  bitwise comparison. */
struct CapturedRun
{
    std::string journal;
    std::string series;
    std::string metrics; ///< canonical form (timers -> call counts)
    double sink = 0.0;
};

/** Canonicalize a metrics snapshot: every deterministic field, with
 *  timer durations (wall clock) reduced to their call counts. */
std::string
canonicalMetrics()
{
    std::ostringstream out;
    const telemetry::RegistrySnapshot snap =
        telemetry::registry().snapshot();
    for (const telemetry::MetricSample &m : snap.metrics) {
        out << m.name << " kind=" << static_cast<int>(m.kind)
            << " count=" << m.count;
        if (m.kind != telemetry::MetricSample::Kind::Timer) {
            out << " sum=" << m.sum << " max=" << m.max;
            for (std::size_t i = 0; i < m.buckets.size(); ++i) {
                out << " b" << i << "=" << m.buckets[i];
            }
        }
        out << "\n";
    }
    return out.str();
}

CapturedRun
runWorkload(int threads, int gemm_reps)
{
    telemetry::resetAll();
    kodan::util::setGlobalThreads(threads);

    const sim::ConstellationEngine engine(nullptr, 1.0 / 3.0);
    sim::FilterBehavior filter;
    filter.frame_time = 40.0;
    filter.keep_high = 0.9;
    filter.keep_low = 0.2;
    CapturedRun run;
    engine.run(scenario(), filter);
    run.sink = gemmBurst(gemm_reps);

    kodan::util::setGlobalThreads(0);
    std::ostringstream journal_out;
    telemetry::writeJournalJsonl(telemetry::collectJournal(),
                                 telemetry::journalDroppedEvents(),
                                 journal_out);
    run.journal = journal_out.str();
    std::ostringstream series_out;
    telemetry::writeTimeSeriesJson(telemetry::timeSeriesSnapshot(),
                                   series_out);
    run.series = series_out.str();
    run.metrics = canonicalMetrics();
    return run;
}

/** First differing line of two captured byte streams, for diagnostics. */
void
reportMismatch(const std::string &what, const std::string &off,
               const std::string &on)
{
    std::cerr << "bench_prof: " << what
              << " bytes differ with profiling on (off " << off.size()
              << " B, on " << on.size() << " B)\n";
    std::istringstream a(off);
    std::istringstream b(on);
    std::string line_a;
    std::string line_b;
    std::size_t line_no = 1;
    while (true) {
        const bool more_a = static_cast<bool>(std::getline(a, line_a));
        const bool more_b = static_cast<bool>(std::getline(b, line_b));
        if (!more_a && !more_b) {
            break;
        }
        if (line_a != line_b || more_a != more_b) {
            std::cerr << "  first divergence at line " << line_no
                      << ":\n    off: " << (more_a ? line_a : "<eof>")
                      << "\n    on:  " << (more_b ? line_b : "<eof>")
                      << "\n";
            break;
        }
        ++line_no;
        line_a.clear();
        line_b.clear();
    }
}

int
verify(double ceiling, int gemm_reps)
{
    telemetry::setEnabled(true);
    telemetry::setJournalEnabled(true);
    bool ok = true;

    for (int threads : {1, 4, 16}) {
        prof::setProfilingEnabled(false);
        const CapturedRun off = runWorkload(threads, gemm_reps);
        prof::setProfilingEnabled(true);
        const CapturedRun on = runWorkload(threads, gemm_reps);
        prof::setProfilingEnabled(false);

        // The profile view: the span table of the exported document.
        const prof::ProfileSnapshot snapshot = prof::snapshotProfile();
        std::ostringstream profile_json;
        prof::writeProfileJson(snapshot, profile_json);
        telemetry::report::ProfileDoc profile;
        std::string error;
        if (!telemetry::report::parse(profile_json.str(), profile,
                                      &error)) {
            std::cerr << "bench_prof: profile does not parse: " << error
                      << "\n";
            ok = false;
        }
        std::cout << "threads=" << threads << ": journal "
                  << off.journal.size() << " B, series "
                  << off.series.size() << " B, metrics "
                  << off.metrics.size() << " B; profiled run took "
                  << snapshot.samples << " sample(s), "
                  << profile.spans.size() << " span row(s) ("
                  << profile.span_source << ")\n";
        if (off.sink != on.sink) {
            std::cerr << "bench_prof: GEMM result diverged with "
                         "profiling on (threads="
                      << threads << ")\n";
            ok = false;
        }
        if (off.journal != on.journal) {
            reportMismatch("journal", off.journal, on.journal);
            ok = false;
        }
        if (off.series != on.series) {
            reportMismatch("time series", off.series, on.series);
            ok = false;
        }
        if (off.metrics != on.metrics) {
            reportMismatch("metrics", off.metrics, on.metrics);
            ok = false;
        }
        // The guard must not pass vacuously: the profiled run has to
        // have charged counters to its spans (spans also record calls
        // and wall time with telemetry alone).
        if (std::none_of(profile.spans.begin(), profile.spans.end(),
                         [](const telemetry::report::ProfileSpanRow &row) {
                             return row.task_clock_ns > 0;
                         })) {
            std::cerr << "bench_prof: profiled run charged no span "
                         "counters (threads="
                      << threads << ")\n";
            ok = false;
        }
        if (prof::samplerSupported() && snapshot.samples == 0) {
            std::cerr << "bench_prof: profiled run recorded no samples "
                         "(threads="
                      << threads << ")\n";
            ok = false;
        }
    }

    // Profiling overhead on the GEMM burst: interleaved (plain,
    // profiled) pairs, the side that runs first alternating, asserted
    // on the median pair ratio.
    telemetry::resetAll();
    const auto timed_burst = [&](bool profiled) {
        prof::setProfilingEnabled(profiled);
        const auto start = std::chrono::steady_clock::now();
        gemmBurst(gemm_reps);
        const double elapsed = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
        prof::setProfilingEnabled(false);
        return elapsed;
    };
    constexpr int kPairs = 9;
    std::vector<double> ratios;
    for (int pair = 0; pair < kPairs; ++pair) {
        double plain_s = 0.0;
        double profiled_s = 0.0;
        if (pair % 2 == 0) {
            plain_s = timed_burst(false);
            profiled_s = timed_burst(true);
        } else {
            profiled_s = timed_burst(true);
            plain_s = timed_burst(false);
        }
        ratios.push_back(plain_s > 0.0 ? profiled_s / plain_s : 1.0);
    }
    std::sort(ratios.begin(), ratios.end());
    const double ratio = ratios[kPairs / 2];
    std::cout << "overhead: median profiled/plain ratio of " << kPairs
              << " pairs " << ratio << " (range " << ratios.front()
              << ".." << ratios.back() << ", ceiling " << ceiling
              << ")\n";
    if (ratio > ceiling) {
        std::cerr << "bench_prof: profiling overhead " << ratio
                  << "x exceeds ceiling " << ceiling << "x\n";
        ok = false;
    }

    std::cout << (ok ? "VERIFY PASS: profiler perturbs nothing"
                     : "VERIFY FAIL")
              << "\n";
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    kodan::bench::initHarness(argc, argv);

    bool do_verify = false;
    double ceiling = 1.5;
    int gemm_reps = 20;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--verify") {
            do_verify = true;
        } else if (arg == "--ceiling" && i + 1 < argc) {
            ceiling = std::strtod(argv[++i], nullptr);
        } else if (arg == "--gemm-reps" && i + 1 < argc) {
            gemm_reps = std::atoi(argv[++i]);
        } else {
            std::cerr << "usage: bench_prof [--verify] [--ceiling F] "
                         "[--gemm-reps N]\n";
            return 2;
        }
    }
    if (do_verify) {
        return verify(ceiling, gemm_reps);
    }

    // Capture mode: one instrumented pass, outputs via the harness
    // flags (--profile-out, --journal-out, --telemetry-out).
    const CapturedRun run =
        runWorkload(kodan::util::globalThreadCount(), gemm_reps);
    std::cout << "bench_prof: workload done (journal "
              << run.journal.size() << " B, sink " << run.sink << ")\n";
    return 0;
}
