#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace perfbench {

namespace {

/** Where the probe publishes its result, so the loop is kept. */
volatile double g_probe_sink = 0.0;

} // namespace

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> samples)
{
    if (samples.empty()) {
        return 0.0;
    }
    const std::size_t mid = samples.size() / 2;
    std::nth_element(samples.begin(), samples.begin() + mid,
                     samples.end());
    const double upper = samples[mid];
    if (samples.size() % 2 == 1) {
        return upper;
    }
    const double lower =
        *std::max_element(samples.begin(), samples.begin() + mid);
    return (lower + upper) / 2.0;
}

namespace {

/**
 * One past the last sample of each window: runs of consecutive
 * @p samples adding up to @p window, a shorter tail joining the last
 * run. One window holding everything when no run fills @p window.
 */
std::vector<std::size_t>
windowEnds(const std::vector<double> &samples, double window)
{
    std::vector<std::size_t> ends;
    double filled = 0.0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        filled += samples[i];
        if (filled >= window) {
            ends.push_back(i + 1);
            filled = 0.0;
        }
    }
    if (ends.empty()) {
        ends.push_back(samples.size());
    }
    ends.back() = samples.size();
    return ends;
}

} // namespace

double
windowedMedian(const std::vector<double> &samples, double window)
{
    if (samples.empty()) {
        return 0.0;
    }
    const std::vector<std::size_t> ends = windowEnds(samples, window);
    double sum = 0.0;
    std::size_t begin = 0;
    for (const std::size_t end : ends) {
        sum += median(std::vector<double>(samples.begin() + begin,
                                          samples.begin() + end));
        begin = end;
    }
    return sum / static_cast<double>(ends.size());
}

namespace {

/** 1-based nearest rank of the p-th percentile of @p count samples. */
std::size_t
nearestRank(std::size_t count, double p)
{
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(count)));
    return std::clamp<std::size_t>(rank, 1, count);
}

} // namespace

std::size_t
samplesBeyond(std::size_t count, double p)
{
    if (count == 0) {
        return 0;
    }
    return count - nearestRank(count, p);
}

std::optional<double>
reportablePercentile(std::vector<double> samples, double p)
{
    if (samples.empty() ||
        samplesBeyond(samples.size(), p) < kMinTailSamples) {
        return std::nullopt;
    }
    const std::size_t k = nearestRank(samples.size(), p) - 1;
    std::nth_element(samples.begin(), samples.begin() + k, samples.end());
    return samples[k];
}

std::optional<double>
parseVmHwmMib(const std::string &status_text)
{
    std::istringstream in(status_text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) != 0) {
            continue;
        }
        std::istringstream fields(line.substr(6));
        double kib = 0.0;
        std::string unit;
        if (!(fields >> kib >> unit) || unit != "kB" || kib < 0.0) {
            return std::nullopt;
        }
        return kib / 1024.0;
    }
    return std::nullopt;
}

double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    if (status) {
        std::ostringstream text;
        text << status.rdbuf();
        if (const auto mib = parseVmHwmMib(text.str())) {
            return *mib;
        }
    }
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

CountingBuf::int_type
CountingBuf::overflow(int_type ch)
{
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
        ++bytes_;
    }
    return traits_type::not_eof(ch);
}

std::streamsize
CountingBuf::xsputn(const char *, std::streamsize n)
{
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
}

CountingSink::CountingSink() : std::ostream(&buf) {}

double
Ledger::attributed() const
{
    double sum = 0.0;
    for (const Row &row : rows) {
        sum += row.value;
    }
    return sum;
}

double
Ledger::residual() const
{
    return total - attributed();
}

double
Ledger::share(double value) const
{
    return total > 0.0 ? value / total : 0.0;
}

void
Ledger::print(std::ostream &os) const
{
    const auto line = [&](const std::string &name, double value) {
        os << "  " << std::left << std::setw(34) << name << std::right
           << std::setw(14) << std::fixed << std::setprecision(3) << value
           << std::setw(9) << std::setprecision(1)
           << 100.0 * share(value) << " %\n";
    };
    const std::ios::fmtflags flags = os.flags();
    const std::streamsize precision = os.precision();
    os << title << " (" << unit << ")\n";
    for (const Row &row : rows) {
        line(row.name, row.value);
    }
    line("residual (unattributed)", residual());
    line("traced end-to-end", total);
    os.flags(flags);
    os.precision(precision);
}

double
hostRefMops(double seconds)
{
    constexpr std::uint64_t kChunk = 1u << 16;
    std::uint64_t a = 1, b = 2, c = 3, d = 4;
    std::uint64_t iterations = 0;
    const double start = nowSeconds();
    double elapsed = 0.0;
    do {
        for (std::uint64_t i = 0; i < kChunk; ++i) {
            a = (a ^ (a >> 29)) * 0xBF58476D1CE4E5B9ULL + i;
            b = (b ^ (b >> 31)) * 0x94D049BB133111EBULL + i;
            c = (c ^ (c >> 27)) * 0xBF58476D1CE4E5B9ULL + i;
            d = (d ^ (d >> 30)) * 0x94D049BB133111EBULL + i;
        }
        iterations += kChunk;
        elapsed = nowSeconds() - start;
    } while (elapsed < seconds);
    g_probe_sink = static_cast<double>(a ^ b ^ c ^ d);
    return static_cast<double>(iterations) / elapsed / 1.0e6;
}

SpeedProbe::SpeedProbe()
{
    x_.fill(1.0);
    y_.fill(0.5);
}

double
SpeedProbe::run()
{
    // CMakeLists.txt compiles this file without vectorization and with
    // every loop starting on a 64-byte boundary, so the loop stays the
    // scalar load, multiply, add and store whose rate was measured
    // against the workloads, laid out the same in every build (its
    // rate changed 1.7x with the loop's offset in a cache line).
    const double start = nowSeconds();
    double *y = y_.data();
    const double *x = x_.data();
    for (int pass = 0; pass < kPasses; ++pass) {
        const double a = 1e-9 * pass;
        for (std::size_t i = 0; i < kElements; ++i) {
            y[i] = a * x[i] + y[i];
        }
        // Each pass reads what the last one stored.
        asm volatile("" ::: "memory");
    }
    const double elapsed = nowSeconds() - start;
    g_probe_sink = y[kElements / 2];
    return elapsed;
}

double
probeMops(const std::vector<double> &probe_s)
{
    double seconds = 0.0;
    for (const double s : probe_s) {
        seconds += s;
    }
    return seconds > 0.0 ? static_cast<double>(probe_s.size()) *
                               SpeedProbe::kWork / seconds / 1.0e6
                         : 0.0;
}

double
hostScaled(double seconds, double mops, double nominal_mops)
{
    return seconds * mops / nominal_mops;
}

std::vector<double>
hostScaled(const std::vector<double> &samples,
           const std::vector<double> &probe_s, double window)
{
    if (samples.empty() || probe_s.size() != samples.size()) {
        return {};
    }
    std::vector<double> scaled(samples.size());
    std::size_t begin = 0;
    for (const std::size_t end : windowEnds(samples, window)) {
        const double mops = probeMops(std::vector<double>(
            probe_s.begin() + begin, probe_s.begin() + end));
        for (std::size_t i = begin; i < end; ++i) {
            scaled[i] = hostScaled(samples[i], mops, kNominalProbeMops);
        }
        begin = end;
    }
    return scaled;
}

void
writeResultJson(const Result &result, std::ostream &os)
{
    std::ostringstream out;
    out << std::setprecision(17);
    out << "{\"correct\": " << (result.correct ? "true" : "false")
        << ", \"attempted\": " << result.attempted
        << ", \"failed\": " << result.failed << ", \"values\": {";
    const char *separator = "";
    for (const auto &[name, value] : result.values) {
        out << separator << '"' << name << "\": " << value;
        separator = ", ";
    }
    out << "}}\n";
    os << out.str() << std::flush;
}

} // namespace perfbench
