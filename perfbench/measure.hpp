/**
 * @file
 * Measurement helpers of the repository benchmark: clocks, percentile
 * reporting, peak-RSS reading, a byte-counting output sink, the layer
 * ledger, the host-speed probes and host scaling, and the
 * measured-values line.
 *
 * Nothing here knows about kodan; the workloads (frames.cpp,
 * mission.cpp) feed these helpers with what they time around the calls
 * into each layer's public API.
 */

#ifndef KODAN_PERFBENCH_MEASURE_HPP
#define KODAN_PERFBENCH_MEASURE_HPP

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

namespace perfbench {

/** Seconds on the steady clock (arbitrary epoch). */
double nowSeconds();

/* ---------------------------------------------------------------- */
/* Percentiles                                                       */
/* ---------------------------------------------------------------- */

/** A tail percentile is reported only with this many samples beyond it. */
inline constexpr std::size_t kMinTailSamples = 10;

/** Median of @p samples (mean of the middle two for an even count);
 *  0 for an empty set. */
double median(std::vector<double> samples);

/**
 * Median latency on a drifting host: @p samples are durations in the
 * order they were taken; each run of consecutive samples whose
 * durations add up to @p window forms a window (a shorter tail joins
 * the last one), and the result is the mean of the windows' medians.
 * On a steady host it equals the median. When the host's speed
 * switches between a fast and a slow state, a single median jumps from
 * one state's typical value to the other's as the share of time spent
 * in each crosses one half; the mean of the window medians moves with
 * that share instead.
 */
double windowedMedian(const std::vector<double> &samples, double window);

/** Samples that lie beyond the nearest-rank @p p-th percentile of
 *  @p count samples: count - ceil(p/100 * count). */
std::size_t samplesBeyond(std::size_t count, double p);

/**
 * The nearest-rank @p p-th percentile (0 < p < 100) of @p samples, or
 * nothing when fewer than kMinTailSamples samples lie beyond it — a
 * p99 needs at least 1000 samples.
 */
std::optional<double> reportablePercentile(std::vector<double> samples,
                                           double p);

/* ---------------------------------------------------------------- */
/* Peak resident set                                                 */
/* ---------------------------------------------------------------- */

/** Peak resident set in MiB from the text of /proc/<pid>/status (its
 *  VmHWM line), or nothing when the line is absent or malformed. */
std::optional<double> parseVmHwmMib(const std::string &status_text);

/** Peak resident set of this process in MiB: VmHWM, falling back to
 *  getrusage's ru_maxrss. */
double peakRssMib();

/* ---------------------------------------------------------------- */
/* Byte-counting sink                                                */
/* ---------------------------------------------------------------- */

/** Stream buffer that discards everything written and counts it. */
class CountingBuf : public std::streambuf
{
  public:
    std::uint64_t bytes() const { return bytes_; }

  protected:
    int_type overflow(int_type ch) override;
    std::streamsize xsputn(const char *s, std::streamsize n) override;

  private:
    std::uint64_t bytes_ = 0;
};

namespace detail {
/** Holds the buffer so it is constructed before the ostream base. */
struct CountingBufHolder
{
    CountingBuf buf;
};
} // namespace detail

/**
 * In-memory export target: an ostream that counts the bytes the
 * exporters write, so export cost is measured without disk I/O.
 */
class CountingSink : private detail::CountingBufHolder, public std::ostream
{
  public:
    CountingSink();
    CountingSink(const CountingSink &) = delete;
    CountingSink &operator=(const CountingSink &) = delete;

    /** Bytes written so far. */
    std::uint64_t bytes() const { return buf.bytes(); }
};

/* ---------------------------------------------------------------- */
/* Layer ledger                                                      */
/* ---------------------------------------------------------------- */

/**
 * Per-operation cost table: each layer's time beside the traced
 * end-to-end time it belongs to. What the rows do not cover is the
 * residual.
 */
struct Ledger
{
    struct Row
    {
        std::string name;
        double value = 0.0;
    };

    /** Title printed above the table. */
    std::string title;
    /** Unit of every value ("us/frame", "s/op", ...). */
    std::string unit;
    /** Traced end-to-end time of one operation. */
    double total = 0.0;
    std::vector<Row> rows;

    /** Sum of the rows. */
    double attributed() const;
    /** total - attributed(): time no row accounts for (negative when
     *  the rows overlap or over-count). */
    double residual() const;
    /** @p value as a share of total (0 when total is not positive). */
    double share(double value) const;
    /** Render the table: one line per row, the residual, the total. */
    void print(std::ostream &os) const;
};

/* ---------------------------------------------------------------- */
/* Host-speed probes and host-scaled timing                          */
/* ---------------------------------------------------------------- */

/*
 * A shared VM changes speed with its neighbours' load, for minutes at
 * a time. Every time the benchmark reports is scaled to a nominal
 * host: multiplied by the rate a fixed probe loop read around it over
 * the rate that loop reads on the nominal host. The probes are the
 * benchmark's own code, so a change to kodan moves the scaled times as
 * it moves the raw ones. Two probes, because the host's load slows
 * different code by different amounts; perfbench/NOTES.md has the
 * measurements behind each choice.
 */

/**
 * Run a fixed integer loop (four multiply-xorshift chains; it touches
 * no memory) for at least @p seconds and return its rate in millions
 * of iterations per second: host.ref_mops. Its rate follows the
 * set-up's (data generation, training) better than SpeedProbe's does.
 */
double hostRefMops(double seconds);

/** hostRefMops on the nominal host: a round figure near what it reads
 *  on the 4-vCPU Xeon VM the benchmark was tuned on (330-450). */
inline constexpr double kNominalRefMops = 400.0;

/**
 * A fixed piece of work whose rate follows the measured calls and
 * operations: a scalar multiply-add pass y += a * x over two 16 KiB
 * buffers that stay in L1, repeated kPasses times (~85 us). Its rate
 * tracked the frame path and the mission far more closely than
 * hostRefMops's did. The buffers sit at a fixed page offset from each
 * other, so the loop's memory access pattern is the same in every
 * process.
 */
class SpeedProbe
{
  public:
    static constexpr std::size_t kElements = 2048;
    static constexpr int kPasses = 64;
    /** Multiply-adds one run() performs. */
    static constexpr double kWork =
        static_cast<double>(kElements) * static_cast<double>(kPasses);

    SpeedProbe();
    /** Do the fixed work once and return its wall time (s). */
    double run();

  private:
    alignas(4096) std::array<double, kElements> x_;
    std::array<double, kElements> y_;
};

/** SpeedProbe's rate on the nominal host (millions of multiply-adds
 *  per second; it reads 1300-2200 on the VM named above). */
inline constexpr double kNominalProbeMops = 1500.0;

/** Rate (millions of multiply-adds per second) of the SpeedProbe runs
 *  that took @p probe_s; 0 when there are none. */
double probeMops(const std::vector<double> &probe_s);

/** @p seconds measured while a probe read @p mops, scaled to a host on
 *  which it reads @p nominal_mops. */
double hostScaled(double seconds, double mops, double nominal_mops);

/**
 * Durations scaled to the nominal host. @p samples are durations in
 * the order they were taken and @p probe_s the wall time of the
 * SpeedProbe run made right after each. The samples are grouped into
 * windows as windowedMedian groups them; each window's samples are
 * scaled by the probe rate of that window (its runs' work over their
 * summed time). A window spans tens to hundreds of samples, so one
 * probe run caught by an interrupt moves its window's rate little.
 */
std::vector<double> hostScaled(const std::vector<double> &samples,
                               const std::vector<double> &probe_s,
                               double window);

/* ---------------------------------------------------------------- */
/* Result line                                                       */
/* ---------------------------------------------------------------- */

/** Outcome of one benchmark run. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** False when any check failed, set-up checks included. */
    bool correct = true;
    /** Metric name -> measured value. */
    std::map<std::string, double> values;
};

/**
 * Write @p result as the single-line JSON object
 * {"correct", "attempted", "failed", "values"} with full-precision
 * values. perfbench/run.py turns it into the result line, taking each
 * metric's unit from BENCHMARK.json.
 */
void writeResultJson(const Result &result, std::ostream &os);

} // namespace perfbench

#endif // KODAN_PERFBENCH_MEASURE_HPP
