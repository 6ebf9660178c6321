// Tests of the benchmark's measurement helpers (perfbench/measure.*).

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "measure.hpp"

namespace {

using namespace perfbench;

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = n; i >= 1; --i) {
        v.push_back(static_cast<double>(i)); // descending: order-proof
    }
    return v;
}

TEST(Percentiles, MedianOfOddAndEvenCounts)
{
    EXPECT_DOUBLE_EQ(median({}), 0.0);
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Percentiles, WindowedMedianOnASteadyHostIsTheMedian)
{
    const std::vector<double> samples = {1.0, 3.0, 2.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(windowedMedian(samples, 6.0), 2.0);
    // Fewer samples than one window: the plain median.
    EXPECT_DOUBLE_EQ(windowedMedian(samples, 100.0), 2.0);
    EXPECT_DOUBLE_EQ(windowedMedian({}, 1.0), 0.0);
}

TEST(Percentiles, WindowedMedianFollowsTheShareOfEachHostState)
{
    // 40 fast calls (1.0) then 60 slow ones (2.0): a quarter of the time
    // fast, three quarters slow. The median jumps to the slow value;
    // the windowed median weighs the two states by their time.
    std::vector<double> samples(40, 1.0);
    samples.insert(samples.end(), 60, 2.0);
    EXPECT_DOUBLE_EQ(median(samples), 2.0);
    EXPECT_DOUBLE_EQ(windowedMedian(samples, 10.0), 1.75);
}

TEST(Percentiles, WindowedMedianFoldsAShortTailIntoTheLastWindow)
{
    // Windows {2, 2} and {2, 2}; the tail {1} joins the second.
    EXPECT_DOUBLE_EQ(windowedMedian({2.0, 2.0, 2.0, 2.0, 1.0}, 4.0), 2.0);
}

TEST(Percentiles, SamplesBeyondNearestRank)
{
    EXPECT_EQ(samplesBeyond(0, 99.0), 0u);
    EXPECT_EQ(samplesBeyond(1000, 99.0), 10u);
    EXPECT_EQ(samplesBeyond(999, 99.0), 9u);
    EXPECT_EQ(samplesBeyond(100, 90.0), 10u);
    EXPECT_EQ(samplesBeyond(20, 50.0), 10u);
}

TEST(Percentiles, TailNeedsTenSamplesBeyondIt)
{
    // p99 of 1..1000 is the 990th value, with 10 samples beyond it.
    const auto p99 = reportablePercentile(ramp(1000), 99.0);
    ASSERT_TRUE(p99.has_value());
    EXPECT_DOUBLE_EQ(*p99, 990.0);
    // One sample fewer leaves only nine beyond: omitted.
    EXPECT_FALSE(reportablePercentile(ramp(999), 99.0).has_value());
    // The same count still supports p90.
    const auto p90 = reportablePercentile(ramp(999), 90.0);
    ASSERT_TRUE(p90.has_value());
    EXPECT_DOUBLE_EQ(*p90, 900.0);
    EXPECT_FALSE(reportablePercentile({}, 50.0).has_value());
    EXPECT_FALSE(reportablePercentile(ramp(19), 50.0).has_value());
}

TEST(PeakRss, ParsesVmHwm)
{
    const std::string status = "Name:\tkodan_perfbench\n"
                               "VmPeak:\t  900000 kB\n"
                               "VmHWM:\t  204800 kB\n"
                               "VmRSS:\t  102400 kB\n";
    const auto mib = parseVmHwmMib(status);
    ASSERT_TRUE(mib.has_value());
    EXPECT_DOUBLE_EQ(*mib, 200.0);
    EXPECT_FALSE(parseVmHwmMib("VmRSS:\t 1 kB\n").has_value());
    EXPECT_FALSE(parseVmHwmMib("VmHWM:\t lots\n").has_value());
    EXPECT_FALSE(parseVmHwmMib("VmHWM:\t 12 MB\n").has_value());
}

TEST(PeakRss, GrowsWhenMemoryIsTouched)
{
    const double before = peakRssMib();
    EXPECT_GT(before, 0.0);
    // Touch 64 MiB more than the process has held so far.
    std::vector<char> block(static_cast<std::size_t>(before + 64.0) << 20);
    std::memset(block.data(), 1, block.size());
    const double after = peakRssMib();
    EXPECT_GE(after, before + 60.0);
    EXPECT_EQ(block[block.size() / 2], 1);
}

TEST(CountingSink, CountsEveryByteWritten)
{
    CountingSink sink;
    EXPECT_EQ(sink.bytes(), 0u);
    sink << "journal";
    sink.put('\n');
    sink << 12345 << ' ' << 0.5;
    const std::string big(100000, 'x');
    sink.write(big.data(), static_cast<std::streamsize>(big.size()));
    sink.flush();
    EXPECT_TRUE(sink.good());
    EXPECT_EQ(sink.bytes(), 7u + 1u + 5u + 1u + 3u + big.size());
}

TEST(Ledger, ResidualIsTotalMinusRows)
{
    Ledger ledger;
    ledger.total = 10.0;
    ledger.rows = {{"a", 2.0}, {"b", 3.5}, {"c", 1.5}};
    EXPECT_DOUBLE_EQ(ledger.attributed(), 7.0);
    EXPECT_DOUBLE_EQ(ledger.residual(), 3.0);
    EXPECT_DOUBLE_EQ(ledger.share(ledger.rows[1].value), 0.35);
    double shares = ledger.share(ledger.residual());
    for (const auto &row : ledger.rows) {
        shares += ledger.share(row.value);
    }
    EXPECT_NEAR(shares, 1.0, 1e-12);
}

TEST(Ledger, OvercountingRowsGiveNegativeResidual)
{
    Ledger ledger;
    ledger.total = 4.0;
    ledger.rows = {{"a", 3.0}, {"b", 2.0}};
    EXPECT_DOUBLE_EQ(ledger.residual(), -1.0);
    Ledger empty;
    EXPECT_DOUBLE_EQ(empty.share(1.0), 0.0);
}

TEST(Result, JsonLineKeepsFullPrecision)
{
    Result result;
    result.attempted = 3;
    result.failed = 1;
    result.correct = false;
    result.values = {{"latency_ms", 1.0 / 3.0}, {"count", 2.0}};
    std::ostringstream os;
    writeResultJson(result, os);
    EXPECT_EQ(os.str(), "{\"correct\": false, \"attempted\": 3, "
                        "\"failed\": 1, \"values\": {\"count\": 2, "
                        "\"latency_ms\": 0.33333333333333331}}\n");
}

TEST(HostProbe, ReportsAPositiveRate)
{
    EXPECT_GT(hostRefMops(0.05), 0.0);
    SpeedProbe probe;
    EXPECT_GT(probe.run(), 0.0);
}

TEST(HostProbe, RateIsWorkOverTime)
{
    // Two runs in 2 * kWork / 1500e6 s: 1500 Mops/s.
    const double run_s = SpeedProbe::kWork / 1500e6;
    EXPECT_DOUBLE_EQ(probeMops({run_s, run_s}), 1500.0);
    EXPECT_DOUBLE_EQ(probeMops({}), 0.0);
}

TEST(HostScaled, ScalesByTheProbeRateOverTheNominalOne)
{
    // On a host twice the nominal speed a 1-s call would take 2 s on
    // the nominal host.
    EXPECT_DOUBLE_EQ(hostScaled(1.0, 800.0, 400.0), 2.0);
    EXPECT_DOUBLE_EQ(hostScaled(3.0, 400.0, 400.0), 3.0);
}

TEST(HostScaled, ScalesEachWindowByItsOwnProbeRate)
{
    // Windows of 2 s: {1, 1} with the probe at the nominal rate, then
    // {2, 2} on a host half as fast (calls and probe runs both take
    // twice as long). Scaled, all four calls take 1 s.
    const double nominal_run = SpeedProbe::kWork / (kNominalProbeMops * 1e6);
    const std::vector<double> calls = {1.0, 1.0, 2.0, 2.0};
    const std::vector<double> probes = {nominal_run, nominal_run,
                                        2.0 * nominal_run, 2.0 * nominal_run};
    const std::vector<double> scaled = hostScaled(calls, probes, 2.0);
    ASSERT_EQ(scaled.size(), 4u);
    for (const double s : scaled) {
        EXPECT_DOUBLE_EQ(s, 1.0);
    }
    // Mismatched inputs give nothing to report.
    EXPECT_TRUE(hostScaled(calls, {nominal_run}, 2.0).empty());
    EXPECT_TRUE(hostScaled(std::vector<double>{}, {}, 2.0).empty());
}

} // namespace
