#include "sim/mission.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "sense/wrs.hpp"
#include "telemetry/telemetry.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace kodan::sim {

namespace {

/**
 * Walks a satellite's granted contact intervals, mapping cumulative
 * downlinked bits to the sim time at which the radio finishes them.
 * Pass overhead is spent at the start of each interval, mirroring
 * DownlinkModel::bitsForContact (which deducts it once per pass), so
 * the walk and the budget accounting describe the same radio.
 */
struct ContactWalk
{
    const std::vector<ground::GroundSegmentScheduler::Interval> &intervals;
    double rate_bps;
    double overhead_s;
    std::size_t idx = 0;
    double used_s = 0.0; // usable seconds consumed in intervals[idx]

    double usable(std::size_t i) const
    {
        return std::max(0.0, intervals[i].seconds() - overhead_s);
    }

    void skipExhausted()
    {
        while (idx < intervals.size() && used_s >= usable(idx)) {
            ++idx;
            used_s = 0.0;
        }
    }

    /** Sim time at the radio's current position (next transmittable
     *  instant); clamps to the last interval's end when exhausted. */
    double position()
    {
        skipExhausted();
        if (idx >= intervals.size()) {
            return intervals.empty() ? 0.0 : intervals.back().end;
        }
        return intervals[idx].start + overhead_s + used_s;
    }

    /** Consume @p bits of capacity; sim time when the last bit leaves
     *  the radio. */
    double finish(double bits)
    {
        skipExhausted();
        while (idx < intervals.size()) {
            const double remaining_s = usable(idx) - used_s;
            const double need_s =
                rate_bps > 0.0
                    ? bits / rate_bps
                    : std::numeric_limits<double>::infinity();
            if (need_s <= remaining_s) {
                used_s += need_s;
                return intervals[idx].start + overhead_s + used_s;
            }
            bits -= remaining_s * rate_bps;
            ++idx;
            used_s = 0.0;
        }
        return position();
    }
};

/** One sim-time bin of one satellite's telemetry accounting. */
struct BinAccum
{
    std::int64_t frames = 0;
    std::int64_t processed = 0;
    double queued_bits = 0.0;  // enqueued during this bin
    double drained_bits = 0.0; // finished downlinking during this bin
    double bits_down = 0.0;
    double high_bits_down = 0.0;
};

/** Per-satellite telemetry accumulation, filled inside the work item
 *  and folded into the global time series serially afterwards. */
struct SatTelemetry
{
    std::map<std::int64_t, BinAccum> bins;
    /** (downlink completion time, end-to-end latency) per sent item. */
    std::vector<std::pair<double, double>> latencies;
};

} // namespace

MissionConfig
MissionConfig::landsatConstellation(int satellite_count)
{
    return makeConstellation(satellite_count, 1, 0);
}

MissionConfig
MissionConfig::makeConstellation(int satellite_count, int planes,
                                 int phasing)
{
    assert(satellite_count >= 1);
    assert(planes >= 1 && satellite_count % planes == 0);
    MissionConfig config;
    config.satellites = orbit::sunSynchronousConstellation(
        satellite_count, planes, phasing, 705.0e3);
    config.stations = ground::landsatGroundSegment();
    config.camera = sense::CameraModel::landsat8Multispectral();
    return config;
}

FilterBehavior
FilterBehavior::bentPipe()
{
    FilterBehavior filter;
    // Modeled as "no processing at all": every frame stays raw and is
    // queued for downlink in capture order (indiscriminate).
    filter.frame_time = std::numeric_limits<double>::infinity();
    filter.send_unprocessed = true;
    return filter;
}

FilterBehavior
FilterBehavior::idealFilter()
{
    FilterBehavior filter;
    filter.frame_time = 0.0;
    filter.keep_high = 1.0;
    filter.keep_low = 0.0;
    filter.send_unprocessed = false;
    return filter;
}

MissionSim::MissionSim(const data::GeoModel *world, double fixed_prevalence)
    : world_(world), fixed_prevalence_(fixed_prevalence)
{
    assert(fixed_prevalence >= 0.0 && fixed_prevalence <= 1.0);
}

double
frameValueFraction(const data::GeoModel *world, double fixed_prevalence,
                   const orbit::Geodetic &center, double time,
                   util::Rng &rng)
{
    if (world == nullptr) {
        return rng.bernoulli(fixed_prevalence) ? 1.0 : 0.0;
    }
    // Sample a 3x3 lattice across the frame footprint.
    const double spread = 50.0e3 / util::kEarthRadius; // ~ frame third
    int clear = 0;
    for (int dr = -1; dr <= 1; ++dr) {
        for (int dc = -1; dc <= 1; ++dc) {
            const double lat = util::clamp(center.latitude + dr * spread,
                                           -util::kPi / 2.0 + 1e-6,
                                           util::kPi / 2.0 - 1e-6);
            const double lon = center.longitude + dc * spread;
            if (!world->cloudyAt(lat, lon, time)) {
                ++clear;
            }
        }
    }
    return clear / 9.0;
}

double
MissionSim::frameValueFraction(const orbit::Geodetic &center, double time,
                               util::Rng &rng) const
{
    return sim::frameValueFraction(world_, fixed_prevalence_, center, time,
                                   rng);
}

SatelliteResult
MissionResult::totals() const
{
    SatelliteResult sum;
    for (const auto &sat : per_satellite) {
        sum.frames_observed += sat.frames_observed;
        sum.frames_processed += sat.frames_processed;
        sum.frames_downlinked += sat.frames_downlinked;
        sum.bits_observed += sat.bits_observed;
        sum.high_bits_observed += sat.high_bits_observed;
        sum.bits_downlinked += sat.bits_downlinked;
        sum.high_bits_downlinked += sat.high_bits_downlinked;
        sum.contact_seconds += sat.contact_seconds;
        sum.frame_deadline = sat.frame_deadline;
    }
    return sum;
}

MissionResult
MissionSim::run(const MissionConfig &config,
                const FilterBehavior &filter) const
{
    assert(!config.satellites.empty());
    assert(!config.stations.empty());
    KODAN_TRACE_SCOPE("sim.mission.run");
    // Flight recorder: the whole mission is one journal region. The
    // serial prelude (contact search, ground allocation) records on the
    // region's own lane; satellite s records into slot s + 1.
    telemetry::JournalRegion journal_region("sim.mission");
    if (telemetry::journalEnabled()) {
        telemetry::JournalEventBuilder("sim.mission.config")
            .i64("satellites",
                 static_cast<std::int64_t>(config.satellites.size()))
            .i64("stations",
                 static_cast<std::int64_t>(config.stations.size()))
            .f64("duration_s", config.duration)
            .i64("seed", static_cast<std::int64_t>(config.seed));
    }

    std::vector<orbit::J2Propagator> sats;
    sats.reserve(config.satellites.size());
    for (const auto &elems : config.satellites) {
        sats.emplace_back(elems);
    }

    // Ground segment: find all windows, then allocate under contention.
    const ground::ContactFinder finder(config.contact_scan_step);
    const auto windows =
        finder.findAllParallel(sats, config.stations, 0.0, config.duration);
    const ground::GroundSegmentScheduler scheduler(config.scheduler_step);
    const auto allocation = scheduler.allocate(
        windows, sats.size(), config.stations.size(), 0.0, config.duration);

    MissionResult result;
    result.idle_station_seconds = allocation.idle_station_seconds;
    result.busy_station_seconds = allocation.busy_station_seconds;
    KODAN_COUNT_ADD("ground.contact.windows.found", windows.size());

    const double frame_bits = config.camera.frameBits();
    const sense::WrsGrid grid;
    const sense::FrameCapture capture(config.camera, grid);

    // Recording gates, resolved once. The timing walk (queue drain
    // times, per-bin downlink accounting) only runs when some recorder
    // will consume it; the default path is unchanged.
    const bool ts_on = telemetry::enabled();
    const bool want_timing = ts_on || telemetry::journalEnabled();
    const double bin_s =
        config.telemetry_bin_s > 0.0 ? config.telemetry_bin_s : 1800.0;
    const auto binOf = [bin_s](double t) {
        return static_cast<std::int64_t>(std::floor(t / bin_s));
    };
    std::vector<SatTelemetry> sat_telemetry(want_timing ? sats.size() : 0);

    // Satellites are simulated in parallel, grouped into shard work
    // units. Each satellite draws from its own RNG stream derived from
    // (mission seed, satellite index) and records into its own journal
    // lane, so its trajectory of random decisions is a pure function of
    // the config — independent of thread count, shard size, and the
    // other satellites.
    result.per_satellite.resize(sats.size());
    const auto simulateSatellite = [&](std::size_t s) {
        telemetry::JournalScope journal_scope(journal_region.id(), s);
        util::Rng rng(util::splitMix64(config.seed ^
                                       (0x5A7E111E5ULL + s)));
        SatelliteResult sat_result;
        sat_result.contact_seconds = allocation.seconds_per_satellite[s];
        const double deadline = capture.frameDeadline(sats[s]);
        sat_result.frame_deadline = deadline;

        const double processed_fraction =
            filter.frame_time <= deadline
                ? 1.0
                : deadline / filter.frame_time;

        const auto frames = capture.capture(sats[s], s, 0.0,
                                            config.duration);
        SatTelemetry *tm = want_timing ? &sat_telemetry[s] : nullptr;
        // Downlink queue: products first (highest value density first),
        // then raw frames in capture order.
        struct QueueItem
        {
            double bits;
            double high_bits;
            double capture_t;
            double enqueue_t;
        };
        std::vector<QueueItem> products;
        std::vector<QueueItem> raws;
        std::vector<QueueItem> fifo; // capture order, products + raws

        for (const auto &frame : frames) {
            const double value =
                frameValueFraction(frame.center, frame.time, rng);
            ++sat_result.frames_observed;
            sat_result.bits_observed += frame_bits;
            sat_result.high_bits_observed += frame_bits * value;

            const bool processed =
                processed_fraction >= 1.0 ||
                rng.bernoulli(processed_fraction);
            if (tm != nullptr) {
                BinAccum &bin = tm->bins[binOf(frame.time)];
                ++bin.frames;
                if (processed) {
                    ++bin.processed;
                }
            }
            if (!processed) {
                if (filter.send_unprocessed) {
                    // Raw pass-through: no decision stage, enqueued at
                    // capture.
                    raws.push_back({frame_bits, frame_bits * value,
                                    frame.time, frame.time});
                    fifo.push_back(raws.back());
                    if (tm != nullptr) {
                        tm->bins[binOf(frame.time)].queued_bits +=
                            frame_bits;
                    }
                }
                continue;
            }
            ++sat_result.frames_processed;
            // On-board compute charged to the frame: the filter runs for
            // frame_time, bounded by the capture deadline.
            const double decided_t =
                frame.time + std::min(filter.frame_time, deadline);
            const bool high = value >= 0.5;
            const double keep_prob =
                high ? filter.keep_high : filter.keep_low;
            if (!rng.bernoulli(keep_prob)) {
                continue; // discarded on orbit
            }
            const double bits = frame_bits * filter.product_fraction;
            const double high_bits =
                filter.product_precision >= 0.0
                    ? bits * filter.product_precision
                    : frame_bits * filter.product_fraction * value;
            products.push_back({bits, high_bits, frame.time, decided_t});
            fifo.push_back(products.back());
            if (tm != nullptr) {
                tm->bins[binOf(decided_t)].queued_bits += bits;
            }
        }

        std::sort(products.begin(), products.end(),
                  [](const QueueItem &a, const QueueItem &b) {
                      const double da =
                          a.bits > 0.0 ? a.high_bits / a.bits : 0.0;
                      const double db =
                          b.bits > 0.0 ? b.high_bits / b.bits : 0.0;
                      return da > db;
                  });

        double budget = config.radio.bitsForContact(
            allocation.seconds_per_satellite[s],
            allocation.passes_per_satellite[s]);
        std::int64_t items_sent = 0;    // got (some) downlink budget
        std::int64_t items_dropped = 0; // budget exhausted before them
        // Timeline walk for the recorders: where the budget model says
        // *how much* reaches the ground, the walk says *when* — items
        // drain through the granted contact runs in drain order, and a
        // monotone clock keeps completion times consistent with the
        // value-priority queue discipline.
        ContactWalk walk{allocation.intervals_per_satellite[s],
                         config.radio.datarate_bps,
                         config.radio.pass_overhead_s};
        double drain_clock = 0.0;
        auto drain = [&](const std::vector<QueueItem> &queue) {
            for (const auto &item : queue) {
                if (budget <= 0.0) {
                    ++items_dropped;
                    continue;
                }
                const double sent = std::min(budget, item.bits);
                const double frac =
                    item.bits > 0.0 ? sent / item.bits : 0.0;
                sat_result.bits_downlinked += sent;
                sat_result.high_bits_downlinked += item.high_bits * frac;
                sat_result.frames_downlinked +=
                    frame_bits > 0.0 ? sent / frame_bits : 0.0;
                budget -= sent;
                ++items_sent;
                if (tm == nullptr) {
                    continue;
                }
                const double done_t = walk.finish(sent);
                drain_clock =
                    std::max({drain_clock, item.enqueue_t, done_t});
                const double down_t = drain_clock;
                BinAccum &bin = tm->bins[binOf(down_t)];
                bin.drained_bits += sent;
                bin.bits_down += sent;
                bin.high_bits_down += item.high_bits * frac;
                if (ts_on) {
                    tm->latencies.emplace_back(down_t,
                                               down_t - item.capture_t);
                }
            }
        };
        if (filter.prioritize_products) {
            drain(products);
            drain(raws);
        } else {
            drain(fifo);
        }

        // Bulk accounting per satellite, after the tick loop, so the
        // instrumented path adds no per-frame work.
        if (telemetry::enabled()) {
            KODAN_TRACE_SPAN("sim.satellite.tick");
            KODAN_COUNT_ADD("sim.frames.observed",
                            sat_result.frames_observed);
            KODAN_COUNT_ADD("sim.frames.processed",
                            sat_result.frames_processed);
            double queued_bits = 0.0;
            for (const auto &item : fifo) {
                queued_bits += item.bits;
            }
            KODAN_GAUGE_ADD("ground.downlink.bits_queued", queued_bits);
            KODAN_GAUGE_ADD("ground.downlink.bits_drained",
                            sat_result.bits_downlinked);
            KODAN_GAUGE_ADD("ground.contact.seconds_granted",
                            sat_result.contact_seconds);
        }
        if (telemetry::journalEnabled()) {
            telemetry::JournalEventBuilder("sim.satellite.queue")
                .i64("products_queued",
                     static_cast<std::int64_t>(products.size()))
                .i64("raws_queued",
                     static_cast<std::int64_t>(raws.size()))
                .i64("items_sent", items_sent)
                .i64("items_dropped", items_dropped)
                .f64("bits_downlinked", sat_result.bits_downlinked);
            telemetry::JournalEventBuilder("sim.satellite.summary")
                .i64("frames_observed", sat_result.frames_observed)
                .i64("frames_processed", sat_result.frames_processed)
                .f64("frames_downlinked", sat_result.frames_downlinked)
                .f64("high_bits_downlinked",
                     sat_result.high_bits_downlinked)
                .f64("contact_seconds", sat_result.contact_seconds);
            // Sim-time-binned per-satellite accounting: one event per
            // active bin, emitted inside the work item so the (region,
            // slot, ord) key orders them deterministically. kodan-top
            // tails these for its live sparklines.
            if (tm != nullptr) {
                const std::string type =
                    config.telemetry_prefix + ".satellite.bin";
                for (const auto &[bin, accum] : tm->bins) {
                    telemetry::JournalEventBuilder(type.c_str())
                        .i64("sat", static_cast<std::int64_t>(s))
                        .i64("bin", bin)
                        .f64("t_s", static_cast<double>(bin) * bin_s)
                        .i64("frames", accum.frames)
                        .i64("processed", accum.processed)
                        .f64("queued_bits", accum.queued_bits)
                        .f64("bits", accum.bits_down)
                        .f64("high_bits", accum.high_bits_down)
                        .f64("dvd", accum.bits_down > 0.0
                                        ? accum.high_bits_down /
                                              accum.bits_down
                                        : 0.0);
                }
            }
        }

        result.per_satellite[s] = sat_result;
    };
    const std::size_t shard =
        config.shard_size > 0 ? config.shard_size : 1;
    const std::size_t shard_count = (sats.size() + shard - 1) / shard;
    util::parallelFor(shard_count, [&](std::size_t shard_idx) {
        const std::size_t begin = shard_idx * shard;
        const std::size_t end = std::min(sats.size(), begin + shard);
        for (std::size_t s = begin; s < end; ++s) {
            simulateSatellite(s);
        }
    });

    // Fold the per-satellite bins into the global time series serially,
    // in satellite index order, so the recorded multiset — and therefore
    // the exported bytes — are invariant to KODAN_THREADS.
    if (ts_on) {
        const std::string &prefix = config.telemetry_prefix;
        const auto series = [&](const char *suffix) {
            return telemetry::timeSeries(prefix + suffix, bin_s);
        };
        const telemetry::SeriesId id_observed =
            series(".frames.observed");
        const telemetry::SeriesId id_processed =
            series(".frames.processed");
        const telemetry::SeriesId id_bits = series(".downlink.bits");
        const telemetry::SeriesId id_high_bits =
            series(".downlink.high_bits");
        const telemetry::SeriesId id_dvd = series(".dvd");
        const telemetry::SeriesId id_depth = series(".queue.depth_bits");
        const telemetry::SeriesId id_util =
            series(".contact.utilization");
        const telemetry::SeriesId id_latency = series(".latency.e2e_s");

        std::map<std::int64_t, BinAccum> merged;
        for (const auto &tm : sat_telemetry) {
            for (const auto &[bin, accum] : tm.bins) {
                BinAccum &into = merged[bin];
                into.frames += accum.frames;
                into.processed += accum.processed;
                into.queued_bits += accum.queued_bits;
                into.drained_bits += accum.drained_bits;
                into.bits_down += accum.bits_down;
                into.high_bits_down += accum.high_bits_down;
            }
        }
        double depth_bits = 0.0;
        for (const auto &[bin, accum] : merged) {
            const double t = static_cast<double>(bin) * bin_s;
            telemetry::timeSeriesRecord(
                id_observed, t, static_cast<double>(accum.frames));
            telemetry::timeSeriesRecord(
                id_processed, t, static_cast<double>(accum.processed));
            telemetry::timeSeriesRecord(id_bits, t, accum.bits_down);
            telemetry::timeSeriesRecord(id_high_bits, t,
                                        accum.high_bits_down);
            if (accum.bits_down > 0.0) {
                telemetry::timeSeriesRecord(
                    id_dvd, t, accum.high_bits_down / accum.bits_down);
            }
            depth_bits += accum.queued_bits - accum.drained_bits;
            telemetry::timeSeriesRecord(id_depth, t, depth_bits);
        }
        // Contact utilization: granted station-seconds per bin (all
        // satellites) over the segment's capacity in that bin.
        std::map<std::int64_t, double> granted;
        for (const auto &intervals : allocation.intervals_per_satellite) {
            for (const auto &interval : intervals) {
                for (std::int64_t bin = binOf(interval.start);
                     static_cast<double>(bin) * bin_s < interval.end;
                     ++bin) {
                    const double lo = std::max(
                        interval.start, static_cast<double>(bin) * bin_s);
                    const double hi = std::min(
                        interval.end,
                        static_cast<double>(bin + 1) * bin_s);
                    if (hi > lo) {
                        granted[bin] += hi - lo;
                    }
                }
            }
        }
        const double capacity =
            bin_s * static_cast<double>(config.stations.size());
        for (const auto &[bin, seconds] : granted) {
            telemetry::timeSeriesRecord(
                id_util, static_cast<double>(bin) * bin_s,
                capacity > 0.0 ? seconds / capacity : 0.0);
        }
        for (const auto &tm : sat_telemetry) {
            for (const auto &[down_t, latency_s] : tm.latencies) {
                telemetry::timeSeriesRecord(id_latency, down_t,
                                            latency_s);
            }
        }
    }
    if (telemetry::journalEnabled()) {
        const SatelliteResult totals = result.totals();
        telemetry::JournalEventBuilder("sim.mission.totals")
            .i64("frames_observed", totals.frames_observed)
            .i64("frames_processed", totals.frames_processed)
            .f64("frames_downlinked", totals.frames_downlinked)
            .f64("bits_downlinked", totals.bits_downlinked)
            .f64("high_bits_downlinked", totals.high_bits_downlinked);
    }
    return result;
}

} // namespace kodan::sim
