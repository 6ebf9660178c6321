#include "sim/constellation.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ground/contact.hpp"
#include "sense/wrs.hpp"
#include "telemetry/telemetry.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace kodan::sim {

namespace {

/** Value-separated fluid pool of queued downlink bits. */
struct BitPool
{
    double bits = 0.0;
    double high_bits = 0.0;

    /** Remove @p amount bits; returns the high bits that go with them
     *  (pro-rata — the pool is well mixed). */
    double take(double amount)
    {
        if (bits <= 0.0 || amount <= 0.0) {
            return 0.0;
        }
        const double frac = std::min(1.0, amount / bits);
        const double high = high_bits * frac;
        bits -= amount;
        high_bits -= high;
        if (bits <= 0.0) {
            bits = 0.0;
            high_bits = 0.0;
        }
        return high;
    }
};

/** One sim-time bin of one satellite's chunk accounting. */
struct BinAccum
{
    bool touched = false; ///< recorded into this chunk (even a zero)
    std::int64_t frames = 0;
    std::int64_t processed = 0;
    double queued_bits = 0.0;
    double drained_bits = 0.0;
    double bits_down = 0.0;
    double high_bits_down = 0.0;
    double dropped_bits = 0.0;
};

/** Persistent per-satellite state carried across chunks. */
struct SatState
{
    util::Rng rng{0};
    BitPool products;
    BitPool raws;
    double dropped_bits = 0.0;
    std::uint32_t journal_ord = 0;
    SatelliteResult result;
};

/** Time-series / bin width: the mission's, or 1800 s when unset. */
double
binWidth(const MissionConfig &mission)
{
    return mission.telemetry_bin_s > 0.0 ? mission.telemetry_bin_s
                                         : 1800.0;
}

/**
 * Reject a scenario the chunk loop cannot run. Chunk edges must land on
 * the scheduler's step grid and close whole telemetry bins, or chunked
 * results would diverge from one-shot stepping (see
 * GroundSegmentScheduler::State).
 */
void
validate(const ConstellationConfig &config)
{
    const MissionConfig &mission = config.mission;
    if (mission.satellites.empty() || mission.stations.empty()) {
        util::fatal("ConstellationEngine: the scenario needs at least one "
                    "satellite and one ground station");
    }
    const double chunk_s = config.chunk_s;
    if (!std::isfinite(chunk_s) || chunk_s <= 0.0) {
        util::fatal("ConstellationEngine: chunk_s must be finite and > 0, "
                    "got " + std::to_string(chunk_s));
    }
    const double bin_s = binWidth(mission);
    if (!(mission.scheduler_step > 0.0) ||
        std::fmod(chunk_s, mission.scheduler_step) != 0.0 ||
        std::fmod(chunk_s, bin_s) != 0.0) {
        util::fatal("ConstellationEngine: chunk_s " +
                    std::to_string(chunk_s) +
                    " s must be a multiple of the scheduler step (" +
                    std::to_string(mission.scheduler_step) +
                    " s) and of the telemetry bin (" +
                    std::to_string(bin_s) + " s)");
    }
}

} // namespace

ConstellationEngine::ConstellationEngine(const data::GeoModel *world,
                                         double fixed_prevalence)
    : world_(world), fixed_prevalence_(fixed_prevalence)
{
    assert(fixed_prevalence >= 0.0 && fixed_prevalence <= 1.0);
}

MissionResult
ConstellationEngine::run(const ConstellationConfig &config,
                         const FilterBehavior &filter) const
{
    const MissionConfig &mission = config.mission;
    validate(config);
    KODAN_TRACE_SCOPE("constellation.engine.run");
    telemetry::JournalRegion journal_region("constellation.mission");

    const std::size_t sat_count = mission.satellites.size();
    const std::size_t station_count = mission.stations.size();
    const std::size_t shard =
        config.shard_size > 0 ? config.shard_size : 1;
    const std::size_t shard_count = (sat_count + shard - 1) / shard;

    if (telemetry::journalEnabled()) {
        telemetry::JournalEventBuilder("constellation.mission.config")
            .i64("satellites", static_cast<std::int64_t>(sat_count))
            .i64("stations", static_cast<std::int64_t>(station_count))
            .f64("duration_s", mission.duration)
            // shard_size and thread count are scheduling detail and
            // deliberately absent: journal bytes are part of the
            // determinism contract across both.
            .f64("chunk_s", config.chunk_s)
            .i64("seed", static_cast<std::int64_t>(mission.seed));
    }

    std::vector<orbit::J2Propagator> sats;
    sats.reserve(sat_count);
    for (const auto &elems : mission.satellites) {
        sats.emplace_back(elems);
    }
    const sense::WrsGrid grid;
    const sense::FrameCapture capture(mission.camera, grid);
    const double frame_bits = mission.camera.frameBits();

    std::vector<SatState> state(sat_count);
    std::vector<double> deadlines(sat_count, 0.0);
    for (std::size_t s = 0; s < sat_count; ++s) {
        state[s].rng = util::Rng(
            util::splitMix64(mission.seed ^ (0x5A7E111E5ULL + s)));
        deadlines[s] = capture.frameDeadline(sats[s]);
        state[s].result.frame_deadline = deadlines[s];
    }
    const double max_deadline =
        *std::max_element(deadlines.begin(), deadlines.end());

    const ground::ContactFinder finder(mission.contact_scan_step);
    const ground::GroundSegmentScheduler scheduler(mission.scheduler_step);
    auto sched_state =
        scheduler.beginAllocation(sat_count, station_count, 0.0);

    const bool ts_on = telemetry::enabled();
    const bool journal_on = telemetry::journalEnabled();
    const bool health_on = telemetry::health::healthEnabled();
    const bool bins_on = ts_on || journal_on || health_on;
    const double bin_s = binWidth(mission);
    const auto binOf = [bin_s](double t) {
        return static_cast<std::int64_t>(std::floor(t / bin_s));
    };

    // Register the streaming series with capacity for the whole horizon
    // up front; the per-(thread, series) default of 4096 bins would
    // silently evict the oldest bins of a year-long run.
    const std::string &prefix = mission.telemetry_prefix;
    const std::size_t horizon_bins =
        static_cast<std::size_t>(
            std::ceil(mission.duration / bin_s)) +
        8;
    telemetry::SeriesId id_observed = 0, id_processed = 0, id_bits = 0,
                        id_high_bits = 0, id_dvd = 0, id_depth = 0,
                        id_util = 0, id_dropped = 0;
    if (ts_on) {
        const auto series = [&](const char *suffix) {
            return telemetry::timeSeries(prefix + suffix, bin_s,
                                         horizon_bins);
        };
        id_observed = series(".frames.observed");
        id_processed = series(".frames.processed");
        id_bits = series(".downlink.bits");
        id_high_bits = series(".downlink.high_bits");
        id_dvd = series(".dvd");
        id_depth = series(".queue.depth_bits");
        id_util = series(".contact.utilization");
        id_dropped = series(".storage.dropped_bits");
    }

    const double util_capacity =
        bin_s * static_cast<double>(station_count);
    double depth_bits = 0.0; // running backlog across chunks
    // Per-satellite running backlog for the health plane's per-entity
    // queue signal (the global depth_bits above backs the TimeSeries).
    std::vector<double> sat_depth(health_on ? sat_count : 0, 0.0);
    std::vector<std::uint32_t> ord_before(
        health_on && journal_on ? sat_count : 0, 0);
    ground::GroundSegmentScheduler::Allocation final_allocation;
    using Interval = ground::GroundSegmentScheduler::Interval;
    std::vector<std::vector<Interval>> closed(sat_count);
    // Scratch reused across chunks, each a flat window over the bins
    // one chunk can touch: every satellite's bins (satellite-major) and
    // the granted seconds of the contact runs closed in the chunk per
    // bin and per (station, bin).
    std::vector<BinAccum> chunk_bins;
    std::vector<double> granted;
    std::vector<double> station_granted;

    const std::size_t chunk_count = static_cast<std::size_t>(
        std::ceil(mission.duration / config.chunk_s));
    for (std::size_t c = 0; c < chunk_count; ++c) {
        KODAN_TRACE_SCOPE("constellation.engine.chunk");
        const double t0c = static_cast<double>(c) * config.chunk_s;
        const double t1c =
            std::min(mission.duration, t0c + config.chunk_s);
        const bool last_chunk = c + 1 == chunk_count;

        // Contact sweep + scheduler advance for this span (serial
        // orchestration; the sweep itself fans out over the pool).
        const auto windows =
            finder.findAllParallel(sats, mission.stations, t0c, t1c);
        scheduler.allocateSpan(windows, t1c, sched_state);

        // Harvest the contact runs the scheduler closed during this
        // span (the final chunk also closes every still-open run).
        if (last_chunk) {
            final_allocation =
                scheduler.finishAllocation(std::move(sched_state));
        }
        for (std::size_t s = 0; s < sat_count; ++s) {
            auto &intervals =
                last_chunk
                    ? final_allocation.intervals_per_satellite[s]
                    : sched_state.allocation.intervals_per_satellite[s];
            closed[s] = std::move(intervals);
            intervals.clear();
            std::sort(closed[s].begin(), closed[s].end(),
                      [](const Interval &a, const Interval &b) {
                          return a.start != b.start
                                     ? a.start < b.start
                                     : a.station < b.station;
                      });
        }

        if (health_on && journal_on) {
            for (std::size_t s = 0; s < sat_count; ++s) {
                ord_before[s] = state[s].journal_ord;
            }
        }

        // The chunk's bin window: frames land in binOf(t0c) on, their
        // products by binOf(t1c + deadline), and a closed run grants
        // time from binOf(run.start) and drains into a bin no earlier.
        double first_start = t0c;
        for (const auto &runs : closed) {
            for (const auto &run : runs) {
                first_start = std::min(first_start, run.start);
            }
        }
        const std::int64_t bin_lo = binOf(first_start);
        const auto width = static_cast<std::size_t>(
            binOf(t1c + max_deadline) - bin_lo + 1);
        if (bins_on) {
            chunk_bins.assign(sat_count * width, BinAccum{});
        }

        // Sharded satellite pass: capture, filter, enforce storage,
        // drain the closed contact runs. Each satellite touches only
        // its own state, so shards and threads are scheduling detail.
        util::parallelFor(shard_count, [&](std::size_t shard_idx) {
            const std::size_t begin = shard_idx * shard;
            const std::size_t end =
                std::min(sat_count, begin + shard);
            for (std::size_t s = begin; s < end; ++s) {
                SatState &st = state[s];
                telemetry::JournalScope lane(journal_region.id(), s,
                                             st.journal_ord);
                BinAccum *bins =
                    bins_on ? &chunk_bins[s * width] : nullptr;
                const auto binAt = [bins,
                                    bin_lo](std::int64_t bin) -> BinAccum & {
                    BinAccum &accum =
                        bins[static_cast<std::size_t>(bin - bin_lo)];
                    accum.touched = true;
                    return accum;
                };
                const double deadline = deadlines[s];
                const double processed_fraction =
                    filter.frame_time <= deadline
                        ? 1.0
                        : deadline / filter.frame_time;
                std::int64_t chunk_frames = 0;
                double chunk_drained = 0.0;

                for (double t = t0c; t < t1c; t += deadline) {
                    double value;
                    if (world_ != nullptr) {
                        value = frameValueFraction(
                            world_, fixed_prevalence_,
                            sats[s].subsatellitePoint(t), t, st.rng);
                    } else {
                        value = st.rng.bernoulli(fixed_prevalence_)
                                    ? 1.0
                                    : 0.0;
                    }
                    ++st.result.frames_observed;
                    ++chunk_frames;
                    st.result.bits_observed += frame_bits;
                    st.result.high_bits_observed += frame_bits * value;
                    const bool processed =
                        processed_fraction >= 1.0 ||
                        st.rng.bernoulli(processed_fraction);
                    if (bins != nullptr) {
                        BinAccum &bin = binAt(binOf(t));
                        ++bin.frames;
                        if (processed) {
                            ++bin.processed;
                        }
                    }
                    if (!processed) {
                        if (filter.send_unprocessed) {
                            st.raws.bits += frame_bits;
                            st.raws.high_bits += frame_bits * value;
                            if (bins != nullptr) {
                                binAt(binOf(t)).queued_bits += frame_bits;
                            }
                        }
                        continue;
                    }
                    ++st.result.frames_processed;
                    const double decided_t =
                        t + std::min(filter.frame_time, deadline);
                    const bool high = value >= 0.5;
                    const double keep_prob =
                        high ? filter.keep_high : filter.keep_low;
                    if (!st.rng.bernoulli(keep_prob)) {
                        continue; // discarded on orbit
                    }
                    const double bits =
                        frame_bits * filter.product_fraction;
                    const double high_bits =
                        filter.product_precision >= 0.0
                            ? bits * filter.product_precision
                            : bits * value;
                    st.products.bits += bits;
                    st.products.high_bits += high_bits;
                    if (bins != nullptr) {
                        binAt(binOf(decided_t)).queued_bits += bits;
                    }
                }

                // Bounded solid-state recorder: shed backlog beyond
                // the storage cap, raw frames first (lowest value
                // density), then products.
                const double backlog =
                    st.products.bits + st.raws.bits;
                if (backlog > config.storage_bits) {
                    double overflow = backlog - config.storage_bits;
                    const double from_raws =
                        std::min(st.raws.bits, overflow);
                    st.raws.take(from_raws);
                    overflow -= from_raws;
                    const double from_products =
                        std::min(st.products.bits, overflow);
                    st.products.take(from_products);
                    const double dropped = from_raws + from_products;
                    st.dropped_bits += dropped;
                    if (bins != nullptr) {
                        const std::int64_t drop_bin = std::max(
                            binOf(t0c), binOf(t1c) - 1);
                        binAt(drop_bin).dropped_bits += dropped;
                    }
                }

                // Drain the contact runs that closed this chunk. Pass
                // overhead is charged once per run, as in
                // DownlinkModel::bitsForContact.
                const bool degraded =
                    config.degrade.satellite >= 0 &&
                    static_cast<std::int64_t>(s) ==
                        config.degrade.satellite;
                for (const auto &run : closed[s]) {
                    st.result.contact_seconds += run.seconds();
                    // Injected degradation: the pass is granted but
                    // transfers nothing (see ConstellationConfig).
                    const double capacity =
                        degraded && run.end >= config.degrade.after_s
                            ? 0.0
                            : mission.radio.bitsForContact(
                                  run.seconds(), 1);
                    if (capacity <= 0.0) {
                        continue;
                    }
                    const double total =
                        st.products.bits + st.raws.bits;
                    double send_p = 0.0;
                    double send_r = 0.0;
                    if (total <= capacity) {
                        send_p = st.products.bits;
                        send_r = st.raws.bits;
                    } else if (filter.prioritize_products) {
                        send_p = std::min(st.products.bits, capacity);
                        send_r =
                            std::min(st.raws.bits, capacity - send_p);
                    } else {
                        // Capture-order (FIFO) drain, fluid limit: the
                        // pools are drained in proportion to their
                        // backlog shares.
                        send_p = capacity * st.products.bits / total;
                        send_r = capacity - send_p;
                    }
                    const double high_p = st.products.take(send_p);
                    const double high_r = st.raws.take(send_r);
                    const double sent = send_p + send_r;
                    const double high_sent = high_p + high_r;
                    st.result.bits_downlinked += sent;
                    st.result.high_bits_downlinked += high_sent;
                    st.result.frames_downlinked +=
                        frame_bits > 0.0 ? sent / frame_bits : 0.0;
                    chunk_drained += sent;
                    if (bins != nullptr && sent > 0.0) {
                        BinAccum &bin =
                            binAt(binOf(std::min(run.end, t1c)));
                        bin.drained_bits += sent;
                        bin.bits_down += sent;
                        bin.high_bits_down += high_sent;
                    }
                }

                if (journal_on) {
                    telemetry::JournalEventBuilder(
                        "constellation.satellite.chunk")
                        .i64("sat", static_cast<std::int64_t>(s))
                        .i64("chunk", static_cast<std::int64_t>(c))
                        .i64("frames", chunk_frames)
                        .f64("drained_bits", chunk_drained)
                        .f64("queue_bits",
                             st.products.bits + st.raws.bits)
                        .f64("dropped_bits", st.dropped_bits);
                    st.journal_ord = telemetry::journalScopeOrd();
                }
            }
        });

        // Granted seconds of the runs closed this chunk, in one pass:
        // per bin for the utilization series and per (station, bin) on
        // a station-major grid for the health plane, each cell summed
        // in (satellite, run) order. A run covers bins
        // binOf(start)..binOf(end).
        if (ts_on) {
            granted.assign(width, 0.0);
        }
        if (health_on) {
            station_granted.assign(station_count * width, 0.0);
        }
        if (ts_on || health_on) {
            for (const auto &runs : closed) {
                for (const auto &run : runs) {
                    for (std::int64_t bin = binOf(run.start);
                         static_cast<double>(bin) * bin_s < run.end;
                         ++bin) {
                        const double lo =
                            std::max(run.start,
                                     static_cast<double>(bin) * bin_s);
                        const double hi = std::min(
                            run.end,
                            static_cast<double>(bin + 1) * bin_s);
                        if (hi > lo) {
                            const auto i =
                                static_cast<std::size_t>(bin - bin_lo);
                            if (ts_on) {
                                granted[i] += hi - lo;
                            }
                            if (health_on) {
                                station_granted[run.station * width + i] +=
                                    hi - lo;
                            }
                        }
                    }
                }
            }
        }

        // Serial fold of this chunk's bins into the global time series,
        // in satellite index order — the recorded multiset is invariant
        // to threads and shards.
        if (ts_on) {
            for (std::size_t i = 0; i < width; ++i) {
                BinAccum merged;
                for (std::size_t s = 0; s < sat_count; ++s) {
                    const BinAccum &accum = chunk_bins[s * width + i];
                    if (!accum.touched) {
                        continue;
                    }
                    merged.touched = true;
                    merged.frames += accum.frames;
                    merged.processed += accum.processed;
                    merged.queued_bits += accum.queued_bits;
                    merged.drained_bits += accum.drained_bits;
                    merged.bits_down += accum.bits_down;
                    merged.high_bits_down += accum.high_bits_down;
                    merged.dropped_bits += accum.dropped_bits;
                }
                if (!merged.touched) {
                    continue;
                }
                const double t =
                    static_cast<double>(bin_lo +
                                        static_cast<std::int64_t>(i)) *
                    bin_s;
                telemetry::timeSeriesRecord(
                    id_observed, t,
                    static_cast<double>(merged.frames));
                telemetry::timeSeriesRecord(
                    id_processed, t,
                    static_cast<double>(merged.processed));
                telemetry::timeSeriesRecord(id_bits, t, merged.bits_down);
                telemetry::timeSeriesRecord(id_high_bits, t,
                                            merged.high_bits_down);
                if (merged.bits_down > 0.0) {
                    telemetry::timeSeriesRecord(
                        id_dvd, t,
                        merged.high_bits_down / merged.bits_down);
                }
                depth_bits += merged.queued_bits - merged.drained_bits -
                              merged.dropped_bits;
                telemetry::timeSeriesRecord(id_depth, t, depth_bits);
                if (merged.dropped_bits > 0.0) {
                    telemetry::timeSeriesRecord(id_dropped, t,
                                                merged.dropped_bits);
                }
            }
            // Contact utilization: granted station-seconds per bin over
            // the segment's capacity. Runs closed this chunk may reach
            // back into earlier bins; the series sums contributions.
            for (std::size_t i = 0; i < width; ++i) {
                if (granted[i] > 0.0) {
                    telemetry::timeSeriesRecord(
                        id_util,
                        static_cast<double>(
                            bin_lo + static_cast<std::int64_t>(i)) *
                            bin_s,
                        util_capacity > 0.0 ? granted[i] / util_capacity
                                            : 0.0);
                }
            }
        }

        // Health-plane fold: per-satellite and per-station observations
        // fed in index order on this serial thread, so detector
        // verdicts, alert ids, and alert bytes are invariant to
        // threads and shards just like the TimeSeries bins. The fold
        // meters its own cost: bench_health asserts the
        // telemetry.self.health.fold_s total stays within budget.
        if (health_on) {
            KODAN_TRACE_SCOPE("telemetry.self.health.fold_s");
            telemetry::health::HealthPlane &plane =
                telemetry::health::plane();
            using telemetry::health::EntityKind;
            using telemetry::health::SignalId;
            // Signal ids outlive plane resets: resolved once per process.
            static const SignalId sig_queue =
                plane.signal("queue.depth_bits");
            static const SignalId sig_down = plane.signal("downlink.bits");
            static const SignalId sig_dvd = plane.signal("dvd");
            static const SignalId sig_frames =
                plane.signal("frames.observed");
            static const SignalId sig_dropped =
                plane.signal("storage.dropped_bits");
            static const SignalId sig_granted =
                plane.signal("contact.granted_s");
            // One hold of the plane's lock for the whole chunk.
            telemetry::health::HealthPlane::Feed feed(plane);
            const std::int64_t chunk_last_bin = binOf(t1c) - 1;
            const double chunk_t =
                static_cast<double>(chunk_last_bin) * bin_s;
            std::int64_t observations = 0;
            for (std::size_t s = 0; s < sat_count; ++s) {
                const auto sat = static_cast<std::int64_t>(s);
                std::int64_t chunk_frames = 0;
                double chunk_dropped = 0.0;
                const BinAccum *bins = &chunk_bins[s * width];
                for (std::size_t i = 0; i < width; ++i) {
                    const BinAccum &accum = bins[i];
                    if (!accum.touched) {
                        continue;
                    }
                    const std::int64_t bin =
                        bin_lo + static_cast<std::int64_t>(i);
                    const double t = static_cast<double>(bin) * bin_s;
                    chunk_frames += accum.frames;
                    chunk_dropped += accum.dropped_bits;
                    sat_depth[s] += accum.queued_bits -
                                    accum.drained_bits -
                                    accum.dropped_bits;
                    feed.observe(EntityKind::Satellite, sat,
                                 sig_queue, bin, t, sat_depth[s]);
                    ++observations;
                    if (accum.bits_down > 0.0) {
                        feed.observe(EntityKind::Satellite, sat,
                                     sig_down, bin, t,
                                     accum.bits_down);
                        feed.observe(EntityKind::Satellite, sat,
                                     sig_dvd, bin, t,
                                     accum.high_bits_down /
                                         accum.bits_down);
                        observations += 2;
                    }
                }
                // Chunk-grained signals: one observation per chunk so
                // the storage threshold holds one alert across a
                // sustained shed instead of refiring per bin.
                feed.observe(EntityKind::Satellite, sat,
                             sig_frames, chunk_last_bin,
                             chunk_t,
                             static_cast<double>(chunk_frames));
                feed.observe(EntityKind::Satellite, sat,
                             sig_dropped, chunk_last_bin,
                             chunk_t, chunk_dropped);
                observations += 2;
                if (journal_on) {
                    feed.observeLane(EntityKind::Satellite, sat,
                                     journal_region.id(), s + 1,
                                     ord_before[s],
                                     state[s].journal_ord);
                }
            }
            // The cells that got time, in (station, bin) order.
            for (std::size_t cell = 0; cell < station_granted.size();
                 ++cell) {
                const double seconds = station_granted[cell];
                if (seconds > 0.0) {
                    const std::int64_t bin =
                        bin_lo + static_cast<std::int64_t>(cell % width);
                    feed.observe(EntityKind::Station,
                                 static_cast<std::int64_t>(cell / width),
                                 sig_granted, bin,
                                 static_cast<double>(bin) * bin_s,
                                 seconds);
                    ++observations;
                }
            }
            feed.advance(chunk_last_bin, chunk_t);
            KODAN_COUNT_ADD("telemetry.health.observations",
                            observations);
        }
        for (auto &runs : closed) {
            runs.clear();
        }
    }

    MissionResult result;
    result.per_satellite.resize(sat_count);
    for (std::size_t s = 0; s < sat_count; ++s) {
        result.per_satellite[s] = state[s].result;
    }
    result.idle_station_seconds = final_allocation.idle_station_seconds;
    result.busy_station_seconds = final_allocation.busy_station_seconds;

    if (ts_on) {
        const SatelliteResult totals = result.totals();
        KODAN_COUNT_ADD("constellation.frames.observed",
                        totals.frames_observed);
        KODAN_COUNT_ADD("constellation.frames.processed",
                        totals.frames_processed);
        KODAN_GAUGE_ADD("constellation.downlink.bits",
                        totals.bits_downlinked);
        KODAN_GAUGE_ADD("constellation.contact.seconds_granted",
                        totals.contact_seconds);
    }
    if (journal_on) {
        // Per-satellite closing summaries on each satellite's own lane,
        // then the mission totals on the region lane.
        for (std::size_t s = 0; s < sat_count; ++s) {
            telemetry::JournalScope lane(journal_region.id(), s,
                                         state[s].journal_ord);
            const SatelliteResult &sat = result.per_satellite[s];
            telemetry::JournalEventBuilder(
                "constellation.satellite.summary")
                .i64("frames_observed", sat.frames_observed)
                .i64("frames_processed", sat.frames_processed)
                .f64("frames_downlinked", sat.frames_downlinked)
                .f64("high_bits_downlinked", sat.high_bits_downlinked)
                .f64("contact_seconds", sat.contact_seconds)
                .f64("dropped_bits", state[s].dropped_bits);
        }
        const SatelliteResult totals = result.totals();
        telemetry::JournalEventBuilder("constellation.mission.totals")
            .i64("frames_observed", totals.frames_observed)
            .i64("frames_processed", totals.frames_processed)
            .f64("frames_downlinked", totals.frames_downlinked)
            .f64("bits_downlinked", totals.bits_downlinked)
            .f64("high_bits_downlinked", totals.high_bits_downlinked)
            .f64("busy_station_seconds", result.busy_station_seconds)
            .f64("idle_station_seconds", result.idle_station_seconds);
    }
    return result;
}

} // namespace kodan::sim
