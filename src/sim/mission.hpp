/**
 * @file
 * Mission scenario, filter behaviour, and result types of the mission
 * engine (sim::ConstellationEngine, sim/constellation.hpp).
 *
 * A scenario ties together orbit propagation, frame capture, the
 * contended ground segment, the downlink radio, and an abstract
 * on-board filter; a result is the per-satellite accounting of frames
 * observed / processed / downlinked and of data value density.
 */

#ifndef KODAN_SIM_MISSION_HPP
#define KODAN_SIM_MISSION_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "data/geomodel.hpp"
#include "ground/downlink.hpp"
#include "ground/station.hpp"
#include "orbit/propagator.hpp"
#include "sense/camera.hpp"
#include "sense/capture.hpp"
#include "util/units.hpp"

namespace kodan::sim {

/** Scenario configuration. */
struct MissionConfig
{
    /** Epoch elements of each satellite in the constellation. */
    std::vector<orbit::OrbitalElements> satellites;
    /** Ground segment. */
    std::vector<ground::GroundStation> stations;
    /** Imaging payload (identical across the constellation). */
    sense::CameraModel camera;
    /** Downlink radio (identical across the constellation). */
    ground::DownlinkModel radio;
    /** Simulated duration (s). */
    double duration = util::kSecondsPerDay;
    /** Ground-segment allocation granularity (s). */
    double scheduler_step = 10.0;
    /** Contact-scan step (s). */
    double contact_scan_step = 30.0;
    /** Seed for frame-value sampling; each satellite draws from its own
     *  stream derived from (seed, satellite index). */
    std::uint64_t seed = 42;
    /**
     * Sim-time bin width (s) of the telemetry time series and the
     * health plane's per-bin signals the run feeds when recording is
     * enabled. The 1800 s default gives 48 bins over a standard one-day
     * mission — coarse enough to keep committed baselines small, fine
     * enough to see the contact-pass structure.
     */
    double telemetry_bin_s = 1800.0;
    /**
     * Time-series name prefix ("<prefix>.dvd", "<prefix>.frames.observed"
     * ...). Drivers that simulate several scenarios in one process give
     * each a distinct prefix so the global time-series registry keeps
     * them apart.
     */
    std::string telemetry_prefix = "sim";

    /**
     * Build an N-satellite, single-plane Landsat-8-like constellation
     * with evenly spaced mean anomalies and the standard ground segment.
     */
    static MissionConfig landsatConstellation(int satellite_count);

    /**
     * Build a multi-plane sun-synchronous constellation at the Landsat
     * altitude: a Walker delta pattern of @p satellite_count satellites
     * over @p planes equally-spaced planes with the Walker phasing
     * parameter @p phasing, imaging the WRS-2 grid against the standard
     * ground segment. makeConstellation(n, 1, 0) is bit-identical to
     * landsatConstellation(n).
     *
     * @param satellite_count Total satellites (>= 1, divisible by
     *        @p planes); anything else dies through util::fatal.
     * @param planes Orbital planes (>= 1, staggered RAAN).
     * @param phasing Walker phasing parameter f in [0, planes).
     */
    static MissionConfig makeConstellation(int satellite_count,
                                           int planes = 1,
                                           int phasing = 0);
};

/**
 * Abstract behaviour of the on-board frame filter.
 *
 * Captures everything the downlink accounting needs to know about a
 * processing scheme: how long a frame takes, what it keeps, and how well.
 */
struct FilterBehavior
{
    /** Mean processing time per frame (s); 0 = free (bent pipe/ideal). */
    double frame_time = 0.0;
    /** P(frame kept | frame is high-value) — frame-level recall. */
    double keep_high = 1.0;
    /** P(frame kept | frame is low-value) — frame-level fall-out. */
    double keep_low = 1.0;
    /** Fraction of a kept frame's bits in the downlinked product. */
    double product_fraction = 1.0;
    /**
     * Of the product bits of a kept frame, the fraction that is truly
     * high-value (pixel-level precision); only meaningful when
     * product_fraction < 1. When 1.0, the frame's own value fraction is
     * used.
     */
    double product_precision = -1.0;
    /** Queue raw (unprocessed/unfiltered) frames after the products. */
    bool send_unprocessed = true;
    /**
     * Drain filter products before raw frames (value-aware queueing, as
     * Kodan does). When false, the downlink queue stays in capture order
     * — the behaviour of a directly-deployed legacy application that
     * filters frames but does not reorder the radio queue.
     */
    bool prioritize_products = true;

    /** The bent pipe: downlink raw frames indiscriminately. */
    static FilterBehavior bentPipe();

    /** Ideal OEC filter: free, perfect frame classification. */
    static FilterBehavior idealFilter();
};

/** Per-satellite accounting of one simulated interval. */
struct SatelliteResult
{
    std::int64_t frames_observed = 0;
    std::int64_t frames_processed = 0;
    /** Frames (raw or as products) represented in the downlink. */
    double frames_downlinked = 0.0;
    double bits_observed = 0.0;
    double high_bits_observed = 0.0;
    double bits_downlinked = 0.0;
    double high_bits_downlinked = 0.0;
    /** Granted contact time (s). */
    double contact_seconds = 0.0;
    /** Frame deadline of this satellite (s). */
    double frame_deadline = 0.0;

    /** Data value density of this satellite's downlink. */
    double dvd() const
    {
        return bits_downlinked <= 0.0
                   ? 0.0
                   : high_bits_downlinked / bits_downlinked;
    }

    /** Fraction of observed high-value bits that reached the ground. */
    double highValueYield() const
    {
        return high_bits_observed <= 0.0
                   ? 0.0
                   : high_bits_downlinked / high_bits_observed;
    }
};

/** Whole-mission result. */
struct MissionResult
{
    std::vector<SatelliteResult> per_satellite;
    double idle_station_seconds = 0.0;
    double busy_station_seconds = 0.0;

    /** Sum a field across satellites. */
    SatelliteResult totals() const;
};

/**
 * High-value fraction of a frame centered at @p center at @p time —
 * the mission engine's frame value model. When
 * @p world is null, draws a Bernoulli with @p fixed_prevalence from
 * @p rng instead (one draw per call).
 */
double frameValueFraction(const data::GeoModel *world,
                          double fixed_prevalence,
                          const orbit::Geodetic &center, double time,
                          util::Rng &rng);

} // namespace kodan::sim

#endif // KODAN_SIM_MISSION_HPP
