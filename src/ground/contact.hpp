/**
 * @file
 * Contact-window computation between satellites and ground stations.
 */

#ifndef KODAN_GROUND_CONTACT_HPP
#define KODAN_GROUND_CONTACT_HPP

#include <cstddef>
#include <vector>

#include "ground/station.hpp"
#include "orbit/propagator.hpp"

namespace kodan::ground {

/** One interval during which a satellite is visible from a station. */
struct ContactWindow
{
    /** Index into the ground segment's station list. */
    std::size_t station = 0;
    /** Index into the constellation's satellite list. */
    std::size_t satellite = 0;
    /** Window start (s since epoch). */
    double start = 0.0;
    /** Window end (s since epoch). */
    double end = 0.0;

    /** Window length in seconds. */
    double duration() const { return end - start; }
};

/**
 * Finds elevation-mask contact windows by coarse sampling on a fixed
 * t0 + k*step grid plus bisection refinement of the rise/set crossings.
 */
class ContactFinder
{
  public:
    /**
     * @param coarse_step Sampling interval for the visibility scan (s).
     *        Must be well below the shortest pass (~60 s is safe for
     *        LEO). A non-finite or non-positive step dies through
     *        util::fatal.
     */
    explicit ContactFinder(double coarse_step = 30.0);

    /**
     * All contact windows of one satellite with one station in [t0, t1],
     * sampling every grid point.
     *
     * The fixed-grid reference: the tests check findAllParallel()
     * against it, and examples/cloud_filter_mission.cpp scans one pair
     * with it. Mission code calls findAllParallel().
     *
     * @param sat Propagator of the satellite.
     * @param station Ground station (elevation mask applied).
     * @param t0 Search interval start (s).
     * @param t1 Search interval end (s). A non-finite bound, t1 < t0,
     *        or a step below the time stamps' resolution dies through
     *        util::fatal.
     */
    std::vector<ContactWindow> find(const orbit::J2Propagator &sat,
                                    const GroundStation &station,
                                    double t0, double t1) const;

    /**
     * All windows of a constellation against a ground segment in
     * [t0, t1], with station/satellite indices filled in, sorted by
     * start time. The one production scanner.
     *
     * One pass per satellite: the grid is walked once, with one
     * propagation per visited step, and every station is tested
     * against that position. A station whose geocentric separation
     * from the satellite exceeds its visibility-cone bound (the cone's
     * half-angle at apogee radius plus a 0.01 rad margin) is provably
     * below its mask, so a dot product rules it out; only stations
     * inside the cone pay the elevation test. While no station is in
     * view, the scan strides over whole grid cells: with theta_g the
     * separation and lambda_g the cone bound of station g, and r an
     * upper bound on the separation rate, the satellite stays out of
     * every cone for (min theta_g - max lambda_g) / r seconds. Visited
     * samples stay on find()'s accumulated grid, and each crossing is
     * refined by find()'s bisection, so every (satellite, station)
     * window list is bit-identical to find()'s.
     *
     * Satellites are scanned in parallel on the global thread pool.
     * Each satellite's windows are emitted by station, then by time,
     * and concatenated in satellite order before an unstable
     * start-time sort, so the output is the per-pair find() lists in
     * (satellite, station) order, start-sorted — windows, counters and
     * journal events bit-identical at any KODAN_THREADS. Trade-off:
     * the unit of parallelism is one satellite, so a one-satellite
     * scan runs on one thread.
     *
     * @param t1 Search interval end (s); checked as in find().
     */
    std::vector<ContactWindow>
    findAllParallel(const std::vector<orbit::J2Propagator> &sats,
                    const std::vector<GroundStation> &stations, double t0,
                    double t1) const;

  private:
    double coarse_step_;
};

/** Total seconds of contact in a window list. */
double totalContactSeconds(const std::vector<ContactWindow> &windows);

} // namespace kodan::ground

#endif // KODAN_GROUND_CONTACT_HPP
