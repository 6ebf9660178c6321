/**
 * @file
 * Satellite radio / downlink capacity model and the contended ground
 * segment scheduler.
 */

#ifndef KODAN_GROUND_DOWNLINK_HPP
#define KODAN_GROUND_DOWNLINK_HPP

#include <cstddef>
#include <vector>

#include "ground/contact.hpp"

namespace kodan::ground {

/**
 * Downlink radio attributes of a satellite.
 *
 * The model is rate x time: a satellite in contact with a station it has
 * been granted transfers @c datarate_bps continuously. Link setup overhead
 * per pass is deducted once per granted window.
 */
struct DownlinkModel
{
    /**
     * Sustained *effective* downlink rate while in granted contact
     * (bits/s). The Landsat-8 X-band radio signals at 384 Mbit/s; after
     * coding, framing, retransmission, and weather margin the effective
     * information rate is ~210 Mbit/s, which together with the measured
     * ~15,600 s/day of granted contact reproduces the paper's per-day
     * downlink budget (~750 multispectral frames, 21% of observations).
     */
    double datarate_bps = 210.0e6;
    /** Per-pass overhead (acquisition, ranging, key exchange), seconds. */
    double pass_overhead_s = 15.0;

    /**
     * Usable bits for a granted interval of @p seconds within one pass.
     * @param seconds Granted contact time (s).
     * @param passes Number of distinct passes the time is spread across.
     */
    double bitsForContact(double seconds, std::size_t passes = 1) const;
};

/**
 * Allocates station time among contending satellites.
 *
 * Each station serves at most one satellite at any instant. Allocation is
 * time-stepped: at each step every station grants its slot to the visible
 * satellite that has received the least total time so far (max-min
 * fairness), which matches the behaviour cote models — added satellites
 * first claim idle station time, then steal time from each other until the
 * segment saturates. A hysteresis slack keeps grants contiguous within a
 * pass (real stations do not retarget their dish every few seconds), so
 * per-pass link overhead is paid once per pass rather than per step.
 *
 * Two implementations share these semantics bit-for-bit (proved by the
 * oracle property suite in tests/props/):
 *  - the State API (beginAllocation / allocateSpan / finishAllocation)
 *    walks per-station *contact event queues*: windows activate from a
 *    start-sorted cursor and expire lazily, so each step touches only
 *    the windows actually in view at that station —
 *    O(steps x stations + windows) instead of the rescan's
 *    O(steps x stations x windows). It is resumable, so year-long
 *    drivers feed windows chunk by chunk and keep memory flat; a
 *    one-shot allocation is one allocateSpan() call.
 *  - allocateRescan() is the original brute-force rescan-per-step,
 *    retained as the reference oracle for the property tests.
 */
class GroundSegmentScheduler
{
  public:
    /**
     * @param step Allocation granularity in seconds (default 10 s).
     * @param fairness_slack Keep serving the current satellite unless a
     *        visible contender is behind by more than this many seconds.
     */
    explicit GroundSegmentScheduler(double step = 10.0,
                                    double fairness_slack = 240.0);

    /** One contiguous granted run at a single station. */
    struct Interval
    {
        std::size_t station = 0;
        double start = 0.0;
        double end = 0.0;

        double seconds() const { return end - start; }
    };

    /** Result of an allocation run. */
    struct Allocation
    {
        /** Granted contact seconds per satellite. */
        std::vector<double> seconds_per_satellite;
        /** Number of granted (partially or fully) passes per satellite. */
        std::vector<std::size_t> passes_per_satellite;
        /**
         * Granted contact runs per satellite, each coalesced over the
         * scheduler's steps and sorted by (start, station). One interval
         * per granted pass, so downstream models can place downlinked
         * bits on the mission timeline (queue drain times) instead of
         * only knowing the daily total.
         */
        std::vector<std::vector<Interval>> intervals_per_satellite;
        /** Total station-seconds that had at least one visible satellite. */
        double busy_station_seconds = 0.0;
        /** Total station-seconds with no visible satellite (idle). */
        double idle_station_seconds = 0.0;
    };

    /** One station's currently open granted run (internal to State). */
    struct OpenRun
    {
        std::size_t satellite = static_cast<std::size_t>(-1);
        double start = 0.0;
        double end = 0.0;
    };

    /**
     * Resumable allocation state for chunked (streaming) drivers.
     *
     * The step clock advances by repeated `+= step` from t0 exactly as
     * the one-shot loop does, so feeding the same windows through any
     * chunking of allocateSpan() calls produces bit-identical results —
     * provided span boundaries land on the step grid (an integer step
     * over integer boundaries stays exact in double arithmetic).
     */
    struct State
    {
        Allocation allocation;
        /** Next step start time (exact accumulated step clock). */
        double clock = 0.0;
        /** Satellite served in the previous step, per station. */
        std::vector<std::size_t> last_served;
        /** Open granted run per station, carried across spans. */
        std::vector<OpenRun> open_runs;
    };

    /** Start a resumable allocation at @p t0. */
    State beginAllocation(std::size_t satellite_count,
                          std::size_t station_count, double t0) const;

    /**
     * Advance the stepped allocation to @p t1. @p windows must contain
     * every window overlapping [state.clock, t1) (windows split at span
     * boundaries are fine: visibility is evaluated per step, and pass
     * coalescing rides on the grant continuity in @p state).
     */
    void allocateSpan(const std::vector<ContactWindow> &windows, double t1,
                      State &state) const;

    /** Close open runs and finalize interval ordering. */
    Allocation finishAllocation(State &&state) const;

    /**
     * Reference implementation: rescans the full window list at every
     * (step, station). Bit-identical to the State API over [t0, t1] —
     * kept as the oracle for the incremental scheduler's property
     * tests. Emits no telemetry.
     */
    Allocation allocateRescan(const std::vector<ContactWindow> &windows,
                              std::size_t satellite_count,
                              std::size_t station_count, double t0,
                              double t1) const;

  private:
    double step_;
    double fairness_slack_;
};

} // namespace kodan::ground

#endif // KODAN_GROUND_DOWNLINK_HPP
