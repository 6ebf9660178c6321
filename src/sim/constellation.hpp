/**
 * @file
 * The mission engine: sharded, chunked, memory-flat. It runs every
 * mission figure, bench, and example, from a three-satellite day to
 * thousands of satellites over a simulated year, by organizing the
 * physical models (orbit propagation, frame capture, the contended
 * ground segment, the downlink radio, an abstract on-board filter)
 * around streaming:
 *
 *  - **Time chunks.** The horizon is processed in fixed chunks
 *    (default one day). Each chunk runs the one-pass parallel
 *    contact scan (ContactFinder::findAllParallel), advances the
 *    resumable incremental ground scheduler
 *    (GroundSegmentScheduler::allocateSpan), then simulates capture /
 *    filtering / downlink for that span. Nothing is retained per frame
 *    or per window across chunks, so memory stays flat in the horizon.
 *  - **Shards.** Satellites are partitioned into shard work units
 *    scheduled on the deterministic ThreadPool. Each satellite owns an
 *    RNG stream derived from (seed, satellite index) and a journal
 *    lane (region, slot = index + 1) whose ordinal resumes across
 *    chunks, so results — MissionResult, journal bytes, TimeSeries
 *    bins — are bit-identical for any KODAN_THREADS and any shard
 *    size (proved by `ctest -L constellation`).
 *  - **Fluid downlink queues.** On-board backlog is modeled as two
 *    value-separated pools (filter products, raw frames) with a
 *    bounded storage capacity, drained through the contact runs the
 *    scheduler closes each chunk. Each pool is well mixed, so the
 *    products drain at the filter's precision and per-item latency is
 *    not tracked.
 *  - **Streaming telemetry.** Per-bin aggregates go straight into the
 *    PR-4 TimeSeries (registered with capacity for the full horizon)
 *    through a serial fold per chunk; per-satellite journal events are
 *    emitted inside the work items under the resumable lane cursor.
 */

#ifndef KODAN_SIM_CONSTELLATION_HPP
#define KODAN_SIM_CONSTELLATION_HPP

#include <cstddef>
#include <cstdint>

#include "sim/mission.hpp"
#include "util/units.hpp"

namespace kodan::sim {

/** Scenario + engine tuning for a constellation-scale run. */
struct ConstellationConfig
{
    /**
     * The mission scenario (constellation, ground segment, camera,
     * radio, duration, steps, seed, telemetry bin/prefix). Use
     * MissionConfig::makeConstellation for multi-plane layouts.
     */
    MissionConfig mission;
    /** Satellites per shard work unit (>= 1). Any value gives
     *  bit-identical results; larger shards amortize dispatch. */
    std::size_t shard_size = 16;
    /**
     * Streaming chunk length (s). Must be a positive multiple of both
     * the scheduler step and the telemetry bin width so chunk edges
     * stay on the allocation grid and every bin is closed by exactly
     * one chunk; run() dies through util::fatal otherwise. The frame
     * grid restarts at each chunk edge and the
     * storage cap is enforced per chunk, so chunk_s is part of the
     * scenario definition: results are bit-invariant to threads and
     * shards, not to chunk_s.
     */
    double chunk_s = util::kSecondsPerDay;
    /**
     * On-board storage per satellite (bits). Backlog beyond this is
     * dropped at the end of each chunk's capture phase — raw frames
     * first, then products — modeling a bounded solid-state recorder
     * (Landsat-8 carries ~3.1 Tbit). Infinity disables the cap.
     */
    double storage_bits = 3.1e12;
    /**
     * Synthetic degradation injection for health-plane validation: from
     * sim time `after_s` on, contact runs for satellite index
     * `satellite` transfer zero bits (the pass is still granted and
     * its seconds still accrue — the queue is silently dropped on the
     * ground, as in a misconfigured station). The backlog then grows
     * until the storage cap sheds it, so the `storage.drop` and
     * `downlink.absence` alerts fire for exactly this satellite.
     * Disabled at the default -1; results are bit-identical to an
     * engine without this knob when disabled.
     */
    struct Degradation
    {
        std::int64_t satellite = -1;
        double after_s = 0.0;
    };
    Degradation degrade;
};

/**
 * The mission engine. A null world draws i.i.d. frame values at the
 * fixed prevalence.
 */
class ConstellationEngine
{
  public:
    /**
     * @param world Procedural world used to label frame values; when
     *        null, frame values are Bernoulli draws at
     *        @p fixed_prevalence.
     * @param fixed_prevalence Used only when @p world is null.
     */
    explicit ConstellationEngine(const data::GeoModel *world = nullptr,
                                 double fixed_prevalence = 1.0 / 3.0);

    /**
     * Run the scenario under the given filter behaviour. Dies through
     * util::fatal when the scenario has no satellite or no station, or
     * when chunk_s is not a finite positive multiple of the scheduler
     * step and the telemetry bin width.
     */
    MissionResult run(const ConstellationConfig &config,
                      const FilterBehavior &filter) const;

  private:
    const data::GeoModel *world_;
    double fixed_prevalence_;
};

} // namespace kodan::sim

#endif // KODAN_SIM_CONSTELLATION_HPP
