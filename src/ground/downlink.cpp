#include "ground/downlink.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>

namespace kodan::ground {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

} // namespace

double
DownlinkModel::bitsForContact(double seconds, std::size_t passes) const
{
    const double usable =
        std::max(0.0, seconds - pass_overhead_s *
                                    static_cast<double>(passes));
    return usable * datarate_bps;
}

GroundSegmentScheduler::GroundSegmentScheduler(double step,
                                               double fairness_slack)
    : step_(step), fairness_slack_(fairness_slack)
{
    assert(step > 0.0);
    assert(fairness_slack >= 0.0);
}

GroundSegmentScheduler::State
GroundSegmentScheduler::beginAllocation(std::size_t satellite_count,
                                        std::size_t station_count,
                                        double t0) const
{
    State state;
    state.allocation.seconds_per_satellite.assign(satellite_count, 0.0);
    state.allocation.passes_per_satellite.assign(satellite_count, 0);
    state.allocation.intervals_per_satellite.assign(satellite_count, {});
    state.clock = t0;
    state.last_served.assign(station_count, kNone);
    state.open_runs.assign(station_count, OpenRun{});
    return state;
}

void
GroundSegmentScheduler::allocateSpan(
    const std::vector<ContactWindow> &windows, double t1,
    State &state) const
{
    Allocation &result = state.allocation;
    const std::size_t station_count = state.last_served.size();

    // Per-station contact event queues: window indices sorted by start
    // time. A cursor activates windows as the step clock reaches them;
    // expired windows are dropped lazily during the per-step scan. The
    // active set is kept in ascending window-index order so the
    // least-served tie-break sees candidates in exactly the order the
    // rescan oracle scans the full list.
    std::vector<std::vector<std::uint32_t>> pending(station_count);
    for (std::size_t i = 0; i < windows.size(); ++i) {
        const auto &w = windows[i];
        if (w.station < station_count && w.satellite < result.seconds_per_satellite.size()) {
            pending[w.station].push_back(static_cast<std::uint32_t>(i));
        }
    }
    for (auto &queue : pending) {
        std::sort(queue.begin(), queue.end(),
                  [&windows](std::uint32_t a, std::uint32_t b) {
                      return windows[a].start != windows[b].start
                                 ? windows[a].start < windows[b].start
                                 : a < b;
                  });
    }
    std::vector<std::size_t> cursor(station_count, 0);
    std::vector<std::vector<std::uint32_t>> active(station_count);

    const auto closeRun = [&result](std::size_t station, OpenRun &run) {
        if (run.satellite != kNone) {
            result.intervals_per_satellite[run.satellite].push_back(
                {station, run.start, run.end});
        }
        run.satellite = kNone;
    };

    double t = state.clock;
    for (; t < t1; t += step_) {
        const double slot = std::min(step_, t1 - t);
        const double t_mid = t + 0.5 * slot;
        for (std::size_t g = 0; g < station_count; ++g) {
            // Activate windows whose start has been reached.
            auto &queue = pending[g];
            auto &live = active[g];
            while (cursor[g] < queue.size() &&
                   windows[queue[cursor[g]]].start <= t_mid) {
                const std::uint32_t idx = queue[cursor[g]];
                live.insert(
                    std::lower_bound(live.begin(), live.end(), idx), idx);
                ++cursor[g];
            }
            // Scan only the live windows, dropping expired ones in
            // place. Selection logic is verbatim from the rescan: first
            // strictly-least-served visible satellite wins.
            std::size_t best = kNone;
            double best_time = std::numeric_limits<double>::infinity();
            bool current_visible = false;
            std::size_t keep = 0;
            for (std::size_t k = 0; k < live.size(); ++k) {
                const auto &w = windows[live[k]];
                if (t_mid >= w.end) {
                    continue; // expired: drop from the active set
                }
                live[keep++] = live[k];
                if (t_mid < w.start) {
                    continue;
                }
                if (w.satellite == state.last_served[g]) {
                    current_visible = true;
                }
                // Max-min fairness: grant the least-served satellite.
                if (result.seconds_per_satellite[w.satellite] <
                    best_time) {
                    best_time = result.seconds_per_satellite[w.satellite];
                    best = w.satellite;
                }
            }
            live.resize(keep);
            // Hysteresis: stick with the satellite already being served
            // unless the best contender is far enough behind it.
            if (current_visible && best != state.last_served[g] &&
                result.seconds_per_satellite[state.last_served[g]] -
                        best_time <
                    fairness_slack_) {
                best = state.last_served[g];
            }
            if (best == kNone) {
                result.idle_station_seconds += slot;
                state.last_served[g] = kNone;
                closeRun(g, state.open_runs[g]);
                continue;
            }
            result.busy_station_seconds += slot;
            result.seconds_per_satellite[best] += slot;
            if (state.last_served[g] != best) {
                ++result.passes_per_satellite[best];
                state.last_served[g] = best;
                closeRun(g, state.open_runs[g]);
                state.open_runs[g] = {best, t, t + slot};
            } else {
                state.open_runs[g].end = t + slot;
            }
        }
    }
    state.clock = t;
}

GroundSegmentScheduler::Allocation
GroundSegmentScheduler::finishAllocation(State &&state) const
{
    Allocation result = std::move(state.allocation);
    for (std::size_t g = 0; g < state.open_runs.size(); ++g) {
        auto &run = state.open_runs[g];
        if (run.satellite != kNone) {
            result.intervals_per_satellite[run.satellite].push_back(
                {g, run.start, run.end});
            run.satellite = kNone;
        }
    }
    for (auto &intervals : result.intervals_per_satellite) {
        std::sort(intervals.begin(), intervals.end(),
                  [](const Interval &a, const Interval &b) {
                      return a.start != b.start ? a.start < b.start
                                                : a.station < b.station;
                  });
    }
    return result;
}

GroundSegmentScheduler::Allocation
GroundSegmentScheduler::allocateRescan(
    const std::vector<ContactWindow> &windows, std::size_t satellite_count,
    std::size_t station_count, double t0, double t1) const
{
    assert(t1 >= t0);
    Allocation result;
    result.seconds_per_satellite.assign(satellite_count, 0.0);
    result.passes_per_satellite.assign(satellite_count, 0);
    result.intervals_per_satellite.assign(satellite_count, {});

    // Track which (station, satellite) pair was served last step so pass
    // counting notices new grants. Each station keeps its currently open
    // granted run; a retarget closes it into the satellite's interval
    // list, so intervals coalesce per pass exactly as overhead is paid.
    std::vector<std::size_t> last_served(station_count, kNone);
    std::vector<OpenRun> open_runs(station_count);
    const auto closeRun = [&result](std::size_t station, OpenRun &run) {
        if (run.satellite != kNone) {
            result.intervals_per_satellite[run.satellite].push_back(
                {station, run.start, run.end});
        }
        run.satellite = kNone;
    };

    for (double t = t0; t < t1; t += step_) {
        const double slot = std::min(step_, t1 - t);
        const double t_mid = t + 0.5 * slot;
        for (std::size_t g = 0; g < station_count; ++g) {
            // Find visible satellites at this station right now.
            std::size_t best = kNone;
            double best_time = std::numeric_limits<double>::infinity();
            bool current_visible = false;
            for (const auto &w : windows) {
                if (w.station != g || t_mid < w.start || t_mid >= w.end) {
                    continue;
                }
                if (w.satellite == last_served[g]) {
                    current_visible = true;
                }
                // Max-min fairness: grant the least-served satellite.
                if (result.seconds_per_satellite[w.satellite] < best_time) {
                    best_time = result.seconds_per_satellite[w.satellite];
                    best = w.satellite;
                }
            }
            // Hysteresis: stick with the satellite already being served
            // unless the best contender is far enough behind it.
            if (current_visible && best != last_served[g] &&
                result.seconds_per_satellite[last_served[g]] - best_time <
                    fairness_slack_) {
                best = last_served[g];
            }
            if (best == kNone) {
                result.idle_station_seconds += slot;
                last_served[g] = kNone;
                closeRun(g, open_runs[g]);
                continue;
            }
            result.busy_station_seconds += slot;
            result.seconds_per_satellite[best] += slot;
            if (last_served[g] != best) {
                ++result.passes_per_satellite[best];
                last_served[g] = best;
                closeRun(g, open_runs[g]);
                open_runs[g] = {best, t, t + slot};
            } else {
                open_runs[g].end = t + slot;
            }
        }
    }
    for (std::size_t g = 0; g < station_count; ++g) {
        closeRun(g, open_runs[g]);
    }
    for (auto &intervals : result.intervals_per_satellite) {
        std::sort(intervals.begin(), intervals.end(),
                  [](const Interval &a, const Interval &b) {
                      return a.start != b.start ? a.start < b.start
                                                : a.station < b.station;
                  });
    }
    return result;
}

} // namespace kodan::ground
