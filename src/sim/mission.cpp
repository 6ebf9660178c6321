#include "sim/mission.hpp"

#include <limits>
#include <string>

#include "util/log.hpp"
#include "util/stats.hpp"

namespace kodan::sim {

MissionConfig
MissionConfig::landsatConstellation(int satellite_count)
{
    return makeConstellation(satellite_count, 1, 0);
}

MissionConfig
MissionConfig::makeConstellation(int satellite_count, int planes,
                                 int phasing)
{
    if (satellite_count < 1 || planes < 1 ||
        satellite_count % planes != 0) {
        util::fatal("MissionConfig::makeConstellation: " +
                    std::to_string(satellite_count) +
                    " satellites cannot fly in " + std::to_string(planes) +
                    " plane(s); need >= 1 satellite and >= 1 plane "
                    "dividing the satellite count");
    }
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

} // namespace kodan::sim
