#include "ground/contact.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "telemetry/telemetry.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace kodan::ground {

namespace {

/** Die unless the grid from @p t0 by @p step can walk to @p t1. */
void
checkInterval(double t0, double t1, double step)
{
    if (!(std::isfinite(t0) && std::isfinite(t1) && t0 <= t1)) {
        util::fatal("ContactFinder: scan interval [" + std::to_string(t0) +
                    ", " + std::to_string(t1) +
                    "] must be finite with t0 <= t1");
    }
    if (t0 + step == t0 || t1 + step == t1) {
        util::fatal("ContactFinder: scan step " + std::to_string(step) +
                    " s vanishes against the interval's time stamps");
    }
}

/**
 * Refine an elevation-mask crossing inside [lo, hi] to ~1 ms by
 * bisection.
 * @param above_at Visibility predicate at a time; it differs between
 *        lo and hi.
 * @param rising true for a below -> above crossing.
 */
template <typename AboveAt>
double
refineCrossing(const AboveAt &above_at, double lo, double hi, bool rising)
{
    // Invariant: sign changes across [lo, hi]; rising means below -> above.
    for (int iter = 0; iter < 40; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (above_at(mid) == rising) {
            hi = mid;
        } else {
            lo = mid;
        }
        if (hi - lo < 1.0e-3) {
            break;
        }
    }
    return 0.5 * (lo + hi);
}

/** One station's geometry, computed once per scan. */
struct Site
{
    explicit Site(const GroundStation &station)
        : ecef(station.ecef()), up(ecef.normalized()),
          min_elevation(station.min_elevation)
    {
    }

    /** The elevation-mask predicate every scan applies. */
    bool aboveMask(const orbit::Vec3 &sat_ecef) const
    {
        return orbit::elevationAngle(ecef, up, sat_ecef) - min_elevation >=
               0.0;
    }

    /**
     * Visibility-cone bound (rad): a satellite at radius <= @p r_max
     * whose geocentric separation from the site exceeds it is below the
     * mask. The cone's half-angle at the mask elevation only shrinks at
     * lower radii; it is exact for the geocentric-up elevation model,
     * and a small margin absorbs float slop.
     */
    double coneBound(double r_max) const
    {
        const double cos_arg = std::clamp(
            (ecef.norm() / r_max) * std::cos(min_elevation), -1.0, 1.0);
        return std::acos(cos_arg) - min_elevation + 0.01;
    }

    orbit::Vec3 ecef;
    /** Local up (geocentric), as orbit::elevationAngle derives it. */
    orbit::Vec3 up;
    double min_elevation;
};

/** Rise/set state of one (satellite, station) pair along the grid. */
struct Pass
{
    /** Seed the state from the sample at the interval start. */
    void open(bool above, double t0)
    {
        in_window = above;
        start = above ? t0 : 0.0;
    }

    /** Take the grid sample at @p t, refining any crossing inside
     *  [t - step, t] with @p above_at. */
    template <typename AboveAt>
    void sample(bool above, double t, double step, double t0, double t1,
                const AboveAt &above_at)
    {
        if (above && !in_window) {
            start = refineCrossing(above_at, t - step, t, /*rising=*/true);
            in_window = true;
        } else if (!above && in_window) {
            const double end =
                refineCrossing(above_at, t - step, t, /*rising=*/false);
            windows.push_back(
                {0, 0, std::max(start, t0), std::min(end, t1)});
            in_window = false;
        }
    }

    /** Close a window still open at the interval end. */
    void close(double t0, double t1)
    {
        if (in_window) {
            windows.push_back({0, 0, std::max(start, t0), t1});
        }
    }

    bool in_window = false;
    double start = 0.0;
    std::vector<ContactWindow> windows;
};

/**
 * Upper bound on d(theta)/dt for the geocentric separation theta
 * between the satellite and any ground site (rad/s): the fastest
 * in-plane sweep (true-anomaly rate at perigee) plus apsidal/nodal
 * precession plus Earth spin.
 */
double
separationRateBound(const orbit::J2Propagator &sat)
{
    const double e = sat.elements().eccentricity;
    return 1.05 * (sat.meanMotion() * std::sqrt(1.0 + e) /
                       std::pow(1.0 - e, 1.5) +
                   std::abs(sat.argPerigeeRate()) +
                   std::abs(sat.raanRate()) + util::kEarthOmega);
}

/** Satellite @p index's windows with every site: by station, then by
 *  time (see ContactFinder::findAllParallel). */
std::vector<ContactWindow>
scanSatellite(const orbit::J2Propagator &sat, std::size_t index,
              const std::vector<Site> &sites, double step, double t0,
              double t1)
{
    const auto &elems = sat.elements();
    const double r_apogee =
        elems.semi_major_axis * (1.0 + elems.eccentricity);
    const double rate = separationRateBound(sat);
    // Station g is out of its cone when up_g . p < cos(cone_g) |p|.
    std::vector<double> cos_cone(sites.size());
    double max_cone = -std::numeric_limits<double>::infinity();
    for (std::size_t g = 0; g < sites.size(); ++g) {
        const double cone = sites[g].coneBound(r_apogee);
        cos_cone[g] = cone < util::kPi
                          ? std::cos(cone)
                          : -std::numeric_limits<double>::infinity();
        max_cone = std::max(max_cone, cone);
    }
    // Out of the cone proves the satellite below the mask, so only
    // in-cone stations pay the elevation test; the result is the mask
    // predicate's either way.
    const auto visible = [&](std::size_t g, const orbit::Vec3 &p,
                             double r, double up_dot) {
        return up_dot >= cos_cone[g] * r && sites[g].aboveMask(p);
    };

    std::vector<Pass> passes(sites.size());
    const orbit::Vec3 first = sat.positionEcef(t0);
    for (std::size_t g = 0; g < sites.size(); ++g) {
        passes[g].open(
            visible(g, first, first.norm(), sites[g].up.dot(first)), t0);
    }
    for (double t = t0 + step; t < t1 + step; t += step) {
        const double t_clamped = std::min(t, t1);
        const orbit::Vec3 p = sat.positionEcef(t_clamped);
        const double r = p.norm();
        bool any_visible = false;
        double max_up_dot = -std::numeric_limits<double>::infinity();
        for (std::size_t g = 0; g < sites.size(); ++g) {
            const double up_dot = sites[g].up.dot(p);
            max_up_dot = std::max(max_up_dot, up_dot);
            const bool above = visible(g, p, r, up_dot);
            passes[g].sample(above, t_clamped, step, t0, t1,
                             [&](double tm) {
                                 const orbit::Vec3 q = sat.positionEcef(tm);
                                 return visible(g, q, q.norm(),
                                                sites[g].up.dot(q));
                             });
            any_visible = any_visible || above;
        }
        if (t_clamped >= t1) {
            break;
        }
        if (!any_visible) {
            // Stride over grid cells provably out of every cone:
            // min_g theta_g - max_g cone_g is below every station's own
            // slack. The time is advanced by repeated += so the
            // surviving samples land on exactly the accumulated grid
            // find() walks.
            const double slack =
                std::acos(std::clamp(max_up_dot / r, -1.0, 1.0)) - max_cone;
            if (slack > 0.0) {
                const double cells = std::floor(slack / (rate * step));
                // One grid cell is consumed by the loop increment.
                for (double skipped = 1.0; skipped < cells && t + step < t1;
                     skipped += 1.0) {
                    t += step;
                }
            }
        }
    }

    std::vector<ContactWindow> windows;
    for (std::size_t g = 0; g < sites.size(); ++g) {
        passes[g].close(t0, t1);
        for (ContactWindow &w : passes[g].windows) {
            w.station = g;
            w.satellite = index;
            windows.push_back(w);
        }
    }
    return windows;
}

} // namespace

ContactFinder::ContactFinder(double coarse_step)
    : coarse_step_(coarse_step)
{
    if (!std::isfinite(coarse_step) || coarse_step <= 0.0) {
        util::fatal("ContactFinder: coarse scan step must be finite and "
                    "positive, got " +
                    std::to_string(coarse_step) + " s");
    }
}

std::vector<ContactWindow>
ContactFinder::find(const orbit::J2Propagator &sat,
                    const GroundStation &station, double t0, double t1) const
{
    checkInterval(t0, t1, coarse_step_);
    const Site site(station);
    const auto above_at = [&](double t) {
        return site.aboveMask(sat.positionEcef(t));
    };
    Pass pass;
    pass.open(above_at(t0), t0);
    for (double t = t0 + coarse_step_; t < t1 + coarse_step_;
         t += coarse_step_) {
        const double t_clamped = std::min(t, t1);
        pass.sample(above_at(t_clamped), t_clamped, coarse_step_, t0, t1,
                    above_at);
        if (t_clamped >= t1) {
            break;
        }
    }
    pass.close(t0, t1);
    return std::move(pass.windows);
}

std::vector<ContactWindow>
ContactFinder::findAllParallel(
    const std::vector<orbit::J2Propagator> &sats,
    const std::vector<GroundStation> &stations, double t0, double t1) const
{
    checkInterval(t0, t1, coarse_step_);
    KODAN_TRACE_SCOPE("ground.contact.scan");
    const std::vector<Site> sites(stations.begin(), stations.end());
    std::vector<std::vector<ContactWindow>> per_sat(sats.size());
    util::parallelFor(sats.size(), [&](std::size_t s) {
        per_sat[s] = scanSatellite(sats[s], s, sites, coarse_step_, t0, t1);
    });
    std::vector<ContactWindow> all;
    std::size_t total = 0;
    for (const auto &windows : per_sat) {
        total += windows.size();
    }
    all.reserve(total);
    // Satellite order, each satellite's windows by station: the
    // (satellite, station) pair order, so the unstable start-time sort
    // sees the same input at any thread count.
    for (const auto &windows : per_sat) {
        all.insert(all.end(), windows.begin(), windows.end());
    }
    std::sort(all.begin(), all.end(),
              [](const ContactWindow &a, const ContactWindow &b) {
                  return a.start < b.start;
              });
    KODAN_COUNT_ADD("ground.contact.windows.scanned", all.size());
    if (telemetry::journalEnabled()) {
        // Flight recorder: one begin/end pair per window, in the sorted
        // (deterministic) window order on the caller's journal lane.
        for (const auto &w : all) {
            telemetry::JournalEventBuilder("ground.contact.begin")
                .i64("satellite", static_cast<std::int64_t>(w.satellite))
                .i64("station", static_cast<std::int64_t>(w.station))
                .f64("t_s", w.start);
            telemetry::JournalEventBuilder("ground.contact.end")
                .i64("satellite", static_cast<std::int64_t>(w.satellite))
                .i64("station", static_cast<std::int64_t>(w.station))
                .f64("t_s", w.end)
                .f64("duration_s", w.duration());
        }
    }
    return all;
}

double
totalContactSeconds(const std::vector<ContactWindow> &windows)
{
    double total = 0.0;
    for (const auto &w : windows) {
        total += w.duration();
    }
    return total;
}

} // namespace kodan::ground
