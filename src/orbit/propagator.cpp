#include "orbit/propagator.hpp"

#include <cassert>
#include <cmath>

#include "util/units.hpp"

namespace kodan::orbit {

using util::kEarthJ2;
using util::kEarthRadius;
using util::kTwoPi;

J2Propagator::J2Propagator(const OrbitalElements &elements)
    : elements_(elements)
{
    const double a = elements_.semi_major_axis;
    const double e = elements_.eccentricity;
    const double i = elements_.inclination;
    assert(a > kEarthRadius);
    assert(e >= 0.0 && e < 1.0);

    const double n0 = elements_.meanMotion();
    const double p = a * (1.0 - e * e); // semi-latus rectum
    const double re_p = kEarthRadius / p;
    const double j2_term = 1.5 * kEarthJ2 * re_p * re_p;
    cos_i_ = std::cos(i);
    sin_i_ = std::sin(i);
    eta_ = std::sqrt(1.0 - e * e);

    // Standard secular J2 rates (Vallado, ch. 9).
    raan_rate_ = -j2_term * n0 * cos_i_;
    argp_rate_ = j2_term * n0 * (2.0 - 2.5 * sin_i_ * sin_i_);
    mean_motion_ =
        n0 * (1.0 + j2_term * eta_ * (1.0 - 1.5 * sin_i_ * sin_i_));
}

double
J2Propagator::nodalPeriod() const
{
    // Time between successive ascending nodes: the argument of latitude
    // advances at (M + argp) rate for near-circular orbits.
    return kTwoPi / (mean_motion_ + argp_rate_);
}

StateEci
J2Propagator::stateAt(double t) const
{
    const double a = elements_.semi_major_axis;
    const double e = elements_.eccentricity;

    const double mean_anom =
        util::wrapTwoPi(elements_.mean_anomaly + mean_motion_ * t);
    const double raan = util::wrapTwoPi(elements_.raan + raan_rate_ * t);
    const double argp =
        util::wrapTwoPi(elements_.arg_perigee + argp_rate_ * t);

    const double e_anom = solveKepler(mean_anom, e);
    const double cos_e = std::cos(e_anom);
    const double sin_e = std::sin(e_anom);

    // Perifocal coordinates.
    const double x_pf = a * (cos_e - e);
    const double y_pf = a * eta_ * sin_e;
    const double e_anom_rate = mean_motion_ / (1.0 - e * cos_e);
    const double vx_pf = -a * sin_e * e_anom_rate;
    const double vy_pf = a * eta_ * cos_e * e_anom_rate;

    // Rotate perifocal -> ECI: Rz(raan) * Rx(i) * Rz(argp).
    const double cr = std::cos(raan);
    const double sr = std::sin(raan);
    const double ci = cos_i_;
    const double si = sin_i_;
    const double ca = std::cos(argp);
    const double sa = std::sin(argp);

    const double r11 = cr * ca - sr * sa * ci;
    const double r12 = -cr * sa - sr * ca * ci;
    const double r21 = sr * ca + cr * sa * ci;
    const double r22 = -sr * sa + cr * ca * ci;
    const double r31 = sa * si;
    const double r32 = ca * si;

    StateEci state;
    state.position = {r11 * x_pf + r12 * y_pf, r21 * x_pf + r22 * y_pf,
                      r31 * x_pf + r32 * y_pf};
    state.velocity = {r11 * vx_pf + r12 * vy_pf, r21 * vx_pf + r22 * vy_pf,
                      r31 * vx_pf + r32 * vy_pf};
    return state;
}

Vec3
J2Propagator::positionEcef(double t) const
{
    return eciToEcef(stateAt(t).position, t);
}

Geodetic
J2Propagator::subsatellitePoint(double t) const
{
    return ecefToGeodetic(positionEcef(t));
}

double
J2Propagator::groundTrackSpeed() const
{
    // Arc traced on the spherical Earth per nodal period, ignoring the
    // small along-track contribution of Earth rotation (it is mostly
    // cross-track for near-polar orbits).
    return kTwoPi * kEarthRadius / nodalPeriod();
}

} // namespace kodan::orbit
