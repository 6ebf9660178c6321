/**
 * @file
 * Keplerian + J2 secular orbit propagator.
 *
 * Two-body motion with the secular effects of Earth's oblateness (nodal
 * regression, apsidal rotation, mean-anomaly drift). This is the fidelity
 * level the cote simulator uses for constellation studies: it captures
 * sun-synchronous geometry, ground-track progression, and contact timing
 * without numerical integration.
 */

#ifndef KODAN_ORBIT_PROPAGATOR_HPP
#define KODAN_ORBIT_PROPAGATOR_HPP

#include "orbit/earth.hpp"
#include "orbit/elements.hpp"
#include "orbit/vec3.hpp"

namespace kodan::orbit {

/** Inertial position/velocity sample. */
struct StateEci
{
    /** Position (m, ECI). */
    Vec3 position;
    /** Velocity (m/s, ECI). */
    Vec3 velocity;
};

/**
 * Propagates one satellite from its epoch elements.
 *
 * Thread-compatible: propagation is const and stateless beyond the
 * precomputed secular rates.
 */
class J2Propagator
{
  public:
    /** @param elements Epoch (t = 0) classical elements. */
    explicit J2Propagator(const OrbitalElements &elements);

    /** Epoch elements this propagator was built from. */
    const OrbitalElements &elements() const { return elements_; }

    /** Secular RAAN rate (rad/s); negative for prograde orbits. */
    double raanRate() const { return raan_rate_; }

    /** Secular argument-of-perigee rate (rad/s). */
    double argPerigeeRate() const { return argp_rate_; }

    /** Perturbed mean motion (rad/s). */
    double meanMotion() const { return mean_motion_; }

    /** Nodal period (time between ascending-node crossings), seconds. */
    double nodalPeriod() const;

    /** Inertial state at simulation time t (seconds since epoch). */
    StateEci stateAt(double t) const;

    /** ECEF position at time t (convenience). */
    Vec3 positionEcef(double t) const;

    /** Subsatellite geodetic point at time t (altitude = orbit height). */
    Geodetic subsatellitePoint(double t) const;

    /**
     * Ground-track speed of the subsatellite point (m/s), computed for the
     * orbit's nodal period over the spherical Earth. Determines the frame
     * capture cadence for a pushbroom imager.
     */
    double groundTrackSpeed() const;

  private:
    OrbitalElements elements_;
    double mean_motion_; // rad/s, J2-corrected
    double raan_rate_;   // rad/s
    double argp_rate_;   // rad/s
    double cos_i_;       // cos(inclination)
    double sin_i_;       // sin(inclination)
    double eta_;         // sqrt(1 - e^2)
};

} // namespace kodan::orbit

#endif // KODAN_ORBIT_PROPAGATOR_HPP
