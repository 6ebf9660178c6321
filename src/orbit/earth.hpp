/**
 * @file
 * Earth rotation and coordinate-frame conversions.
 *
 * Frames:
 *  - ECI:  Earth-centered inertial; orbits are propagated here.
 *  - ECEF: Earth-centered Earth-fixed; rotates with the planet.
 *  - Geodetic: latitude / longitude / altitude over the WGS-84 ellipsoid.
 *
 * The simulation epoch t = 0 is defined to have Greenwich aligned with the
 * ECI +X axis (GMST = 0), which is sufficient for constellation studies.
 */

#ifndef KODAN_ORBIT_EARTH_HPP
#define KODAN_ORBIT_EARTH_HPP

#include "orbit/vec3.hpp"

namespace kodan::orbit {

/** Geodetic coordinates over the WGS-84 ellipsoid. */
struct Geodetic
{
    /** Geodetic latitude (rad), [-pi/2, pi/2]. */
    double latitude = 0.0;
    /** Longitude (rad), [-pi, pi). */
    double longitude = 0.0;
    /** Height above the ellipsoid (m). */
    double altitude = 0.0;
};

/** WGS-84 flattening. */
inline constexpr double kWgs84Flattening = 1.0 / 298.257223563;

/**
 * Greenwich mean sidereal time at simulation time t.
 *
 * @param t Seconds since the simulation epoch.
 * @return Rotation angle of the Earth (rad) in [0, 2*pi).
 */
double gmst(double t);

/**
 * Rotate an ECI vector into ECEF at time t.
 * @param eci Position in the inertial frame (m).
 * @param t Seconds since epoch.
 */
Vec3 eciToEcef(const Vec3 &eci, double t);

/**
 * Rotate an ECEF vector into ECI at time t.
 * @param ecef Position in the rotating frame (m).
 * @param t Seconds since epoch.
 */
Vec3 ecefToEci(const Vec3 &ecef, double t);

/**
 * Convert ECEF to geodetic coordinates (iterative; mm-level accurate).
 * @param ecef Position (m).
 */
Geodetic ecefToGeodetic(const Vec3 &ecef);

/**
 * Convert geodetic coordinates to ECEF (m).
 * @param geo Latitude/longitude/altitude.
 */
Vec3 geodeticToEcef(const Geodetic &geo);

/**
 * Great-circle central angle between two geodetic points (spherical
 * approximation; used for coverage bookkeeping, not precision geodesy).
 *
 * @return Angle in radians; multiply by Earth radius for arc length.
 */
double greatCircleAngle(const Geodetic &a, const Geodetic &b);

/**
 * Elevation angle of a target as seen from a ground site.
 *
 * @param site_ecef Ground site position (m, ECEF).
 * @param target_ecef Target position (m, ECEF).
 * @return Elevation above the local horizon (rad); negative when the
 *         target is below the horizon.
 */
double elevationAngle(const Vec3 &site_ecef, const Vec3 &target_ecef);

/**
 * elevationAngle() with the site's local up vector precomputed, for
 * callers that test one site many times.
 *
 * @param site_up `site_ecef.normalized()`; the result is then
 *        bit-identical to the two-argument form.
 */
double elevationAngle(const Vec3 &site_ecef, const Vec3 &site_up,
                      const Vec3 &target_ecef);

} // namespace kodan::orbit

#endif // KODAN_ORBIT_EARTH_HPP
