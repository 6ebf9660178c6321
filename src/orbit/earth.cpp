#include "orbit/earth.hpp"

#include <cmath>

#include "util/stats.hpp"
#include "util/units.hpp"

namespace kodan::orbit {

using util::kEarthOmega;
using util::kEarthRadius;

double
gmst(double t)
{
    return util::wrapTwoPi(kEarthOmega * t);
}

Vec3
eciToEcef(const Vec3 &eci, double t)
{
    const double theta = gmst(t);
    const double c = std::cos(theta);
    const double s = std::sin(theta);
    // Rotate by -theta about +Z: ECEF = Rz(-theta) * ECI.
    return {c * eci.x + s * eci.y, -s * eci.x + c * eci.y, eci.z};
}

Vec3
ecefToEci(const Vec3 &ecef, double t)
{
    const double theta = gmst(t);
    const double c = std::cos(theta);
    const double s = std::sin(theta);
    return {c * ecef.x - s * ecef.y, s * ecef.x + c * ecef.y, ecef.z};
}

Geodetic
ecefToGeodetic(const Vec3 &ecef)
{
    const double a = kEarthRadius;
    const double f = kWgs84Flattening;
    const double e2 = f * (2.0 - f);

    const double lon = std::atan2(ecef.y, ecef.x);
    const double p = std::sqrt(ecef.x * ecef.x + ecef.y * ecef.y);

    // Iterate latitude; converges quickly for LEO altitudes.
    double lat = std::atan2(ecef.z, p * (1.0 - e2));
    double alt = 0.0;
    for (int iter = 0; iter < 8; ++iter) {
        const double sin_lat = std::sin(lat);
        const double n = a / std::sqrt(1.0 - e2 * sin_lat * sin_lat);
        alt = p / std::cos(lat) - n;
        lat = std::atan2(ecef.z, p * (1.0 - e2 * n / (n + alt)));
    }
    return {lat, util::wrapPi(lon), alt};
}

Vec3
geodeticToEcef(const Geodetic &geo)
{
    const double a = kEarthRadius;
    const double f = kWgs84Flattening;
    const double e2 = f * (2.0 - f);
    const double sin_lat = std::sin(geo.latitude);
    const double cos_lat = std::cos(geo.latitude);
    const double n = a / std::sqrt(1.0 - e2 * sin_lat * sin_lat);
    return {(n + geo.altitude) * cos_lat * std::cos(geo.longitude),
            (n + geo.altitude) * cos_lat * std::sin(geo.longitude),
            (n * (1.0 - e2) + geo.altitude) * sin_lat};
}

double
greatCircleAngle(const Geodetic &a, const Geodetic &b)
{
    const double s =
        std::sin(a.latitude) * std::sin(b.latitude) +
        std::cos(a.latitude) * std::cos(b.latitude) *
            std::cos(a.longitude - b.longitude);
    return std::acos(util::clamp(s, -1.0, 1.0));
}

double
elevationAngle(const Vec3 &site_ecef, const Vec3 &target_ecef)
{
    // Local "up" approximated by the geocentric direction; error is below
    // 0.2 deg at LEO geometry, well inside the elevation-mask margin.
    return elevationAngle(site_ecef, site_ecef.normalized(), target_ecef);
}

double
elevationAngle(const Vec3 &site_ecef, const Vec3 &site_up,
               const Vec3 &target_ecef)
{
    const Vec3 to_target = target_ecef - site_ecef;
    const double sin_elev = site_up.dot(to_target) / to_target.norm();
    return std::asin(util::clamp(sin_elev, -1.0, 1.0));
}

} // namespace kodan::orbit
