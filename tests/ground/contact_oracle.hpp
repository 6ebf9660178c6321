/**
 * @file
 * Test oracle for ContactFinder::findAllParallel: every (satellite,
 * station) pair scanned by the fixed-grid find(), tagged, concatenated
 * in pair order and start-sorted.
 */

#ifndef KODAN_TESTS_GROUND_CONTACT_ORACLE_HPP
#define KODAN_TESTS_GROUND_CONTACT_ORACLE_HPP

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ground/contact.hpp"

namespace kodan::testing {

/** The per-pair fixed-grid windows of a constellation, start-sorted. */
inline std::vector<ground::ContactWindow>
findAllOracle(const ground::ContactFinder &finder,
              const std::vector<orbit::J2Propagator> &sats,
              const std::vector<ground::GroundStation> &stations, double t0,
              double t1)
{
    std::vector<ground::ContactWindow> all;
    for (std::size_t s = 0; s < sats.size(); ++s) {
        for (std::size_t g = 0; g < stations.size(); ++g) {
            for (auto w : finder.find(sats[s], stations[g], t0, t1)) {
                w.satellite = s;
                w.station = g;
                all.push_back(w);
            }
        }
    }
    std::sort(all.begin(), all.end(),
              [](const ground::ContactWindow &a,
                 const ground::ContactWindow &b) {
                  return a.start < b.start;
              });
    return all;
}

/** Field-for-field equality, order included. */
inline void
expectWindowsIdentical(const std::vector<ground::ContactWindow> &actual,
                       const std::vector<ground::ContactWindow> &expected)
{
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i].satellite, expected[i].satellite) << "at " << i;
        EXPECT_EQ(actual[i].station, expected[i].station) << "at " << i;
        EXPECT_EQ(actual[i].start, expected[i].start) << "at " << i;
        EXPECT_EQ(actual[i].end, expected[i].end) << "at " << i;
    }
}

} // namespace kodan::testing

#endif // KODAN_TESTS_GROUND_CONTACT_ORACLE_HPP
