/**
 * @file
 * Queries for unit tests that drive instances, stages and apps by hand.
 *
 * Every QueryPtr comes from a QuerySlab. Tests that are not about the
 * slab take their queries from this one, which lives as long as the
 * test binary; gtest runs the tests of a binary on one thread.
 */

#ifndef PC_TESTS_TEST_QUERY_SLAB_H
#define PC_TESTS_TEST_QUERY_SLAB_H

#include <cstdint>
#include <vector>

#include "app/query.h"

namespace pc {

/** A query with @p demands, from the test binary's shared slab. */
inline QueryPtr
testQuery(std::int64_t id, SimTime arrival,
          const std::vector<WorkDemand> &demands)
{
    static const QuerySlab::Owner slab = QuerySlab::create();
    return slab->make(id, arrival, demands);
}

} // namespace pc

#endif // PC_TESTS_TEST_QUERY_SLAB_H
