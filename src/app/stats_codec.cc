#include "app/stats_codec.h"

#include "rpc/wire.h"

namespace pc {

QueryStatsRecord
statsOf(const Query &query)
{
    QueryStatsRecord record;
    record.queryId = query.id();
    record.arrival = query.arrival();
    record.completed = query.completed()
        ? query.arrival() + query.endToEnd()
        : query.arrival();
    record.hops.reserve(query.numHops());
    for (std::size_t i = 0; i < query.numHops(); ++i)
        record.hops.push_back(query.hop(i));
    return record;
}

std::vector<std::uint8_t>
encodeStats(const QueryStatsRecord &record)
{
    WireWriter w;
    w.putSigned(record.queryId);
    w.putSigned(record.arrival.toUsec());
    w.putSigned(record.completed.toUsec());
    w.putVarint(record.hops.size());
    for (const auto &hop : record.hops) {
        w.putSigned(hop.instanceId);
        w.putSigned(hop.stageIndex);
        w.putSigned(hop.enqueued.toUsec());
        w.putSigned(hop.started.toUsec());
        w.putSigned(hop.finished.toUsec());
        // Causal metadata (critical-path layer): frequency context,
        // wasted/boosted flags and the fan-out shard linkage.
        w.putSigned(hop.servedMhz);
        w.putVarint((hop.wasted ? 1u : 0u) | (hop.boosted ? 2u : 0u));
        w.putSigned(hop.shardIndex);
        w.putSigned(hop.shardCount);
    }
    return w.take();
}

std::optional<QueryStatsRecord>
decodeStats(const std::vector<std::uint8_t> &bytes)
{
    WireReader r(bytes);
    QueryStatsRecord record;
    std::int64_t arrival = 0;
    std::int64_t completed = 0;
    std::uint64_t hopCount = 0;
    if (!r.getSigned(&record.queryId) || !r.getSigned(&arrival) ||
        !r.getSigned(&completed) || !r.getVarint(&hopCount))
        return std::nullopt;
    record.arrival = SimTime::usec(arrival);
    record.completed = SimTime::usec(completed);

    // Sanity bound: a hop is at least 5 wire bytes.
    if (hopCount > bytes.size())
        return std::nullopt;
    record.hops.reserve(hopCount);
    for (std::uint64_t i = 0; i < hopCount; ++i) {
        HopRecord hop;
        std::int64_t stage = 0;
        std::int64_t enq = 0;
        std::int64_t start = 0;
        std::int64_t fin = 0;
        std::int64_t mhz = 0;
        std::uint64_t flags = 0;
        std::int64_t shardIndex = 0;
        std::int64_t shardCount = 0;
        if (!r.getSigned(&hop.instanceId) || !r.getSigned(&stage) ||
            !r.getSigned(&enq) || !r.getSigned(&start) ||
            !r.getSigned(&fin) || !r.getSigned(&mhz) ||
            !r.getVarint(&flags) || !r.getSigned(&shardIndex) ||
            !r.getSigned(&shardCount))
            return std::nullopt;
        if (flags > 3u)
            return std::nullopt;
        hop.stageIndex = static_cast<int>(stage);
        hop.enqueued = SimTime::usec(enq);
        hop.started = SimTime::usec(start);
        hop.finished = SimTime::usec(fin);
        hop.servedMhz = static_cast<int>(mhz);
        hop.wasted = (flags & 1u) != 0;
        hop.boosted = (flags & 2u) != 0;
        hop.shardIndex = static_cast<int>(shardIndex);
        hop.shardCount = static_cast<int>(shardCount);
        record.hops.push_back(hop);
    }
    if (!r.ok() || !r.exhausted())
        return std::nullopt;
    return record;
}

} // namespace pc
