/**
 * @file
 * Queries and the extended latency-record structure.
 *
 * The paper's service/query joint design (§4.1, Fig. 6) extends the query
 * data structure so every service instance appends its signature plus the
 * queuing and serving time it charged the query. The record rides along
 * with the query and is reported to the command center only when the
 * query exits the last stage — no global clock, no per-hop RPCs.
 */

#ifndef PC_APP_QUERY_H
#define PC_APP_QUERY_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/time.h"

namespace pc {

/**
 * The computational demand a query places on one stage.
 *
 * Service time on a core at frequency f decomposes into a frequency-
 * insensitive part (memory/IO bound) and a compute part that scales as
 * 1/f. cpuSecAtRef is expressed at the ladder's reference (minimum)
 * frequency, so the compute part at frequency f takes
 * cpuSecAtRef * f_ref / f seconds.
 */
struct WorkDemand
{
    double cpuSecAtRef = 0.0;
    double memSec = 0.0;

    /**
     * Query does not exercise this stage at all (e.g. a Sirius voice
     * query with no image input skips IMM, Fig. 8); the pipeline routes
     * it straight to the next stage.
     */
    bool skip = false;

    /** Service time in seconds at frequency @p mhz (ref @p refMhz). */
    double
    serviceSec(int mhz, int refMhz) const
    {
        return memSec + cpuSecAtRef * static_cast<double>(refMhz) / mhz;
    }
};

/**
 * One per-instance entry of the extended query structure (Fig. 6),
 * plus the causal metadata the critical-path layer (obs/critpath.h)
 * needs: fan-out shard linkage, the frequency the instance actually
 * served at, and wasted-segment annotations from the fault layer.
 */
struct HopRecord
{
    std::int64_t instanceId = -1;
    int stageIndex = -1;
    SimTime enqueued;
    SimTime started;
    SimTime finished;

    /** Shard position within a FanOut dispatch; -1/0 = not sharded. */
    int shardIndex = -1;
    int shardCount = 0;

    /** Frequency (MHz) the instance ran at when the hop finished. */
    int servedMhz = 0;

    /** The instance was frequency-boosted while serving this hop. */
    bool boosted = false;

    /**
     * Service lost to an instance crash: the query was re-dispatched
     * and this hop's serving time never contributed to completion.
     * Wasted hops are excluded from bottleneck/latency statistics and
     * only consumed by the critical-path segmentation.
     */
    bool wasted = false;

    SimTime queuing() const { return started - enqueued; }
    SimTime serving() const { return finished - started; }
};

/**
 * Structure-of-arrays storage for a query's hop records.
 *
 * The per-hop append on the service hot path writes packed parallel
 * columns (timestamps, stage ids, flags) living in ONE heap slab at
 * computed offsets — one allocation per query slot (kept when a
 * QuerySlab reuses the slot) instead of a vector of 64-byte AoS
 * records, and each column write touches contiguous bytes. Readers
 * take one row at a time, in place, via row().
 */
class HopColumns
{
  public:
    HopColumns() = default;

    explicit HopColumns(std::size_t capacity)
    {
        if (capacity > 0)
            grow(capacity);
    }

    HopColumns(HopColumns &&) = default;
    HopColumns &operator=(HopColumns &&) = default;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Drop every row, keeping the slab for reuse. */
    void clear() { size_ = 0; }

    /** Room for @p n rows without a further allocation. */
    void
    reserve(std::size_t n)
    {
        if (n > cap_)
            grow(n);
    }

    void
    append(const HopRecord &hop)
    {
        if (size_ == cap_)
            grow(cap_ ? cap_ * 2 : 4);
        const std::size_t i = size_++;
        col<std::int64_t>(kInstanceId)[i] = hop.instanceId;
        col<std::int64_t>(kEnqueued)[i] = hop.enqueued.toUsec();
        col<std::int64_t>(kStarted)[i] = hop.started.toUsec();
        col<std::int64_t>(kFinished)[i] = hop.finished.toUsec();
        col<std::int32_t>(kStage)[i] = hop.stageIndex;
        col<std::int32_t>(kShardIndex)[i] = hop.shardIndex;
        col<std::int32_t>(kShardCount)[i] = hop.shardCount;
        col<std::int32_t>(kServedMhz)[i] = hop.servedMhz;
        col<std::uint8_t>(kFlags)[i] = static_cast<std::uint8_t>(
            (hop.boosted ? 1u : 0u) | (hop.wasted ? 2u : 0u));
    }

    /** Materialize row @p i back into a full HopRecord. */
    HopRecord
    row(std::size_t i) const
    {
        HopRecord hop;
        hop.instanceId = col<std::int64_t>(kInstanceId)[i];
        hop.enqueued = SimTime::usec(col<std::int64_t>(kEnqueued)[i]);
        hop.started = SimTime::usec(col<std::int64_t>(kStarted)[i]);
        hop.finished = SimTime::usec(col<std::int64_t>(kFinished)[i]);
        hop.stageIndex = col<std::int32_t>(kStage)[i];
        hop.shardIndex = col<std::int32_t>(kShardIndex)[i];
        hop.shardCount = col<std::int32_t>(kShardCount)[i];
        hop.servedMhz = col<std::int32_t>(kServedMhz)[i];
        const std::uint8_t flags = col<std::uint8_t>(kFlags)[i];
        hop.boosted = (flags & 1u) != 0;
        hop.wasted = (flags & 2u) != 0;
        return hop;
    }

  private:
    // Column order = descending alignment, so every column stays
    // naturally aligned at any capacity.
    enum Column {
        kInstanceId,
        kEnqueued,
        kStarted,
        kFinished,   // int64 columns
        kStage,
        kShardIndex,
        kShardCount,
        kServedMhz,  // int32 columns
        kFlags,      // uint8 column
        kNumColumns,
    };

    static std::size_t
    columnOffset(Column c, std::size_t cap)
    {
        const std::size_t i64 = sizeof(std::int64_t) * cap;
        const std::size_t i32 = sizeof(std::int32_t) * cap;
        switch (c) {
          case kInstanceId: return 0;
          case kEnqueued: return i64;
          case kStarted: return 2 * i64;
          case kFinished: return 3 * i64;
          case kStage: return 4 * i64;
          case kShardIndex: return 4 * i64 + i32;
          case kShardCount: return 4 * i64 + 2 * i32;
          case kServedMhz: return 4 * i64 + 3 * i32;
          case kFlags: return 4 * i64 + 4 * i32;
          case kNumColumns: break;
        }
        return 0;
    }

    static std::size_t
    slabBytes(std::size_t cap)
    {
        return columnOffset(kFlags, cap) + sizeof(std::uint8_t) * cap;
    }

    template <typename T>
    T *
    col(Column c)
    {
        return reinterpret_cast<T *>(slab_.get() +
                                     columnOffset(c, cap_));
    }

    template <typename T>
    const T *
    col(Column c) const
    {
        return reinterpret_cast<const T *>(slab_.get() +
                                           columnOffset(c, cap_));
    }

    void
    grow(std::size_t cap)
    {
        std::unique_ptr<std::byte[]> slab(new std::byte[slabBytes(cap)]);
        HopColumns grown;
        grown.slab_ = std::move(slab);
        grown.cap_ = cap;
        grown.size_ = size_;
        if (size_ > 0) {
            copyColumn<std::int64_t>(grown, kInstanceId);
            copyColumn<std::int64_t>(grown, kEnqueued);
            copyColumn<std::int64_t>(grown, kStarted);
            copyColumn<std::int64_t>(grown, kFinished);
            copyColumn<std::int32_t>(grown, kStage);
            copyColumn<std::int32_t>(grown, kShardIndex);
            copyColumn<std::int32_t>(grown, kShardCount);
            copyColumn<std::int32_t>(grown, kServedMhz);
            copyColumn<std::uint8_t>(grown, kFlags);
        }
        *this = std::move(grown);
    }

    template <typename T>
    void
    copyColumn(HopColumns &to, Column c) const
    {
        const T *src = col<T>(c);
        T *dst = to.col<T>(c);
        for (std::size_t i = 0; i < size_; ++i)
            dst[i] = src[i];
    }

    std::unique_ptr<std::byte[]> slab_;
    std::size_t size_ = 0;
    std::size_t cap_ = 0;
};

class QuerySlab;

class Query
{
  public:
    /**
     * A standalone query, for callers that own it outright; no handle
     * can hold one. Queries that travel a node stack come from a
     * QuerySlab.
     */
    Query(std::int64_t id, SimTime arrival, std::vector<WorkDemand> demands)
        : id_(id), arrival_(arrival), demands_(std::move(demands)),
          // One hop per stage in the common case; sizing the column
          // slab up front keeps the per-hop append on the stat path
          // allocation-free.
          cols_(demands_.size())
    {
    }

    Query(const Query &) = delete;
    Query &operator=(const Query &) = delete;

    std::int64_t id() const { return id_; }
    SimTime arrival() const { return arrival_; }

    const WorkDemand &demand(int stage) const;
    int numStages() const { return static_cast<int>(demands_.size()); }

    /** Append a completed hop's latency statistics (SoA columns). */
    void addHop(const HopRecord &hop) { cols_.append(hop); }

    std::size_t numHops() const { return cols_.size(); }

    /** Hop @p i, read in place from the columns (i < numHops()). */
    HopRecord hop(std::size_t i) const { return cols_.row(i); }

    void markCompleted(SimTime t) { completed_ = t; done_ = true; }
    bool completed() const { return done_; }

    /** End-to-end response latency; only valid once completed. */
    SimTime endToEnd() const { return completed_ - arrival_; }

    /**
     * Fan-out bookkeeping: shards of the current fan-out stage still
     * in service or queued. Set when the stage shards the query and
     * counted down as shards return.
     */
    int outstandingShards() const { return outstandingShards_; }
    void setOutstandingShards(int n) { outstandingShards_ = n; }
    /** One shard returned; @return the shards still outstanding. */
    int shardReturned() { return --outstandingShards_; }

  private:
    friend class QueryPtr;
    friend class QuerySlab;

    Query() = default;

    /** Reuse this slot for a new query, keeping every capacity. */
    void reset(std::int64_t id, SimTime arrival,
               std::span<const WorkDemand> demands);

    /** Drop one handle; the last one returns the query to its slab. */
    void release();

    std::int64_t id_ = 0;
    SimTime arrival_;
    SimTime completed_;
    bool done_ = false;
    int outstandingShards_ = 0;
    std::vector<WorkDemand> demands_;
    HopColumns cols_;

    /** Live handles (QueryPtr) to this query. */
    int refs_ = 0;
    /** The slab that recycles this query (null when standalone). */
    QuerySlab *slab_ = nullptr;
};

/**
 * A counted handle to a Query. The count is intrusive, so copying a
 * handle never allocates; the last handle returns the query to its
 * slab, the only place handles come from. A query and its handles stay
 * on one thread.
 */
class QueryPtr
{
  public:
    QueryPtr() = default;
    QueryPtr(std::nullptr_t) {}
    QueryPtr(const QueryPtr &o) : q_(o.q_) { retain(); }
    QueryPtr(QueryPtr &&o) noexcept : q_(std::exchange(o.q_, nullptr)) {}

    QueryPtr &
    operator=(QueryPtr o) noexcept
    {
        std::swap(q_, o.q_);
        return *this;
    }

    ~QueryPtr() { reset(); }

    void
    reset()
    {
        if (Query *q = std::exchange(q_, nullptr))
            q->release();
    }

    Query *get() const { return q_; }
    Query &operator*() const { return *q_; }
    Query *operator->() const { return q_; }
    explicit operator bool() const { return q_ != nullptr; }

    friend bool
    operator==(const QueryPtr &a, const QueryPtr &b)
    {
        return a.q_ == b.q_;
    }

  private:
    friend class QuerySlab;

    explicit QueryPtr(Query *q) : q_(q) { retain(); }

    void
    retain()
    {
        if (q_)
            ++q_->refs_;
    }

    Query *q_ = nullptr;
};

/**
 * A node stack's run-scoped pool of queries and of the fixed-size
 * blocks their completion messages live in (SlabAllocator).
 *
 * make() reuses a released query with its demand and hop-column
 * capacity, so once the pool has grown to the number of queries in
 * flight, building, reporting and releasing a query allocates nothing.
 * Everything the slab handed out counts as live; the slab frees itself
 * and all it holds once its owner has let go (Owner) and nothing is
 * live any more, so a handle held by a pending event may outlive the
 * owning stack safely. One thread uses a slab at a time.
 */
class QuerySlab
{
  public:
    struct Retire
    {
        void operator()(QuerySlab *slab) const { slab->retire(); }
    };
    using Owner = std::unique_ptr<QuerySlab, Retire>;

    static Owner create() { return Owner(new QuerySlab); }

    QuerySlab(const QuerySlab &) = delete;
    QuerySlab &operator=(const QuerySlab &) = delete;

    /** A query with @p demands copied in, from a free slot if any. */
    QueryPtr make(std::int64_t id, SimTime arrival,
                  std::span<const WorkDemand> demands);

    /** Queries and blocks handed out and not yet returned. */
    std::size_t live() const { return live_; }

    /** Query slots ever built (the pool's high-water mark). */
    std::size_t slots() const { return slots_.size(); }

    /**
     * One block of @p bytes, from the free list if any. Every block
     * of a slab has the same size (one message type uses them).
     */
    void *allocateBlock(std::size_t bytes);
    void deallocateBlock(void *block) noexcept;

  private:
    friend class Query;

    QuerySlab() = default;
    ~QuerySlab();

    /** The last handle to @p q is gone: keep the slot for reuse. */
    void recycle(Query *q) noexcept;
    /** The owner let go: free now, or when the last live item returns. */
    void retire() noexcept;
    void dropLive() noexcept;

    std::vector<std::unique_ptr<Query>> slots_;
    std::vector<Query *> freeQueries_;
    std::vector<void *> freeBlocks_;
    std::size_t blocks_ = 0;
    std::size_t blockBytes_ = 0;
    std::size_t live_ = 0;
    bool retired_ = false;
};

/**
 * std::allocate_shared allocator drawing from a QuerySlab's blocks, so
 * a shared_ptr payload (the completion message) costs no allocation
 * once the slab has as many blocks as are in flight.
 */
template <typename T>
struct SlabAllocator
{
    using value_type = T;

    explicit SlabAllocator(QuerySlab *s) : slab(s) {}
    template <typename U>
    SlabAllocator(const SlabAllocator<U> &o) : slab(o.slab)
    {
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(slab->allocateBlock(n * sizeof(T)));
    }

    void deallocate(T *p, std::size_t) noexcept
    {
        slab->deallocateBlock(p);
    }

    template <typename U>
    bool
    operator==(const SlabAllocator<U> &o) const
    {
        return slab == o.slab;
    }

    QuerySlab *slab;
};

inline void
Query::release()
{
    if (--refs_ == 0)
        slab_->recycle(this);
}

} // namespace pc

#endif // PC_APP_QUERY_H
