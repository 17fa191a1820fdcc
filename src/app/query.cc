#include "app/query.h"

#include <new>

#include "common/logging.h"

namespace pc {

const WorkDemand &
Query::demand(int stage) const
{
    if (stage < 0 || stage >= numStages())
        panic("query %lld: demand for stage %d of %d",
              static_cast<long long>(id_), stage, numStages());
    return demands_[static_cast<std::size_t>(stage)];
}

void
Query::reset(std::int64_t id, SimTime arrival,
             std::span<const WorkDemand> demands)
{
    id_ = id;
    arrival_ = arrival;
    completed_ = SimTime();
    done_ = false;
    outstandingShards_ = 0;
    demands_.assign(demands.begin(), demands.end());
    cols_.clear();
    cols_.reserve(demands_.size());
}

QuerySlab::~QuerySlab()
{
    for (void *block : freeBlocks_)
        ::operator delete(block);
}

QueryPtr
QuerySlab::make(std::int64_t id, SimTime arrival,
                std::span<const WorkDemand> demands)
{
    Query *q;
    if (freeQueries_.empty()) {
        slots_.push_back(std::unique_ptr<Query>(new Query));
        q = slots_.back().get();
        q->slab_ = this;
        // recycle() must never grow the free list.
        if (freeQueries_.capacity() < slots_.size())
            freeQueries_.reserve(slots_.capacity());
    } else {
        q = freeQueries_.back();
        freeQueries_.pop_back();
    }
    q->reset(id, arrival, demands);
    ++live_;
    return QueryPtr(q);
}

void
QuerySlab::recycle(Query *q) noexcept
{
    freeQueries_.push_back(q);
    dropLive();
}

void *
QuerySlab::allocateBlock(std::size_t bytes)
{
    if (blockBytes_ == 0)
        blockBytes_ = bytes;
    else if (bytes != blockBytes_)
        panic("query slab: block of %zu bytes, the slab's are %zu", bytes,
              blockBytes_);
    ++live_;
    if (freeBlocks_.empty()) {
        // deallocateBlock() must never grow the free list.
        if (freeBlocks_.capacity() < ++blocks_)
            freeBlocks_.reserve(2 * blocks_);
        return ::operator new(bytes);
    }
    void *block = freeBlocks_.back();
    freeBlocks_.pop_back();
    return block;
}

void
QuerySlab::deallocateBlock(void *block) noexcept
{
    freeBlocks_.push_back(block);
    dropLive();
}

void
QuerySlab::retire() noexcept
{
    retired_ = true;
    if (live_ == 0)
        delete this;
}

void
QuerySlab::dropLive() noexcept
{
    if (--live_ == 0 && retired_)
        delete this;
}

} // namespace pc
