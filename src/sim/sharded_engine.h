/**
 * @file
 * Conservative time-window parallel discrete-event engine.
 *
 * A ShardedEngine owns K independent Simulators ("shards"), each with
 * its own slab event pool and binary heap, and advances them together
 * in fixed windows of length `lookahead` — the minimum latency of any
 * cross-shard interaction. Because no shard can affect another sooner
 * than one lookahead into the future, every shard may execute a whole
 * window without observing its peers (the classic conservative
 * null-message-free synchronization of windowed PDES).
 *
 * Cross-shard events travel through per-(src,dst) mailboxes:
 *
 *   - During window execution only the worker that owns `src` appends
 *     to mailbox (src,dst) — writes are single-producer by
 *     construction.
 *   - After a barrier, only the worker that owns `dst` drains its
 *     column, in ascending src order, scheduling the entries into
 *     dst's simulator — reads are single-consumer, and the barrier
 *     provides the happens-before edge, so no mailbox ever needs a
 *     lock.
 *
 * Determinism: the window boundaries, the shard→window execution, and
 * the mailbox drain order are all pure functions of (K, lookahead,
 * deadline) — none depends on the worker count. Worker threads only
 * change *which OS thread* runs a shard, never *what* it runs, so a
 * run is bit-identical at any worker count, including 1.
 */

#ifndef PC_SIM_SHARDED_ENGINE_H
#define PC_SIM_SHARDED_ENGINE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/simulator.h"

namespace pc {

class ShardedEngine
{
  public:
    /**
     * @param shards number of logical shards (fixed by the scenario
     *        topology, NOT by the worker count).
     * @param lookahead the conservative window length: the minimum
     *        latency of any cross-shard event. post() rejects
     *        deliveries sooner than the end of the current window.
     */
    ShardedEngine(int shards, SimTime lookahead);

    int numShards() const { return static_cast<int>(sims_.size()); }
    SimTime lookahead() const { return lookahead_; }

    Simulator &shard(int i) { return *sims_[static_cast<std::size_t>(i)]; }
    const Simulator &shard(int i) const
    {
        return *sims_[static_cast<std::size_t>(i)];
    }

    /** Global window start; equals every shard's clock at barriers. */
    SimTime now() const { return now_; }

    /**
     * Deliver @p fn into shard @p to at time @p at.
     *
     * Must be called from code executing on shard @p from inside
     * run(), with `at` no earlier than the end of the current window —
     * the conservative contract (any cross-shard latency >= lookahead
     * satisfies it automatically). A same-shard post schedules
     * directly.
     */
    void post(int from, int to, SimTime at, Simulator::Callback fn);

    /**
     * Advance all shards to @p deadline using @p workers threads
     * (clamped to [1, shards]). Shard i is executed by worker
     * i % workers, lowest-index shards first — a static assignment, so
     * the execution is identical at any worker count.
     */
    void run(SimTime deadline, int workers);

    /** Total events that crossed shards via post() so far. */
    std::uint64_t crossShardEvents() const;

  private:
    struct MailboxEntry
    {
        SimTime at;
        Simulator::Callback fn;
    };

    /**
     * One (src,dst) channel. Padded out to a cache line so the
     * producer of one column never false-shares with the producer of
     * the next.
     */
    struct alignas(64) Mailbox
    {
        std::vector<MailboxEntry> entries;
        std::uint64_t posted = 0;
    };
    static_assert(sizeof(Mailbox) == 64,
                  "a mailbox must fill exactly one cache line");

    Mailbox &mailbox(int from, int to)
    {
        return mailboxes_[static_cast<std::size_t>(from) *
                              sims_.size() +
                          static_cast<std::size_t>(to)];
    }

    std::vector<std::unique_ptr<Simulator>> sims_;
    std::vector<Mailbox> mailboxes_;
    SimTime lookahead_;
    SimTime now_;

    // Window state shared by the workers of one run() call. Written
    // only in barrier completion steps (exclusive), read after the
    // barrier — the barrier itself is the synchronization.
    SimTime windowEnd_;
    SimTime deadline_;
    bool done_ = false;
    bool running_ = false;
};

} // namespace pc

#endif // PC_SIM_SHARDED_ENGINE_H
