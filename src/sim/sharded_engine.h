/**
 * @file
 * Conservative time-window parallel discrete-event engine that syncs
 * shards only where traffic can cross.
 *
 * A ShardedEngine owns K independent Simulators ("shards"), each with
 * its own slab event pool and binary heap, and advances each of them
 * through the same windows of length `lookahead` — the minimum latency
 * of any cross-shard interaction. Because no shard can affect another
 * sooner than one lookahead into the future, a shard may execute a
 * whole window without observing its peers.
 *
 * Cross-shard traffic arrives in one of two ways:
 *
 *   - A Feed: traffic a source knows ahead of time (the open-loop
 *     spray). After running window k, a destination pulls the items
 *     the source sends in window k straight from the feed. No shard
 *     waits for another.
 *   - post(), through per-(src,dst) mailboxes, for traffic that
 *     depends on simulation state. Each channel declares when it can
 *     post (a PostSchedule); an undeclared channel may post at any
 *     time. Only a window that holds a declared post time, or every
 *     window when some channel is undeclared, is a sync window: every
 *     worker runs it, meets the others at one barrier, and then drains
 *     the mailbox columns of its own shards before running on. The
 *     mailboxes are double-buffered by sync round, so sources write the
 *     next round's buffer while destinations drain this one, and a
 *     post() outside its channel's schedule is fatal.
 *
 * Either way a destination inserts window k's deliveries after its own
 * runUntil(end_k) and before it runs window k+1, ascending by source;
 * a source's mailbox posts and feed items interleave in the order the
 * source sent them. Outside sync windows a worker may run ahead of the
 * others, but never by more than kMaxSkewWindows windows. So before
 * each window the source's thread draws its feed through the farthest
 * window a destination may run before the source's next window, and a
 * destination only ever reads what is drawn: it never waits for, or
 * draws on behalf of, a source.
 *
 * Determinism: the windows, the sync windows, the shard→window
 * execution and the delivery order are all pure functions of (K,
 * lookahead, schedules, deadline) — none depends on the worker count.
 * Worker threads only change *which OS thread* runs a shard, never
 * *what* it runs, so a run is bit-identical at any worker count,
 * including 1.
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
    /** When a channel can post: at source times first + j * period,
     *  j >= 0. A zero period means never. */
    struct PostSchedule
    {
        SimTime first;
        SimTime period;

        static PostSchedule never() { return {}; }
        static PostSchedule every(SimTime first, SimTime period);
    };

    /**
     * Cross-shard items one source shard knows ahead of time. The
     * engine calls sent() and drawThrough() on the source's thread
     * (drawThrough() also on run()'s caller before the workers start)
     * and deliver() on the destination's.
     */
    class Feed
    {
      public:
        virtual ~Feed() = default;

        /** Items the source has sent so far. */
        virtual std::uint64_t sent() const = 0;

        /**
         * Make every item the source sends at or before @p until
         * deliverable. The engine calls it before the source runs each
         * window, with a horizon past any window a destination can
         * reach before the source's next call, so deliver() never
         * needs the source's thread.
         */
        virtual void drawThrough(SimTime) {}

        /**
         * Schedule into @p sim (shard @p to's simulator), in send
         * order, the items for @p to that the source sends at or before
         * @p until, stopping before send ordinal @p limit.
         *
         * @return the number of items scheduled.
         */
        virtual std::uint64_t deliver(int to, Simulator &sim,
                                      SimTime until,
                                      std::uint64_t limit) = 0;
    };

    /** How far a worker may run ahead of the slowest one. */
    static constexpr std::uint64_t kMaxSkewWindows = 16;

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

    /** Where the last run() stopped; every shard's clock between runs. */
    SimTime now() const { return now_; }

    /** Declare when channel (@p from, @p to) can post (before run()). */
    void declare(int from, int to, PostSchedule when);

    /** Attach shard @p from's feed (before run()); not owned. */
    void setFeed(int from, Feed *feed);

    /**
     * Deliver @p fn into shard @p to at time @p at.
     *
     * Must be called from code executing on shard @p from inside
     * run(), at a source time the channel's schedule admits, with `at`
     * no earlier than the end of the current window — the conservative
     * contract (any cross-shard latency >= lookahead satisfies it
     * automatically). A same-shard post schedules directly.
     */
    void post(int from, int to, SimTime at, Simulator::Callback fn);

    /**
     * Advance all shards to @p deadline using @p workers threads
     * (clamped to [1, shards]). Shard i is executed by worker
     * i % workers, lowest-index shards first — a static assignment, so
     * the execution is identical at any worker count. A single shard
     * runs straight through to the deadline on the calling thread,
     * exactly as its Simulator's own runUntil() would.
     */
    void run(SimTime deadline, int workers);

    /** Total events that crossed shards via post() so far. */
    std::uint64_t crossShardEvents() const;

    /** Total items delivered from feeds so far. */
    std::uint64_t feedDeliveries() const;

    /** Barrier rounds (sync windows) executed so far. */
    std::uint64_t syncRounds() const { return syncRounds_; }

  private:
    struct MailboxEntry
    {
        SimTime at;
        /** The source feed's sent() at post time. */
        std::uint64_t sent;
        Simulator::Callback fn;
    };

    /**
     * One (src,dst) channel, double-buffered by sync-round parity.
     * Padded out to a cache line so the producer of one column never
     * false-shares with the producer of the next.
     */
    struct alignas(64) Mailbox
    {
        std::vector<MailboxEntry> entries[2];
        std::uint64_t posted = 0;
    };
    static_assert(sizeof(Mailbox) == 64,
                  "a mailbox must fill exactly one cache line");

    /** Per-shard window state, written only by the shard's worker. */
    struct alignas(64) Lane
    {
        SimTime windowEnd;
        int buffer = 0;
        std::uint64_t fed = 0;
    };

    struct Channel
    {
        bool declared = false;
        PostSchedule when;

        bool admits(SimTime sent) const;
    };

    Mailbox &mailbox(int from, int to)
    {
        return mailboxes_[static_cast<std::size_t>(from) *
                              sims_.size() +
                          static_cast<std::size_t>(to)];
    }
    Channel &channel(int from, int to)
    {
        return channels_[static_cast<std::size_t>(from) * sims_.size() +
                         static_cast<std::size_t>(to)];
    }

    /** Which of the windows from now_ to @p deadline must sync. */
    std::vector<bool> planSyncs(SimTime deadline) const;

    /**
     * Insert the deliveries of the window ending at @p end into shard
     * @p to: ascending by source, the mailbox entries of @p buffer (if
     * @p mail) interleaved with the source's feed in send order.
     */
    void receive(int to, SimTime end, bool mail, int buffer);

    std::vector<std::unique_ptr<Simulator>> sims_;
    std::vector<Mailbox> mailboxes_;
    std::vector<Channel> channels_;
    std::vector<Feed *> feeds_;
    std::vector<Lane> lanes_;
    SimTime lookahead_;
    SimTime now_;
    std::uint64_t syncRounds_ = 0;
    bool running_ = false;
};

} // namespace pc

#endif // PC_SIM_SHARDED_ENGINE_H
