#include "sim/sharded_engine.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <limits>
#include <string>
#include <thread>

#include "common/logging.h"

namespace pc {

namespace {

constexpr std::uint64_t kNoLimit =
    std::numeric_limits<std::uint64_t>::max();

/** Windows a worker has finished, on its own cache line. 32 bits, so
 *  wait/notify use the futex directly. */
struct alignas(64) Progress
{
    std::atomic<std::uint32_t> windows{0};
};

std::string
describe(const ShardedEngine::PostSchedule &when)
{
    if (when.period <= SimTime::zero())
        return "never posts";
    return "posts every " + when.period.toString() + " from " +
        when.first.toString();
}

} // namespace

ShardedEngine::PostSchedule
ShardedEngine::PostSchedule::every(SimTime first, SimTime period)
{
    if (first < SimTime::zero() || period <= SimTime::zero())
        fatal("a post schedule needs a non-negative start and a "
              "positive period (got %s every %s)",
              first.toString().c_str(), period.toString().c_str());
    return PostSchedule{first, period};
}

bool
ShardedEngine::Channel::admits(SimTime sent) const
{
    if (!declared)
        return true;
    if (when.period <= SimTime::zero() || sent < when.first)
        return false;
    return (sent - when.first).toUsec() % when.period.toUsec() == 0;
}

ShardedEngine::ShardedEngine(int shards, SimTime lookahead)
    : lookahead_(lookahead)
{
    if (shards < 1)
        fatal("sharded engine needs at least one shard (got %d)",
              shards);
    if (lookahead <= SimTime::zero())
        fatal("sharded engine lookahead must be positive — it is the "
              "minimum cross-shard latency");
    const auto k = static_cast<std::size_t>(shards);
    sims_.reserve(k);
    for (int i = 0; i < shards; ++i)
        sims_.push_back(std::make_unique<Simulator>());
    mailboxes_.resize(k * k);
    channels_.resize(k * k);
    feeds_.assign(k, nullptr);
    lanes_.resize(k);
}

void
ShardedEngine::declare(int from, int to, PostSchedule when)
{
    if (from < 0 || from >= numShards() || to < 0 || to >= numShards() ||
        from == to)
        fatal("declare(%d -> %d) is not a cross-shard channel of [0, %d)",
              from, to, numShards());
    if (running_)
        fatal("channel schedules must be declared before run()");
    channel(from, to) = Channel{true, when};
}

void
ShardedEngine::setFeed(int from, Feed *feed)
{
    if (from < 0 || from >= numShards())
        fatal("setFeed(%d) outside [0, %d)", from, numShards());
    if (running_)
        fatal("feeds must be attached before run()");
    feeds_[static_cast<std::size_t>(from)] = feed;
}

void
ShardedEngine::post(int from, int to, SimTime at, Simulator::Callback fn)
{
    if (from < 0 || from >= numShards() || to < 0 || to >= numShards())
        fatal("post(%d -> %d) outside [0, %d)", from, to, numShards());
    if (from == to) {
        sims_[static_cast<std::size_t>(to)]->scheduleAt(at,
                                                        std::move(fn));
        return;
    }
    if (!running_)
        fatal("cross-shard post outside run(): setup must stay "
              "shard-local");
    const Lane &lane = lanes_[static_cast<std::size_t>(from)];
    // Only a window holding a declared post time syncs; a post at any
    // other time would reach a destination that may already have run
    // past its delivery point.
    const SimTime sent = sims_[static_cast<std::size_t>(from)]->now();
    if (const Channel &ch = channel(from, to); !ch.admits(sent))
        fatal("cross-shard post %d -> %d at %.6f s is outside the "
              "channel's declared schedule (%s): it would have needed "
              "the window ending at %.6f s to sync",
              from, to, sent.toSec(), describe(ch.when).c_str(),
              lane.windowEnd.toSec());
    // The conservative contract: the destination may already have
    // executed past any earlier instant. A delivery latency >= the
    // engine lookahead satisfies this by construction.
    if (at < lane.windowEnd)
        fatal("cross-shard post at %s violates the lookahead window "
              "ending at %s",
              at.toString().c_str(), lane.windowEnd.toString().c_str());
    const Feed *feed = feeds_[static_cast<std::size_t>(from)];
    Mailbox &box = mailbox(from, to);
    box.entries[lane.buffer].push_back(
        MailboxEntry{at, feed ? feed->sent() : 0, std::move(fn)});
    ++box.posted;
}

std::uint64_t
ShardedEngine::crossShardEvents() const
{
    std::uint64_t total = 0;
    for (const Mailbox &box : mailboxes_)
        total += box.posted;
    return total;
}

std::uint64_t
ShardedEngine::feedDeliveries() const
{
    std::uint64_t total = 0;
    for (const Lane &lane : lanes_)
        total += lane.fed;
    return total;
}

std::vector<bool>
ShardedEngine::planSyncs(SimTime deadline) const
{
    // Window k covers (now_ + k*L, now_ + (k+1)*L], the first one also
    // now_ itself, and the last one ends at the deadline.
    const std::int64_t span = (deadline - now_).toUsec();
    const std::int64_t len = lookahead_.toUsec();
    const std::int64_t windows = (span + len - 1) / len;
    if (windows > std::numeric_limits<std::uint32_t>::max())
        fatal("a run of %lld windows of %s is too long for one run() call",
              static_cast<long long>(windows), lookahead_.toString().c_str());
    std::vector<bool> sync(static_cast<std::size_t>(windows), false);
    for (int from = 0; from < numShards(); ++from) {
        for (int to = 0; to < numShards(); ++to) {
            if (from == to)
                continue;
            const Channel &ch =
                channels_[static_cast<std::size_t>(from) * sims_.size() +
                          static_cast<std::size_t>(to)];
            if (!ch.declared) {
                sync.assign(sync.size(), true);
                return sync;
            }
            const std::int64_t period = ch.when.period.toUsec();
            if (period <= 0)
                continue;
            std::int64_t t = (ch.when.first - now_).toUsec();
            if (t < 0)
                t += (-t + period - 1) / period * period;
            for (; t <= span; t += period)
                sync[static_cast<std::size_t>(t == 0 ? 0 : (t - 1) / len)] =
                    true;
        }
    }
    return sync;
}

void
ShardedEngine::receive(int to, SimTime end, bool mail, int buffer)
{
    Simulator &dst = *sims_[static_cast<std::size_t>(to)];
    Lane &lane = lanes_[static_cast<std::size_t>(to)];
    for (int from = 0; from < numShards(); ++from) {
        if (from == to)
            continue;
        Feed *feed = feeds_[static_cast<std::size_t>(from)];
        if (mail) {
            std::vector<MailboxEntry> &entries =
                mailbox(from, to).entries[buffer];
            for (MailboxEntry &entry : entries) {
                // Feed items the source sent before this post go first.
                if (feed)
                    lane.fed += feed->deliver(to, dst, end, entry.sent);
                dst.scheduleAt(entry.at, std::move(entry.fn));
            }
            entries.clear();
        }
        if (feed)
            lane.fed += feed->deliver(to, dst, end, kNoLimit);
    }
}

void
ShardedEngine::run(SimTime deadline, int workers)
{
    if (deadline <= now_)
        return;
    const int shards = numShards();
    if (shards == 1) {
        // No peer to wait for or deliver to: no window, no sync round.
        sims_.front()->runUntil(deadline);
        now_ = deadline;
        return;
    }
    workers = std::clamp(workers, 1, shards);

    const std::vector<bool> sync = planSyncs(deadline);
    const std::uint64_t firstRound = syncRounds_;
    syncRounds_ += static_cast<std::uint64_t>(
        std::count(sync.begin(), sync.end(), true));
    running_ = true;

    std::barrier<> barrier(workers);
    std::vector<Progress> progress(static_cast<std::size_t>(workers));
    // What a source's feed must have drawn before it runs window k:
    // through the end of window k + kMaxSkewWindows + 1, which the
    // skew bound below lets a destination's worker run as soon as the
    // source's worker has finished window k.
    const auto horizon = [&](std::uint64_t k) {
        const auto ahead =
            static_cast<std::int64_t>(k + kMaxSkewWindows + 2);
        return std::min(now_ + SimTime::usec(ahead * lookahead_.toUsec()),
                        deadline);
    };
    for (Feed *feed : feeds_)
        if (feed)
            feed->drawThrough(horizon(0));

    auto workerLoop = [&](int w) {
        std::uint64_t round = firstRound;
        // A lower bound on every other worker's finished windows.
        std::uint64_t slowest = 0;
        SimTime start = now_;
        for (std::uint64_t k = 0; k < sync.size(); ++k) {
            // Bounded skew: wait for the slowest worker before running
            // more than kMaxSkewWindows windows ahead of it.
            while (k > slowest + kMaxSkewWindows) {
                slowest = sync.size();
                std::size_t laggard = 0;
                for (std::size_t o = 0; o < progress.size(); ++o) {
                    const std::uint32_t done =
                        progress[o].windows.load(std::memory_order_acquire);
                    if (static_cast<int>(o) != w && done < slowest) {
                        slowest = done;
                        laggard = o;
                    }
                }
                if (k > slowest + kMaxSkewWindows)
                    progress[laggard].windows.wait(
                        static_cast<std::uint32_t>(slowest),
                        std::memory_order_acquire);
            }
            const SimTime end = std::min(start + lookahead_, deadline);
            const int buffer = static_cast<int>(round & 1);
            for (int s = w; s < shards; s += workers)
                if (Feed *feed = feeds_[static_cast<std::size_t>(s)])
                    feed->drawThrough(horizon(k));
            for (int s = w; s < shards; s += workers) {
                Lane &lane = lanes_[static_cast<std::size_t>(s)];
                lane.windowEnd = end;
                lane.buffer = buffer;
                sims_[static_cast<std::size_t>(s)]->runUntil(end);
                if (!sync[k])
                    receive(s, end, false, buffer);
            }
            if (sync[k]) {
                // Every source has run this window: drain the round's
                // buffer into each owned shard before running on, while
                // the next round's posts go to the other buffer.
                barrier.arrive_and_wait();
                for (int d = w; d < shards; d += workers)
                    receive(d, end, true, buffer);
                ++round;
            }
            progress[static_cast<std::size_t>(w)].windows.store(
                static_cast<std::uint32_t>(k + 1),
                std::memory_order_release);
            progress[static_cast<std::size_t>(w)].windows.notify_all();
            start = end;
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(workers - 1));
    for (int w = 1; w < workers; ++w)
        threads.emplace_back(workerLoop, w);
    workerLoop(0);
    for (std::thread &t : threads)
        t.join();
    now_ = deadline;
    running_ = false;
}

} // namespace pc
