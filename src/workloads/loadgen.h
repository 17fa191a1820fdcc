/**
 * @file
 * Open-loop load generation.
 *
 * The paper's load generator "submits user queries following Poisson
 * distribution" (§8.1) at three representative levels, plus the
 * time-varying load that drives the Fig. 11 runtime-behaviour study.
 * LoadProfile describes λ(t); LoadGenerator draws a (possibly
 * non-homogeneous, via thinning) Poisson arrival process from it.
 */

#ifndef PC_WORKLOADS_LOADGEN_H
#define PC_WORKLOADS_LOADGEN_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "app/pipeline.h"
#include "common/rng.h"
#include "sim/simulator.h"
#include "workloads/profiles.h"

namespace pc {

/** The three representative levels of §8.1. */
enum class LoadLevel { Low, Medium, High };

const char *toString(LoadLevel level);

/**
 * Arrival-rate curve λ(t) in queries per second.
 * Piecewise-linear between control points; constant outside them.
 */
class LoadProfile
{
  public:
    struct Point
    {
        SimTime t;
        double qps;
    };

    /** Constant rate. */
    static LoadProfile constant(double qps);

    /** Piecewise-linear through the given (time, qps) points. */
    static LoadProfile piecewise(std::vector<Point> points);

    /**
     * The paper's representative levels, scaled to a workload: rates
     * are fractions of the single-instance bottleneck capacity at the
     * ladder's middle frequency (the Table 2 baseline setup).
     *   Low = 0.35x, Medium = 0.75x, High = 1.30x.
     */
    static LoadProfile forLevel(const WorkloadModel &model,
                                LoadLevel level, int midMhz);

    /** Load multiplier for a level (exposed for reporting). */
    static double levelFraction(LoadLevel level);

    /**
     * The Fig. 11 scenario: high load, a low-load valley between 175 s
     * and 275 s, then rising load again — expressed as fractions of the
     * mid-frequency bottleneck capacity.
     */
    static LoadProfile fig11(const WorkloadModel &model, int midMhz);

    /** A smooth day-like wave between @p loQps and @p hiQps. */
    static LoadProfile diurnal(double loQps, double hiQps,
                               SimTime period);

    double rateAt(SimTime t) const;

    /**
     * The same curve with every rate multiplied by @p factor (>= 0).
     * The sharded runner uses this for per-node-group load skew
     * (Scenario::groupLoadScale).
     */
    LoadProfile scaled(double factor) const;

    /** Upper bound of λ(t) used by the thinning sampler. */
    double maxRate() const { return maxRate_; }

  private:
    LoadProfile() = default;

    std::vector<Point> points_;
    // Sinusoidal mode (diurnal); used when period_ > 0.
    double lo_ = 0.0;
    double hi_ = 0.0;
    SimTime period_;
    double maxRate_ = 0.0;
};

/**
 * A LoadGenerator's open-loop arrivals, drawn ahead of the simulation
 * in chunks of up to kChunkArrivals arrivals.
 *
 * Every arrival — its time, query id, per-stage demands and the node
 * group that serves it — is a pure function of the seeds: the
 * arrivals come from the generator's own RNG streams and the router
 * from its own, and none of them reads simulation state. One thread,
 * the generator's own, draws every chunk: its reader draws the next
 * chunk when it needs it, and drawThrough() draws ahead for the
 * others. Each chunk is published to the other readers with a release
 * store of its predecessor's link, so reading never takes a lock and
 * never waits. Readers are independent cursors (one per node group); a
 * chunk is recycled once every reader has moved past it.
 */
class ArrivalStream
{
    struct Chunk;

  public:
    struct Arrival
    {
        SimTime t;
        /** Draw order within the stream, from 0. */
        std::uint64_t seq = 0;
        std::int64_t id = 0;
        /** The node group that serves this arrival. */
        int group = 0;
        /** One per stage, stored in the chunk. */
        std::span<const WorkDemand> demands;
    };

    /** Picks each arrival's serving group, once per arrival, in draw
     *  order. */
    using Router = std::function<int()>;

    /** Arrivals per chunk (fewer only in the stream's last chunk). */
    static constexpr std::size_t kChunkArrivals = 64;

    /**
     * Arrivals of @p profile in [@p from, @p until) with demands drawn
     * from @p model; ids count up from @p firstId. An empty @p route
     * serves every arrival at group 0. Draws the first chunk.
     */
    ArrivalStream(WorkloadModel model, LoadProfile profile,
                  std::uint64_t seed, int refMhz, SimTime from,
                  SimTime until, std::int64_t firstId, int readers,
                  Router route);

    ~ArrivalStream();

    ArrivalStream(const ArrivalStream &) = delete;
    ArrivalStream &operator=(const ArrivalStream &) = delete;

    /**
     * One cursor over the stream. Only one thread may use a reader, and
     * each reader index may have only one live Reader. Readers of one
     * stream run on different threads, so each fills its own cache
     * line.
     */
    class alignas(64) Reader
    {
      public:
        /**
         * The next arrival served by this reader's group (every arrival
         * when the group is negative) if its time is at most @p until,
         * else nullptr; also nullptr once the stream has ended. The
         * pointer stays valid until pop().
         */
        const Arrival *next(SimTime until = SimTime::max());

        /** Step past the arrival next() returned. */
        void pop() { ++pos_; }

      private:
        friend class ArrivalStream;
        Reader(ArrivalStream *stream, Chunk *first, int index, int group)
            : stream_(stream), chunk_(first), index_(index),
              group_(group)
        {
        }

        ArrivalStream *stream_;
        Chunk *chunk_;
        int index_;
        int group_;
        std::size_t pos_ = 0;
    };

    /**
     * Reader number @p index (< readers) over @p group's arrivals, or
     * over all of them when @p group is negative. A reader over all
     * arrivals draws chunks as it needs them, so it must run on the
     * drawing thread; a group reader reads only what is drawn, and
     * asking it past that is a bug.
     */
    Reader reader(int index, int group);

    /**
     * Draw every arrival at or before @p until, on the drawing thread.
     * Group readers on other threads may then read up to @p until once
     * this call happens-before their reads.
     */
    void drawThrough(SimTime until);

  private:
    /** Append the next chunk, recycling every chunk all readers have
     *  passed; drawing thread only. */
    Chunk *draw();
    /** The next accepted arrival time, or until_ when none is left. */
    SimTime nextArrivalTime();

    const WorkloadModel model_;
    const LoadProfile profile_;
    Rng arrivalRng_;
    Rng demandRng_;
    const int refMhz_;
    const SimTime until_;
    const std::int64_t firstId_;
    Router route_;

    /** Every chunk ever allocated; they are reused, never freed early. */
    std::vector<std::unique_ptr<Chunk>> owned_;
    /** Chunk 0, where every reader starts. */
    Chunk *first_ = nullptr;
    /** The oldest chunk not yet recycled, and the newest. */
    Chunk *head_ = nullptr;
    Chunk *tail_ = nullptr;
    /** Recycled chunks, reused (with their storage) by draw(). */
    std::vector<Chunk *> spare_;

    /** The chunk number one reader is on, on its own cache line. */
    struct alignas(64) Cursor
    {
        std::atomic<std::uint64_t> chunk{0};
    };
    std::unique_ptr<Cursor[]> cursors_;
    std::size_t readers_;

    /** Time of the next arrival to draw: the next chunk's first. */
    SimTime pending_;
    std::uint64_t drawn_ = 0;
    bool done_ = false;
};

/**
 * Replays an ArrivalStream on a simulator: one event per arrival, each
 * scheduling the next. Arrivals served by another node group (see
 * share()) still step the chain, so the event sequence is the same
 * whatever the routing, but they are submitted by their own group.
 */
class LoadGenerator
{
  public:
    /**
     * @param model copied into the generator, so a temporary is safe.
     * @param refMhz the ladder reference frequency demands are quoted
     *        at (the minimum ladder frequency).
     */
    LoadGenerator(Simulator *sim, MultiStageApp *app,
                  const WorkloadModel *model, LoadProfile profile,
                  std::uint64_t seed, int refMhz);

    /** Begin submitting queries from now until @p until. */
    void start(SimTime until);

    /** Arrival events executed so far, whichever group serves them. */
    std::uint64_t generated() const { return generated_; }

    /**
     * Serve this generator's arrivals across @p groups node groups:
     * @p route picks each arrival's group. This generator submits the
     * ones routed to @p self; the others are left in stream() for their
     * groups' readers (reader index = group index). Call before
     * start().
     */
    void share(int self, int groups, ArrivalStream::Router route);

    /**
     * Offset the generated query ids, so ids stay globally unique when
     * several generators (one per node group) run in the same fleet.
     */
    void setQueryIdBase(std::int64_t base);

    /** The drawn-ahead arrivals; valid from start() on. */
    ArrivalStream &stream() { return *stream_; }

  private:
    void scheduleNext();
    void arrive();

    Simulator *sim_;
    MultiStageApp *app_;
    WorkloadModel model_;
    LoadProfile profile_;
    std::uint64_t seed_;
    int refMhz_;
    std::int64_t firstId_ = 1;
    int self_ = 0;
    int groups_ = 1;
    ArrivalStream::Router route_;
    std::unique_ptr<ArrivalStream> stream_;
    std::optional<ArrivalStream::Reader> reader_;
    const ArrivalStream::Arrival *next_ = nullptr;
    std::uint64_t generated_ = 0;
};

} // namespace pc

#endif // PC_WORKLOADS_LOADGEN_H
