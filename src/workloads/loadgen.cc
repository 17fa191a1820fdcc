#include "workloads/loadgen.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "common/logging.h"

namespace pc {

const char *
toString(LoadLevel level)
{
    switch (level) {
      case LoadLevel::Low: return "low";
      case LoadLevel::Medium: return "medium";
      case LoadLevel::High: return "high";
    }
    return "?";
}

LoadProfile
LoadProfile::constant(double qps)
{
    if (qps <= 0)
        fatal("constant load rate must be positive, got %f", qps);
    LoadProfile p;
    p.points_ = {{SimTime::zero(), qps}};
    p.maxRate_ = qps;
    return p;
}

LoadProfile
LoadProfile::piecewise(std::vector<Point> points)
{
    if (points.empty())
        fatal("piecewise load profile needs at least one point");
    for (std::size_t i = 1; i < points.size(); ++i)
        if (points[i].t <= points[i - 1].t)
            fatal("piecewise load points must be strictly increasing");
    LoadProfile p;
    p.points_ = std::move(points);
    for (const auto &pt : p.points_)
        p.maxRate_ = std::max(p.maxRate_, pt.qps);
    return p;
}

double
LoadProfile::levelFraction(LoadLevel level)
{
    switch (level) {
      case LoadLevel::Low: return 0.35;
      case LoadLevel::Medium: return 1.05;
      case LoadLevel::High: return 1.40;
    }
    return 0.0;
}

LoadProfile
LoadProfile::forLevel(const WorkloadModel &model, LoadLevel level,
                      int midMhz)
{
    const double capacity = model.bottleneckCapacityAt(midMhz);
    return constant(levelFraction(level) * capacity);
}

LoadProfile
LoadProfile::fig11(const WorkloadModel &model, int midMhz)
{
    const double cap = model.bottleneckCapacityAt(midMhz);
    // High opening burst, the §8.2 low-load valley at 175-275 s, then a
    // second rise that reshuffles the bottleneck between stages.
    return piecewise({
        {SimTime::zero(), 1.10 * cap},
        {SimTime::sec(100), 1.30 * cap},
        {SimTime::sec(175), 0.30 * cap},
        {SimTime::sec(275), 0.30 * cap},
        {SimTime::sec(400), 1.20 * cap},
        {SimTime::sec(600), 0.80 * cap},
        {SimTime::sec(900), 1.25 * cap},
    });
}

LoadProfile
LoadProfile::diurnal(double loQps, double hiQps, SimTime period)
{
    if (loQps <= 0 || hiQps < loQps)
        fatal("diurnal profile needs 0 < lo <= hi");
    LoadProfile p;
    p.lo_ = loQps;
    p.hi_ = hiQps;
    p.period_ = period;
    p.maxRate_ = hiQps;
    return p;
}

LoadProfile
LoadProfile::scaled(double factor) const
{
    if (factor < 0)
        fatal("load scale factor must be >= 0 (got %f)", factor);
    LoadProfile p = *this;
    for (Point &pt : p.points_)
        pt.qps *= factor;
    p.lo_ *= factor;
    p.hi_ *= factor;
    p.maxRate_ *= factor;
    return p;
}

double
LoadProfile::rateAt(SimTime t) const
{
    if (period_ > SimTime::zero()) {
        const double phase = 2.0 * std::numbers::pi *
            (t.toSec() / period_.toSec());
        return lo_ + (hi_ - lo_) * 0.5 * (1.0 - std::cos(phase));
    }
    if (points_.empty())
        return 0.0;
    if (t <= points_.front().t)
        return points_.front().qps;
    if (t >= points_.back().t)
        return points_.back().qps;
    for (std::size_t i = 1; i < points_.size(); ++i) {
        if (t <= points_[i].t) {
            const auto &a = points_[i - 1];
            const auto &b = points_[i];
            const double frac = (t - a.t) / (b.t - a.t);
            return a.qps + frac * (b.qps - a.qps);
        }
    }
    return points_.back().qps;
}

struct ArrivalStream::Chunk
{
    std::vector<Arrival> arrivals;
    /** Every arrival's per-stage demands, back to back. */
    std::vector<WorkDemand> demands;
    /** Indices into arrivals, per serving group. */
    std::vector<std::vector<std::uint32_t>> byGroup;
    /** Every later arrival has t >= end. */
    SimTime end;
    /** The stream ends with this chunk. */
    bool last = false;
    /** Position in the stream, from 0. */
    std::uint64_t number = 0;
    /** The next chunk once it is drawn; its store publishes it. */
    std::atomic<Chunk *> next{nullptr};
};

ArrivalStream::ArrivalStream(WorkloadModel model, LoadProfile profile,
                             std::uint64_t seed, int refMhz, SimTime from,
                             SimTime until, std::int64_t firstId,
                             int readers, Router route)
    : model_(std::move(model)), profile_(std::move(profile)),
      arrivalRng_(seed), demandRng_(seed ^ 0xabcdef1234567890ull),
      refMhz_(refMhz), until_(until), firstId_(firstId),
      route_(std::move(route)),
      readers_(static_cast<std::size_t>(std::max(readers, 1))),
      pending_(from)
{
    cursors_ = std::make_unique<Cursor[]>(readers_);
    pending_ = nextArrivalTime();
    done_ = pending_ >= until_;
    first_ = draw();
}

ArrivalStream::~ArrivalStream() = default;

ArrivalStream::Reader
ArrivalStream::reader(int index, int group)
{
    if (index < 0 || static_cast<std::size_t>(index) >= readers_)
        panic("arrival stream reader %d outside [0, %zu)", index,
              readers_);
    if (group >= 0 && !route_)
        panic("arrival stream reader %d reads group %d of an unrouted "
              "stream", index, group);
    return Reader(this, first_, index, group);
}

SimTime
ArrivalStream::nextArrivalTime()
{
    // Thinning (Lewis & Shedler): draw from the homogeneous bound
    // process at maxRate, accept with probability lambda(t)/maxRate.
    const double bound = profile_.maxRate();
    if (bound <= 0)
        return until_;
    SimTime t = pending_;
    while (true) {
        t += SimTime::sec(arrivalRng_.exponential(1.0 / bound));
        if (t >= until_)
            return until_;
        if (arrivalRng_.uniform(0.0, 1.0) <=
            profile_.rateAt(t) / bound)
            return t;
    }
}

ArrivalStream::Chunk *
ArrivalStream::draw()
{
    // A reader's cursor moves past a chunk only once it is done with
    // it, so every chunk below the slowest cursor is free.
    std::uint64_t slowest = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 0; i < readers_; ++i)
        slowest = std::min(
            slowest, cursors_[i].chunk.load(std::memory_order_acquire));
    while (head_ && head_->number < slowest) {
        spare_.push_back(head_);
        head_ = head_->next.load(std::memory_order_relaxed);
    }

    Chunk *chunk;
    if (spare_.empty()) {
        owned_.push_back(std::make_unique<Chunk>());
        chunk = owned_.back().get();
        // Full size at once: a recycled chunk then never grows.
        chunk->arrivals.reserve(kChunkArrivals);
        chunk->demands.reserve(kChunkArrivals * model_.stages().size());
        chunk->byGroup.resize(route_ ? readers_ : 0);
        for (std::vector<std::uint32_t> &mine : chunk->byGroup)
            mine.reserve(kChunkArrivals);
    } else {
        chunk = spare_.back();
        spare_.pop_back();
        chunk->arrivals.clear();
        chunk->demands.clear();
        for (std::vector<std::uint32_t> &mine : chunk->byGroup)
            mine.clear();
        chunk->next.store(nullptr, std::memory_order_relaxed);
    }
    chunk->number = tail_ ? tail_->number + 1 : 0;
    // Only routed readers read per-group lists.
    chunk->byGroup.resize(route_ ? readers_ : 0);
    while (!done_ && chunk->arrivals.size() < kChunkArrivals) {
        Arrival a;
        a.t = pending_;
        a.seq = drawn_++;
        a.id = firstId_ + static_cast<std::int64_t>(a.seq);
        a.group = route_ ? route_() : 0;
        model_.appendDemands(demandRng_, refMhz_, &chunk->demands);
        if (a.group < 0 || static_cast<std::size_t>(a.group) >= readers_)
            panic("arrival routed to group %d outside [0, %zu)", a.group,
                  readers_);
        if (route_)
            chunk->byGroup[static_cast<std::size_t>(a.group)].push_back(
                static_cast<std::uint32_t>(chunk->arrivals.size()));
        chunk->arrivals.push_back(std::move(a));
        pending_ = nextArrivalTime();
        done_ = pending_ >= until_;
    }
    const std::size_t stages = model_.stages().size();
    for (std::size_t i = 0; i < chunk->arrivals.size(); ++i)
        chunk->arrivals[i].demands =
            std::span<const WorkDemand>(chunk->demands)
                .subspan(i * stages, stages);
    chunk->end = pending_;
    chunk->last = done_;

    if (tail_)
        tail_->next.store(chunk, std::memory_order_release);
    else
        head_ = chunk;
    tail_ = chunk;
    return chunk;
}

void
ArrivalStream::drawThrough(SimTime until)
{
    while (!tail_->last && tail_->end <= until)
        draw();
}

const ArrivalStream::Arrival *
ArrivalStream::Reader::next(SimTime until)
{
    while (true) {
        const std::vector<std::uint32_t> *mine =
            group_ < 0 ? nullptr
                       : &chunk_->byGroup[static_cast<std::size_t>(group_)];
        const std::size_t count =
            mine ? mine->size() : chunk_->arrivals.size();
        if (pos_ < count) {
            const Arrival &a =
                chunk_->arrivals[mine ? (*mine)[pos_] : pos_];
            return a.t <= until ? &a : nullptr;
        }
        // Later arrivals all have t >= end: stop before drawing ahead
        // of what the caller asked for.
        if (chunk_->last || chunk_->end > until)
            return nullptr;
        Chunk *next = chunk_->next.load(std::memory_order_acquire);
        if (!next) {
            if (group_ >= 0)
                panic("arrival stream reader %d asked through %.6f s, "
                      "past the arrivals drawn so far (to %.6f s)",
                      index_, until.toSec(), chunk_->end.toSec());
            next = stream_->draw();
        }
        chunk_ = next;
        pos_ = 0;
        stream_->cursors_[static_cast<std::size_t>(index_)].chunk.store(
            chunk_->number, std::memory_order_release);
    }
}

LoadGenerator::LoadGenerator(Simulator *sim, MultiStageApp *app,
                             const WorkloadModel *model,
                             LoadProfile profile, std::uint64_t seed,
                             int refMhz)
    : sim_(sim), app_(app), model_(*model), profile_(std::move(profile)),
      seed_(seed), refMhz_(refMhz)
{
}

void
LoadGenerator::start(SimTime until)
{
    if (stream_)
        panic("load generator started twice");
    stream_ = std::make_unique<ArrivalStream>(
        std::move(model_), std::move(profile_), seed_, refMhz_,
        sim_->now(), until, firstId_, groups_, std::move(route_));
    reader_.emplace(stream_->reader(self_, -1));
    scheduleNext();
}

void
LoadGenerator::share(int self, int groups, ArrivalStream::Router route)
{
    if (stream_)
        panic("load generator shared after start");
    if (self < 0 || self >= groups)
        panic("load generator group %d outside [0, %d)", self, groups);
    self_ = self;
    groups_ = groups;
    route_ = std::move(route);
}

void
LoadGenerator::setQueryIdBase(std::int64_t base)
{
    if (stream_)
        panic("query id base must be set before generation starts");
    firstId_ = base + 1;
}

void
LoadGenerator::scheduleNext()
{
    next_ = reader_->next();
    if (next_)
        sim_->scheduleAt(next_->t, [this]() { arrive(); });
}

void
LoadGenerator::arrive()
{
    const ArrivalStream::Arrival &a = *next_;
    ++generated_;
    if (a.group == self_)
        app_->submit(app_->querySlab().make(a.id, a.t, a.demands));
    reader_->pop();
    scheduleNext();
}

} // namespace pc
