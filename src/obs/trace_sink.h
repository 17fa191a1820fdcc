/**
 * @file
 * Per-query span tracing with Chrome trace-event / Perfetto export.
 *
 * The sink models the paper's joint design directly: every hop of
 * every query becomes two spans — the queue wait and the service — on
 * the track of the instance that served it (built from the extended
 * query records of app/query.h), and the query itself is stitched
 * across tracks with flow events keyed by query id. The control plane
 * gets its own track: one span per command-center adjust interval and
 * one instant event per boost/recycle/withdraw decision emitted by
 * the control plane (core/decision.h).
 *
 * Tracks are identified by sink-assigned sequential ids, NOT by raw
 * instance ids: Stage::nextInstanceId() is a process-global counter,
 * so raw ids depend on how many runs preceded this one in the process.
 * Sink-local ids make the exported file a pure function of the
 * scenario — byte-identical at any sweep --jobs value.
 *
 * Export is the Chrome trace-event JSON format ("traceEvents" array of
 * ph X/i/s/t/f/M events, timestamps in microseconds), loadable in
 * Perfetto (ui.perfetto.dev) and chrome://tracing.
 */

#ifndef PC_OBS_TRACE_SINK_H
#define PC_OBS_TRACE_SINK_H

#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/json.h"
#include "common/time.h"

namespace pc {

class Counter;
class MetricsRegistry;
class Query;

class TraceSink
{
  public:
    /** Track 0 always exists and carries the control plane. */
    static constexpr int kControlTrack = 0;

    /** A disabled sink drops every record at a single branch. */
    explicit TraceSink(bool enabled = false);

    bool enabled() const { return enabled_; }

    /**
     * Create a new track (a Perfetto "thread") and return its id.
     * Declaration order fixes the id, so call sites must be
     * deterministic in sim order.
     */
    int declareTrack(const std::string &name);

    /** Declare (once) the track of a service instance. */
    void declareInstanceTrack(std::int64_t instanceId,
                              const std::string &name, int stageIndex);

    /** Track of a declared instance; the control track if unknown. */
    int trackForInstance(std::int64_t instanceId) const;

    /**
     * Attach a metrics registry so hops naming an undeclared instance
     * are counted under "obs.trace.unknown_track" instead of silently
     * landing on the control track. nullptr detaches.
     */
    void setMetrics(MetricsRegistry *metrics);

    /** Complete span [begin, end] on @p track. */
    void span(int track, const std::string &name, const std::string &cat,
              SimTime begin, SimTime end, JsonObject args = {});

    /** Thread-scoped instant event at @p t. */
    void instant(int track, const std::string &name,
                 const std::string &cat, SimTime t, JsonObject args = {});

    /**
     * Wait+serve spans for every hop of a completed query, plus the
     * flow events linking them across tracks. Call at completion — the
     * hop records carry all the timestamps.
     */
    void recordQueryHops(const Query &query);

    std::size_t numEvents() const { return events_.size(); }
    std::size_t numTracks() const { return trackNames_.size(); }

    /**
     * Write {"traceEvents": [...]}: metadata first, then events in
     * (timestamp, record order). Deterministic byte-for-byte.
     */
    void writeChromeTrace(std::ostream &out) const;

    /**
     * Merge several sinks into one Chrome trace: sink k becomes
     * Perfetto process k+1 named "powerchief/node<k>", with its own
     * metadata and events (each sink's tracks stay in its own pid
     * namespace, so flow ids and track ids never collide). The sharded
     * runner writes one merged file from the per-node-group sinks.
     */
    static void writeMergedChromeTrace(
        std::ostream &out, const std::vector<const TraceSink *> &sinks);

  private:
    struct Event
    {
        char ph;              // X, i, s, t, f
        int track;
        std::int64_t ts;      // microseconds
        std::int64_t dur = 0; // X only
        std::uint64_t flowId = 0;
        bool flowEnd = false; // f: bind to enclosing slice ("bp":"e")
        std::string name;
        std::string cat;
        JsonObject args;
    };

    void push(Event ev);

    /** Metadata + sorted events of this sink under @p pid. */
    void appendTraceBody(std::string *text, bool *first, int pid,
                         const std::string &processName) const;

    bool enabled_;
    std::vector<std::string> trackNames_;
    std::unordered_map<std::int64_t, int> instanceTracks_;
    std::vector<Event> events_;
    MetricsRegistry *metrics_ = nullptr;
    Counter *unknownTrack_ = nullptr; // lazily registered
};

} // namespace pc

#endif // PC_OBS_TRACE_SINK_H
