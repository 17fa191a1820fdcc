#include "obs/trace_sink.h"

#include <algorithm>

#include "app/query.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace pc {

TraceSink::TraceSink(bool enabled) : enabled_(enabled)
{
    trackNames_.push_back("control");
}

int
TraceSink::declareTrack(const std::string &name)
{
    trackNames_.push_back(name);
    return static_cast<int>(trackNames_.size()) - 1;
}

void
TraceSink::declareInstanceTrack(std::int64_t instanceId,
                                const std::string &name, int stageIndex)
{
    if (!enabled_ || instanceTracks_.count(instanceId))
        return;
    instanceTracks_[instanceId] = declareTrack(
        name + " (stage " + std::to_string(stageIndex) + ")");
}

int
TraceSink::trackForInstance(std::int64_t instanceId) const
{
    const auto it = instanceTracks_.find(instanceId);
    return it == instanceTracks_.end() ? kControlTrack : it->second;
}

void
TraceSink::setMetrics(MetricsRegistry *metrics)
{
    metrics_ = metrics;
    unknownTrack_ = nullptr;
}

void
TraceSink::push(Event ev)
{
    if (ev.track < 0 ||
        ev.track >= static_cast<int>(trackNames_.size()))
        panic("trace sink: event on undeclared track %d", ev.track);
    events_.push_back(std::move(ev));
}

void
TraceSink::span(int track, const std::string &name, const std::string &cat,
                SimTime begin, SimTime end, JsonObject args)
{
    if (!enabled_)
        return;
    if (end < begin)
        panic("trace sink: span '%s' ends before it begins",
              name.c_str());
    Event ev;
    ev.ph = 'X';
    ev.track = track;
    ev.ts = begin.toUsec();
    ev.dur = (end - begin).toUsec();
    ev.name = name;
    ev.cat = cat;
    ev.args = std::move(args);
    push(std::move(ev));
}

void
TraceSink::instant(int track, const std::string &name,
                   const std::string &cat, SimTime t, JsonObject args)
{
    if (!enabled_)
        return;
    Event ev;
    ev.ph = 'i';
    ev.track = track;
    ev.ts = t.toUsec();
    ev.name = name;
    ev.cat = cat;
    ev.args = std::move(args);
    push(std::move(ev));
}

void
TraceSink::recordQueryHops(const Query &query)
{
    if (!enabled_)
        return;
    const std::size_t numHops = query.numHops();
    const std::string qid = std::to_string(query.id());

    // The flow chain stitches only the hops that contributed to the
    // completion: wasted hops (crash-aborted service) get spans but no
    // arrows, so Perfetto shows one causal chain per query.
    std::vector<std::size_t> flowHops;
    flowHops.reserve(numHops);
    for (std::size_t i = 0; i < numHops; ++i)
        if (!query.hop(i).wasted)
            flowHops.push_back(i);

    for (std::size_t i = 0; i < numHops; ++i) {
        const HopRecord hop = query.hop(i);
        const auto trackIt = instanceTracks_.find(hop.instanceId);
        int track = kControlTrack;
        if (trackIt == instanceTracks_.end()) {
            // An undeclared instance (e.g. a report raced a withdraw)
            // is counted, not silently folded into the control track.
            if (metrics_) {
                if (!unknownTrack_)
                    unknownTrack_ = &metrics_->counter(
                        "obs.trace.unknown_track");
                unknownTrack_->add();
            }
        } else {
            track = trackIt->second;
        }
        const std::string stage = std::to_string(hop.stageIndex);
        // Fan-out hops are labelled per shard so the N parallel leaf
        // spans of one dispatch stay distinguishable in the viewer.
        std::string suffix;
        if (hop.shardCount > 0)
            suffix = " shard " + std::to_string(hop.shardIndex) + "/" +
                std::to_string(hop.shardCount);

        if (hop.started > hop.enqueued) {
            JsonObject wargs;
            wargs["query"] = JsonValue(qid);
            span(track, "wait s" + stage + suffix, "queue",
                 hop.enqueued, hop.started, std::move(wargs));
        }
        JsonObject sargs;
        sargs["query"] = JsonValue(qid);
        sargs["queuing_us"] = JsonValue(
            static_cast<double>(hop.queuing().toUsec()));
        if (hop.servedMhz > 0)
            sargs["served_mhz"] =
                JsonValue(static_cast<double>(hop.servedMhz));
        if (hop.boosted)
            sargs["boosted"] = JsonValue(true);
        span(track, "serve s" + stage + suffix,
             hop.wasted ? "wasted" : "serve", hop.started, hop.finished,
             std::move(sargs));
    }

    // Flow arrows: start at the first contributing serve span, step
    // through the middle ones, finish at the last. Single-hop chains
    // need no arrow.
    if (flowHops.size() < 2)
        return;
    for (std::size_t k = 0; k < flowHops.size(); ++k) {
        const HopRecord hop = query.hop(flowHops[k]);
        Event flow;
        flow.track = trackForInstance(hop.instanceId);
        flow.ts = hop.started.toUsec();
        flow.flowId = static_cast<std::uint64_t>(query.id());
        flow.name = "query";
        flow.cat = "query";
        if (k == 0) {
            flow.ph = 's';
        } else if (k + 1 == flowHops.size()) {
            flow.ph = 'f';
            flow.flowEnd = true;
        } else {
            flow.ph = 't';
        }
        push(std::move(flow));
    }
}

namespace {

void
appendCommon(std::string *out, const TraceSink &, const char *name,
             const char *cat, int pid, int tid, std::int64_t ts)
{
    *out += "{\"name\":";
    *out += JsonValue(name).dump();
    *out += ",\"cat\":";
    *out += JsonValue(cat).dump();
    *out += ",\"pid\":" + std::to_string(pid);
    *out += ",\"tid\":" + std::to_string(tid);
    *out += ",\"ts\":" + std::to_string(ts);
}

} // namespace

void
TraceSink::appendTraceBody(std::string *text, bool *first, int pid,
                           const std::string &processName) const
{
    // Events are emitted in completion order; present them in
    // timestamp order (stable, so equal timestamps keep record order).
    std::vector<std::size_t> order(events_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                         return events_[a].ts < events_[b].ts;
                     });

    auto comma = [text, first]() {
        if (!*first)
            *text += ",\n";
        else
            *text += "\n";
        *first = false;
    };
    const std::string pidStr = std::to_string(pid);

    // Metadata: process + one named thread per track.
    comma();
    *text += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
        pidStr + ",\"tid\":0,\"args\":{\"name\":";
    *text += JsonValue(processName).dump();
    *text += "}}";
    for (std::size_t tid = 0; tid < trackNames_.size(); ++tid) {
        comma();
        *text += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
            pidStr + ",\"tid\":" + std::to_string(tid) +
            ",\"args\":{\"name\":";
        *text += JsonValue(trackNames_[tid]).dump();
        *text += "}}";
        comma();
        *text += "{\"name\":\"thread_sort_index\",\"ph\":\"M\","
                 "\"pid\":" + pidStr + ",\"tid\":" +
            std::to_string(tid) + ",\"args\":{\"sort_index\":" +
            std::to_string(tid) + "}}";
    }

    for (const std::size_t i : order) {
        const Event &ev = events_[i];
        comma();
        appendCommon(text, *this, ev.name.c_str(), ev.cat.c_str(), pid,
                     ev.track, ev.ts);
        *text += ",\"ph\":\"";
        *text += ev.ph;
        *text += '"';
        switch (ev.ph) {
          case 'X':
            *text += ",\"dur\":" + std::to_string(ev.dur);
            break;
          case 'i':
            *text += ",\"s\":\"t\"";
            break;
          case 's':
          case 't':
          case 'f':
            *text += ",\"id\":" + std::to_string(ev.flowId);
            if (ev.flowEnd)
                *text += ",\"bp\":\"e\"";
            break;
          default:
            panic("trace sink: unknown phase '%c'", ev.ph);
        }
        if (!ev.args.empty()) {
            *text += ",\"args\":";
            *text += JsonValue(ev.args).dump();
        }
        *text += '}';
    }
}

void
TraceSink::writeChromeTrace(std::ostream &out) const
{
    std::string text;
    text += "{\"traceEvents\":[";
    bool first = true;
    appendTraceBody(&text, &first, 1, "powerchief");
    text += "\n],\"displayTimeUnit\":\"ms\"}\n";
    out << text;
}

void
TraceSink::writeMergedChromeTrace(
    std::ostream &out, const std::vector<const TraceSink *> &sinks)
{
    std::string text;
    text += "{\"traceEvents\":[";
    bool first = true;
    for (std::size_t k = 0; k < sinks.size(); ++k) {
        sinks[k]->appendTraceBody(&text, &first, static_cast<int>(k) + 1,
                                  "powerchief/node" + std::to_string(k));
    }
    text += "\n],\"displayTimeUnit\":\"ms\"}\n";
    out << text;
}

} // namespace pc
