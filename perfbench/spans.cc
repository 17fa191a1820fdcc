#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

std::uint64_t
SpanLog::add(std::string name, Clock::time_point start,
             Clock::time_point end, std::uint64_t parent,
             std::uint64_t run, std::uint64_t id)
{
    if (id == 0)
        id = newId();
    Span span{std::move(name), usAt(start), usAt(end), id, parent, run};
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return id;
}

std::map<std::string, LayerTime>
SpanLog::layerTimes() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    // Children per parent, so each span subtracts the union of the
    // intervals its children cover (parallel children overlap).
    std::unordered_map<std::uint64_t, std::vector<const Span *>> children;
    for (const Span &s : spans_)
        if (s.parent != 0)
            children[s.parent].push_back(&s);

    std::map<std::string, LayerTime> out;
    for (const Span &s : spans_) {
        double covered = 0.0;
        if (auto it = children.find(s.id); it != children.end()) {
            std::vector<std::pair<double, double>> iv;
            for (const Span *c : it->second)
                iv.emplace_back(std::max(c->startUs, s.startUs),
                                std::min(c->endUs, s.endUs));
            std::sort(iv.begin(), iv.end());
            double curStart = 0.0, curEnd = -1.0;
            for (const auto &[a, b] : iv) {
                if (b <= a)
                    continue;
                if (a > curEnd) {
                    if (curEnd > curStart)
                        covered += curEnd - curStart;
                    curStart = a;
                    curEnd = b;
                } else {
                    curEnd = std::max(curEnd, b);
                }
            }
            if (curEnd > curStart)
                covered += curEnd - curStart;
        }
        LayerTime &lt = out[s.name];
        const double dur = s.endUs - s.startUs;
        ++lt.count;
        lt.totalUs += dur;
        lt.selfUs += dur - covered;
    }
    return out;
}

void
SpanLog::writeJsonLines(std::ostream &out) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    char buf[384];
    for (const Span &s : spans_) {
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                      "\"id\":%llu,\"parent\":%llu,\"run\":%llu}\n",
                      s.name.c_str(), s.startUs, s.endUs,
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<unsigned long long>(s.run));
        out << buf;
    }
}

} // namespace perfbench
