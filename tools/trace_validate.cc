/**
 * @file
 * trace-validate — structural checker for the telemetry outputs.
 *
 *   trace-validate --trace=run.json [--metrics=run.metrics.json]
 *                  [--audit=run.audit.json]
 *                  [--timeseries=run.timeseries.json]
 *                  [--critpath=run.critpath.json]
 *                  [--require-spans] [--require-decisions]
 *
 * Validates that a --trace-out file is well-formed Chrome trace-event
 * JSON: a "traceEvents" array whose events carry the fields their
 * phase requires, span durations are non-negative, timestamps are
 * monotone (the exporter sorts), and every flow step/finish resolves
 * to a previously started flow that is closed exactly once. A
 * --metrics-out file is checked for the registry's JSON shape. An
 * --audit-out file is checked for the decision-audit schema: a
 * "records" array with contiguous sequence numbers, monotone
 * timestamps and per-kind required fields (including obs.alert anomaly
 * records), plus a "summary" object whose decision counts match the
 * records. A --timeseries-out file is checked for the delta-encoded
 * series schema, monotone counters, the alerts array, and the optional
 * embedded SLO report. A --critpath-out file is checked for the
 * "powerchief-critpath-v1" schema: per-stage share statistics within
 * [0,1], non-negative segment totals, well-formed path signatures, a
 * controller block whose counts are internally consistent, and a
 * per-interval log with monotone timestamps.
 *
 * Given both --trace and --metrics of a single-node run, the two views
 * of the control plane's decision log are cross-checked: for every
 * kind, the number of "decision" instants equals the kind's
 * "decision.<kind>_total" counter (both are emitted together, once per
 * actuation; core/decision.h).
 *
 * Sharded runs (scenarios with node groups; docs/PERFORMANCE.md) are
 * handled transparently: a merged Chrome trace is validated per pid
 * (one track group per node, pid-local flow ids), and the other four
 * artifacts may arrive as "powerchief-sharded-v1" envelopes whose
 * per-node documents are each validated against the single-node
 * schema, with counts summed into the printed summary.
 *
 * Exits 0 and prints a one-line summary on success; exits 1 with a
 * diagnostic on the first structural violation. Wired into tools/
 * check.sh and ctest so a malformed exporter fails the build gates.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/json.h"

using namespace pc;

namespace {

struct TraceSummary
{
    std::size_t events = 0;
    std::size_t spans = 0;
    std::size_t serveSpans = 0;
    std::size_t waitSpans = 0;
    std::size_t controlSpans = 0;
    std::size_t instants = 0;
    std::size_t decisions = 0;
    std::size_t flows = 0;
    /** Decision instants per kind (the instant's name). */
    std::map<std::string, std::size_t> decisionsByKind;
    /** Distinct pids: one per node of a merged sharded trace. */
    std::size_t pids = 0;
};

[[noreturn]] void
bad(const std::string &what)
{
    std::cerr << "trace-validate: " << what << "\n";
    std::exit(1);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        bad("cannot open '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

JsonValue
parseFile(const std::string &path)
{
    const JsonParseResult parsed = parseJson(slurp(path));
    if (!parsed.ok())
        bad("'" + path + "' is not valid JSON: " + parsed.error +
            " at byte " + std::to_string(parsed.errorPos));
    return *parsed.value;
}

/**
 * Detect a "powerchief-sharded-v1" envelope (the merged artifact a
 * nodeGroups > 1 run writes; see docs/PERFORMANCE.md). Returns the
 * per-node document array when @p root is an envelope of the expected
 * artifact kind, null when it is a plain single-node document, and
 * fails hard on a mismatched artifact tag or malformed envelope.
 */
const JsonArray *
shardedDocs(const JsonValue &root, const std::string &path,
            const char *artifact)
{
    if (!root.isObject() ||
        root.stringOr("schema", "") != "powerchief-sharded-v1")
        return nullptr;
    if (root.stringOr("artifact", "") != artifact)
        bad("'" + path + "' sharded envelope holds artifact \"" +
            root.stringOr("artifact", "") + "\", expected \"" +
            std::string(artifact) + "\"");
    const JsonValue *shards = root.find("shards");
    if (!shards || !shards->isArray())
        bad("'" + path + "' sharded envelope lacks a \"shards\" array");
    if (shards->asArray().empty())
        bad("'" + path + "' sharded envelope holds no shard documents");
    if (root.numberOr("nodes", -1.0) !=
        static_cast<double>(shards->asArray().size()))
        bad("'" + path + "' envelope \"nodes\" disagrees with the "
            "shards array length");
    return &shards->asArray();
}

const JsonValue &
requireField(const JsonValue &event, const char *key, std::size_t index)
{
    const JsonValue *field = event.find(key);
    if (!field)
        bad("event " + std::to_string(index) + " lacks \"" + key + "\"");
    return *field;
}

double
requireNumber(const JsonValue &event, const char *key, std::size_t index)
{
    const JsonValue &field = requireField(event, key, index);
    if (!field.isNumber())
        bad("event " + std::to_string(index) + " field \"" + key +
            "\" is not a number");
    return field.asNumber();
}

TraceSummary
validateTrace(const std::string &path)
{
    const JsonValue root = parseFile(path);
    if (!root.isObject())
        bad("'" + path + "' root is not an object");
    const JsonValue *events = root.find("traceEvents");
    if (!events || !events->isArray())
        bad("'" + path + "' lacks a \"traceEvents\" array");

    TraceSummary summary;
    // Merged sharded traces hold one track group per node under its
    // own pid: timestamps restart per pid and flow ids are pid-local,
    // so both checks key on the event's pid. A single-node trace has
    // one pid and degenerates to the global checks.
    std::set<std::pair<double, double>> openFlows;
    std::set<std::pair<double, double>> closedFlows;
    std::map<double, double> lastTsByPid;

    const JsonArray &list = events->asArray();
    for (std::size_t i = 0; i < list.size(); ++i) {
        const JsonValue &ev = list[i];
        if (!ev.isObject())
            bad("event " + std::to_string(i) + " is not an object");
        const JsonValue &ph = requireField(ev, "ph", i);
        if (!ph.isString() || ph.asString().size() != 1)
            bad("event " + std::to_string(i) +
                " has a malformed \"ph\"");
        const JsonValue &name = requireField(ev, "name", i);
        if (!name.isString())
            bad("event " + std::to_string(i) + " \"name\" not a string");

        const char phase = ph.asString()[0];
        if (phase == 'M')
            continue; // Metadata records carry no timestamp.

        ++summary.events;
        const double pid = requireNumber(ev, "pid", i);
        const double ts = requireNumber(ev, "ts", i);
        const auto [it, first] = lastTsByPid.try_emplace(pid, ts);
        if (!first && ts < it->second)
            bad("event " + std::to_string(i) +
                " breaks timestamp monotonicity within pid " +
                std::to_string(pid));
        it->second = ts;

        switch (phase) {
          case 'X': {
            const double dur = requireNumber(ev, "dur", i);
            if (dur < 0.0)
                bad("span event " + std::to_string(i) +
                    " has negative duration");
            ++summary.spans;
            const std::string cat = ev.stringOr("cat", "");
            if (cat == "serve")
                ++summary.serveSpans;
            else if (cat == "queue")
                ++summary.waitSpans;
            else if (cat == "control")
                ++summary.controlSpans;
            break;
          }
          case 'i':
            ++summary.instants;
            if (ev.stringOr("cat", "") == "decision") {
                ++summary.decisions;
                ++summary.decisionsByKind[name.asString()];
            }
            break;
          case 's': {
            const double id = requireNumber(ev, "id", i);
            if (openFlows.count({pid, id}) ||
                closedFlows.count({pid, id}))
                bad("flow " + std::to_string(id) +
                    " started more than once");
            openFlows.insert({pid, id});
            ++summary.flows;
            break;
          }
          case 't':
          case 'f': {
            const double id = requireNumber(ev, "id", i);
            if (!openFlows.count({pid, id}))
                bad("flow event " + std::to_string(i) +
                    " references unopened flow " + std::to_string(id));
            if (phase == 'f') {
                openFlows.erase({pid, id});
                closedFlows.insert({pid, id});
            }
            break;
          }
          default:
            bad("event " + std::to_string(i) + " has unknown phase '" +
                std::string(1, phase) + "'");
        }
    }

    if (!openFlows.empty())
        bad(std::to_string(openFlows.size()) +
            " flow(s) started but never finished");
    summary.pids = lastTsByPid.size();
    return summary;
}

struct AuditSummary
{
    std::size_t records = 0;
    std::size_t selects = 0;
    std::size_t recycles = 0;
    std::size_t withdraws = 0;
    std::size_t staleSkips = 0;
    std::size_t fastcapPlans = 0;
    std::size_t cuttlesysPlans = 0;
    std::size_t obsAlerts = 0;
    std::size_t misboosts = 0;
    std::size_t clusterRebalances = 0;
    std::size_t scored = 0;
};

AuditSummary
validateAuditDoc(const JsonValue &root, const std::string &path)
{
    if (!root.isObject())
        bad("'" + path + "' root is not an object");
    const JsonValue *records = root.find("records");
    if (!records || !records->isArray())
        bad("'" + path + "' lacks a \"records\" array");
    const JsonValue *summary = root.find("summary");
    if (!summary || !summary->isObject())
        bad("'" + path + "' lacks a \"summary\" object");

    AuditSummary counts;
    double lastT = 0.0;
    const JsonArray &list = records->asArray();
    for (std::size_t i = 0; i < list.size(); ++i) {
        const JsonValue &rec = list[i];
        if (!rec.isObject())
            bad("audit record " + std::to_string(i) +
                " is not an object");
        if (requireNumber(rec, "seq", i) != static_cast<double>(i))
            bad("audit record " + std::to_string(i) +
                " has a non-contiguous \"seq\"");
        const double t = requireNumber(rec, "t_s", i);
        if (i > 0 && t < lastT)
            bad("audit record " + std::to_string(i) +
                " breaks timestamp monotonicity");
        lastT = t;
        requireNumber(rec, "interval", i);

        const JsonValue &kind = requireField(rec, "kind", i);
        if (!kind.isString())
            bad("audit record " + std::to_string(i) +
                " \"kind\" not a string");
        ++counts.records;
        if (kind.asString() == "select") {
            ++counts.selects;
            const JsonValue &cands = requireField(rec, "candidates", i);
            if (!cands.isArray())
                bad("audit record " + std::to_string(i) +
                    " \"candidates\" not an array");
            const JsonValue &chosen = requireField(rec, "chosen", i);
            if (!chosen.isString())
                bad("audit record " + std::to_string(i) +
                    " \"chosen\" not a string");
            // The Eq. 2/3 model inputs every select must explain.
            requireNumber(rec, "t_inst_s", i);
            requireNumber(rec, "t_freq_s", i);
            requireNumber(rec, "alpha_lh", i);
            requireNumber(rec, "headroom_before_w", i);
            requireNumber(rec, "headroom_after_w", i);
            if (rec.find("score") != nullptr) {
                const JsonValue &score = *rec.find("score");
                if (!score.isObject())
                    bad("audit record " + std::to_string(i) +
                        " \"score\" not an object");
                requireNumber(score, "predicted_s", i);
                requireNumber(score, "realized_s", i);
                requireNumber(score, "abs_pct_err", i);
                ++counts.scored;
            }
        } else if (kind.asString() == "recycle") {
            ++counts.recycles;
            requireNumber(rec, "needed_w", i);
            requireNumber(rec, "recycled_w", i);
            requireNumber(rec, "recycle_steps", i);
        } else if (kind.asString() == "withdraw") {
            ++counts.withdraws;
            requireNumber(rec, "target", i);
            requireNumber(rec, "utilization", i);
            requireNumber(rec, "utilization_threshold", i);
        } else if (kind.asString() == "stale_skip") {
            ++counts.staleSkips;
            requireNumber(rec, "target", i);
            requireNumber(rec, "stage", i);
            // A skip can only happen when the report age exceeded the
            // (positive) stale window.
            const double age = requireNumber(rec, "age_s", i);
            const double window =
                requireNumber(rec, "stale_window_s", i);
            if (window <= 0.0 || age <= window)
                bad("audit record " + std::to_string(i) +
                    " stale_skip age/window inconsistent");
        } else if (kind.asString() == "fastcap_plan" ||
                   kind.asString() == "cuttlesys_plan") {
            if (kind.asString() == "fastcap_plan")
                ++counts.fastcapPlans;
            else
                ++counts.cuttlesysPlans;
            requireNumber(rec, "steps_up", i);
            requireNumber(rec, "steps_down", i);
            requireNumber(rec, "launches", i);
            requireNumber(rec, "withdraws", i);
            requireNumber(rec, "objective_s", i);
            requireNumber(rec, "headroom_before_w", i);
            requireNumber(rec, "headroom_after_w", i);
            // The planned allocation may never exceed what the ledger
            // could hold at plan time.
            if (requireNumber(rec, "planned_w", i) < 0.0)
                bad("audit record " + std::to_string(i) +
                    " plan \"planned_w\" negative");
            const JsonValue &explore = requireField(rec, "explore", i);
            if (!explore.isBool())
                bad("audit record " + std::to_string(i) +
                    " plan \"explore\" not a bool");
        } else if (kind.asString() == "misboost") {
            ++counts.misboosts;
            requireNumber(rec, "boosted_stage", i);
            requireNumber(rec, "dominant_stage", i);
            // Shares are fractions of the interval's critical-path
            // seconds; a misboost means the boosted stage was not the
            // dominant one, so the two stages must differ.
            const double dominantShare =
                requireNumber(rec, "dominant_share", i);
            const double boostedShare =
                requireNumber(rec, "boosted_share", i);
            if (dominantShare < 0.0 || dominantShare > 1.0 ||
                boostedShare < 0.0 || boostedShare > 1.0)
                bad("audit record " + std::to_string(i) +
                    " misboost share outside [0,1]");
            if (requireNumber(rec, "boosted_stage", i) ==
                requireNumber(rec, "dominant_stage", i))
                bad("audit record " + std::to_string(i) +
                    " misboost boosted == dominant stage");
        } else if (kind.asString() == "cluster_rebalance") {
            ++counts.clusterRebalances;
            if (requireNumber(rec, "node", i) < 0.0)
                bad("audit record " + std::to_string(i) +
                    " cluster_rebalance \"node\" negative");
            if (requireNumber(rec, "round", i) < 1.0)
                bad("audit record " + std::to_string(i) +
                    " cluster_rebalance \"round\" not 1-based");
            // Assumed shares are watts upper bounds: non-negative on
            // both sides of the decision, as is the report age.
            if (requireNumber(rec, "cap_before_w", i) < 0.0 ||
                requireNumber(rec, "cap_after_w", i) < 0.0)
                bad("audit record " + std::to_string(i) +
                    " cluster_rebalance cap watts negative");
            requireNumber(rec, "demand", i);
            if (requireNumber(rec, "report_age_s", i) < 0.0)
                bad("audit record " + std::to_string(i) +
                    " cluster_rebalance \"report_age_s\" negative");
            const JsonValue &frozen = requireField(rec, "frozen", i);
            const JsonValue &granted =
                requireField(rec, "granted", i);
            if (!frozen.isBool() || !granted.isBool())
                bad("audit record " + std::to_string(i) +
                    " cluster_rebalance frozen/granted not bools");
            // A frozen node is pinned: its share may never rise.
            if (frozen.asBool() &&
                rec.numberOr("cap_after_w", 0.0) >
                    rec.numberOr("cap_before_w", 0.0) + 1e-9)
                bad("audit record " + std::to_string(i) +
                    " cluster_rebalance raised a frozen node");
        } else if (kind.asString() == "obs.alert") {
            ++counts.obsAlerts;
            const JsonValue &series = requireField(rec, "series", i);
            if (!series.isString())
                bad("audit record " + std::to_string(i) +
                    " obs.alert \"series\" not a string");
            requireNumber(rec, "value", i);
            requireNumber(rec, "mean", i);
            const double sigma = requireNumber(rec, "sigma", i);
            if (sigma <= 0.0)
                bad("audit record " + std::to_string(i) +
                    " obs.alert \"sigma\" not positive");
            const double z = requireNumber(rec, "z", i);
            const double threshold =
                requireNumber(rec, "threshold", i);
            // A detector fires only at or beyond its threshold.
            if (threshold <= 0.0 || std::abs(z) < threshold)
                bad("audit record " + std::to_string(i) +
                    " obs.alert z/threshold inconsistent");
            const double direction =
                requireNumber(rec, "direction", i);
            if (direction != 1.0 && direction != -1.0)
                bad("audit record " + std::to_string(i) +
                    " obs.alert \"direction\" not +/-1");
            if ((direction > 0.0) != (z >= 0.0))
                bad("audit record " + std::to_string(i) +
                    " obs.alert direction disagrees with z sign");
        } else {
            bad("audit record " + std::to_string(i) +
                " has unknown kind '" + kind.asString() + "'");
        }
    }

    const JsonValue *decisions = summary->find("decisions");
    if (!decisions || !decisions->isObject())
        bad("'" + path + "' summary lacks a \"decisions\" object");
    const auto check = [&](const char *key, std::size_t want) {
        if (decisions->numberOr(key, -1.0) !=
            static_cast<double>(want))
            bad("'" + path + "' summary \"" + std::string(key) +
                "\" count disagrees with the records array");
    };
    check("select", counts.selects);
    check("recycle", counts.recycles);
    check("withdraw", counts.withdraws);
    check("stale_skip", counts.staleSkips);
    check("fastcap_plan", counts.fastcapPlans);
    check("cuttlesys_plan", counts.cuttlesysPlans);
    check("obs_alert", counts.obsAlerts);
    check("misboost", counts.misboosts);
    check("cluster_rebalance", counts.clusterRebalances);
    const JsonValue *prediction = summary->find("prediction");
    if (!prediction || !prediction->isObject())
        bad("'" + path + "' summary lacks a \"prediction\" object");
    return counts;
}

AuditSummary
validateAudit(const std::string &path)
{
    const JsonValue root = parseFile(path);
    if (const JsonArray *docs = shardedDocs(root, path, "audit")) {
        AuditSummary total;
        for (std::size_t g = 0; g < docs->size(); ++g) {
            const AuditSummary one = validateAuditDoc(
                (*docs)[g], path + "#node" + std::to_string(g));
            total.records += one.records;
            total.selects += one.selects;
            total.recycles += one.recycles;
            total.withdraws += one.withdraws;
            total.staleSkips += one.staleSkips;
            total.fastcapPlans += one.fastcapPlans;
            total.cuttlesysPlans += one.cuttlesysPlans;
            total.obsAlerts += one.obsAlerts;
            total.misboosts += one.misboosts;
            total.scored += one.scored;
        }
        return total;
    }
    return validateAuditDoc(root, path);
}

void
validateMetricsDoc(const JsonValue &root, const std::string &path)
{
    if (!root.isObject())
        bad("'" + path + "' root is not an object");
    for (const char *section : {"counters", "gauges", "histograms"}) {
        const JsonValue *value = root.find(section);
        if (!value || !value->isObject())
            bad("'" + path + "' lacks a \"" + std::string(section) +
                "\" object");
    }
    // Histogram bucket self-checks: cumulative "le" counts must be
    // non-decreasing in bound order, the +inf bucket must equal the
    // count, and the sum must be present.
    for (const auto &[name, hist] : root.find("histograms")->asObject()) {
        if (!hist.isObject())
            bad("'" + path + "' histogram \"" + name +
                "\" is not an object");
        const double count = hist.numberOr("count", -1.0);
        if (count < 0.0)
            bad("'" + path + "' histogram \"" + name +
                "\" lacks a non-negative \"count\"");
        if (!hist.find("sum") || !hist.find("sum")->isNumber())
            bad("'" + path + "' histogram \"" + name +
                "\" lacks a numeric \"sum\"");
        const JsonValue *buckets = hist.find("buckets");
        if (!buckets || !buckets->isObject())
            bad("'" + path + "' histogram \"" + name +
                "\" lacks a \"buckets\" object");
        // Order by numeric bound, +inf last ("le" labels sort
        // lexicographically in the dump, not numerically).
        std::vector<std::pair<double, double>> byBound;
        for (const auto &[label, value] : buckets->asObject()) {
            if (!value.isNumber() || value.asNumber() < 0.0)
                bad("'" + path + "' histogram \"" + name +
                    "\" bucket \"" + label +
                    "\" is not a non-negative number");
            const double bound = label == "+inf"
                ? std::numeric_limits<double>::infinity()
                : std::strtod(label.c_str(), nullptr);
            byBound.emplace_back(bound, value.asNumber());
        }
        std::sort(byBound.begin(), byBound.end());
        double prev = 0.0;
        for (const auto &[bound, cum] : byBound) {
            if (cum < prev)
                bad("'" + path + "' histogram \"" + name +
                    "\" cumulative buckets decrease");
            prev = cum;
        }
        if (byBound.empty() ||
            !std::isinf(byBound.back().first) ||
            byBound.back().second != count)
            bad("'" + path + "' histogram \"" + name +
                "\" +inf bucket disagrees with count");
    }
    // Fault-injection counters are optional (chaos runs only), but any
    // that appear must be finite and non-negative — counters never run
    // backwards.
    const JsonValue *counters = root.find("counters");
    for (const auto &[name, value] : counters->asObject()) {
        if (name.rfind("faults.", 0) != 0 &&
            name.rfind("control.", 0) != 0)
            continue;
        if (!value.isNumber() || value.asNumber() < 0.0)
            bad("'" + path + "' counter \"" + name +
                "\" is not a non-negative number");
    }
}

JsonValue
validateMetrics(const std::string &path)
{
    JsonValue root = parseFile(path);
    if (const JsonArray *docs = shardedDocs(root, path, "metrics")) {
        for (std::size_t g = 0; g < docs->size(); ++g)
            validateMetricsDoc((*docs)[g],
                               path + "#node" + std::to_string(g));
        return root;
    }
    validateMetricsDoc(root, path);
    return root;
}

/**
 * Cross-check a single-node run's decision instants against its
 * "decision.<kind>_total" counters, kind by kind. A kind that never
 * fired has neither (its counter is created on first emission), so
 * an absent counter reads 0. Sharded runs are skipped: their trace
 * and metrics are per-node documents.
 */
void
crossCheckDecisions(const TraceSummary &trace,
                    const std::string &tracePath,
                    const JsonValue &metrics,
                    const std::string &metricsPath)
{
    if (trace.pids > 1 || shardedDocs(metrics, metricsPath, "metrics"))
        return;
    // kind -> (instants, counter)
    std::map<std::string, std::pair<double, double>> byKind;
    for (const auto &[kind, n] : trace.decisionsByKind)
        byKind[kind].first = static_cast<double>(n);
    for (const auto &[name, value] :
         metrics.find("counters")->asObject()) {
        std::string_view kind = name;
        if (!kind.starts_with("decision.") || !kind.ends_with("_total"))
            continue;
        kind.remove_prefix(std::string_view("decision.").size());
        kind.remove_suffix(std::string_view("_total").size());
        byKind[std::string(kind)].second = value.asNumber();
    }
    for (const auto &[kind, n] : byKind) {
        if (n.first == n.second)
            continue;
        std::ostringstream msg;
        msg << "'" << tracePath << "' holds " << n.first << " \"" << kind
            << "\" decision instants but '" << metricsPath
            << "' counts decision." << kind << "_total = " << n.second;
        bad(msg.str());
    }
}

struct TimeseriesSummary
{
    std::size_t series = 0;
    std::size_t points = 0;
    std::size_t alerts = 0;
};

/** Check an embedded SLO report (timeseries doc or sharded envelope). */
void
validateSloBlock(const JsonValue &slo, const std::string &path)
{
    if (!slo.isObject())
        bad("'" + path + "' \"slo\" is not an object");
    for (const char *key :
         {"fast_burn", "max_fast_burn", "max_slow_burn", "objective",
          "slow_burn", "target_s", "total", "violation_s",
          "violations"}) {
        if (slo.numberOr(key, -1.0) < 0.0)
            bad("'" + path + "' slo field \"" + std::string(key) +
                "\" missing or negative");
    }
    if (slo.numberOr("violations", 0.0) > slo.numberOr("total", 0.0))
        bad("'" + path + "' slo violations exceed total");
}

/**
 * Check the arbiter summary a cluster run attaches to its timeseries
 * envelope (see the cluster section of docs/OBSERVABILITY.md). Only
 * called when the "cluster" key is present — non-cluster envelopes
 * skip it gracefully.
 */
void
validateClusterBlock(const JsonValue &cluster, const std::string &path)
{
    if (!cluster.isObject())
        bad("'" + path + "' \"cluster\" is not an object");
    const double cap = cluster.numberOr("cap_watts", -1.0);
    if (cap <= 0.0)
        bad("'" + path + "' cluster \"cap_watts\" missing or not "
            "positive");
    if (cluster.stringOr("policy", "").empty())
        bad("'" + path + "' cluster lacks a \"policy\" string");
    for (const char *key : {"freeze_events", "grants", "rebalances",
                            "reports", "reports_dropped"}) {
        if (cluster.numberOr(key, -1.0) < 0.0)
            bad("'" + path + "' cluster field \"" + std::string(key) +
                "\" missing or negative");
    }
    if (cluster.numberOr("reports_dropped", 0.0) >
        cluster.numberOr("reports", 0.0))
        bad("'" + path + "' cluster dropped more reports than it saw");
    const JsonValue *nodes = cluster.find("nodes");
    if (!nodes || !nodes->isArray() || nodes->asArray().empty())
        bad("'" + path + "' cluster lacks a non-empty \"nodes\" "
            "array");
    double assumedTotal = 0.0;
    const JsonArray &nodeList = nodes->asArray();
    for (std::size_t i = 0; i < nodeList.size(); ++i) {
        const JsonValue &node = nodeList[i];
        if (!node.isObject())
            bad("cluster node " + std::to_string(i) +
                " is not an object");
        if (node.numberOr("node", -1.0) !=
            static_cast<double>(i))
            bad("cluster node " + std::to_string(i) +
                " \"node\" disagrees with its position");
        const double assumed = node.numberOr("assumed_w", -1.0);
        if (assumed < 0.0)
            bad("cluster node " + std::to_string(i) +
                " \"assumed_w\" missing or negative");
        assumedTotal += assumed;
        if (node.numberOr("last_grant_w", -1.0) < 0.0)
            bad("cluster node " + std::to_string(i) +
                " \"last_grant_w\" missing or negative");
        if (node.numberOr("reports", -1.0) < 0.0)
            bad("cluster node " + std::to_string(i) +
                " \"reports\" missing or negative");
        const JsonValue *frozen = node.find("frozen");
        if (!frozen || !frozen->isBool())
            bad("cluster node " + std::to_string(i) +
                " lacks a boolean \"frozen\"");
    }
    // The protocol's core invariant, checked on the artifact too:
    // assumed upper bounds never exceed the fleet cap.
    if (assumedTotal > cap + 1e-6)
        bad("'" + path + "' cluster assumed watts " +
            std::to_string(assumedTotal) + " exceed the cap " +
            std::to_string(cap));
}

/**
 * Validate a --timeseries-out JSON dump: delta-encoded series whose
 * array lengths agree with "n", non-negative time deltas, monotone
 * counters, a well-formed "alerts" array, and (when present) a
 * self-consistent "slo" object.
 */
TimeseriesSummary
validateTimeseriesDoc(const JsonValue &root, const std::string &path)
{
    if (!root.isObject())
        bad("'" + path + "' root is not an object");
    const double samples = root.numberOr("samples", -1.0);
    if (samples < 0.0)
        bad("'" + path + "' lacks a non-negative \"samples\"");
    const JsonValue *series = root.find("series");
    if (!series || !series->isObject())
        bad("'" + path + "' lacks a \"series\" object");

    TimeseriesSummary summary;
    for (const auto &[name, entry] : series->asObject()) {
        ++summary.series;
        if (!entry.isObject())
            bad("series \"" + name + "\" is not an object");
        const std::string kind = entry.stringOr("kind", "");
        if (kind != "counter" && kind != "gauge")
            bad("series \"" + name + "\" has unknown kind '" + kind +
                "'");
        if (!entry.find("unit") || !entry.find("unit")->isString())
            bad("series \"" + name + "\" lacks a \"unit\" string");
        const double n = entry.numberOr("n", -1.0);
        const double dropped = entry.numberOr("dropped", -1.0);
        if (n < 0.0 || dropped < 0.0)
            bad("series \"" + name +
                "\" lacks non-negative \"n\"/\"dropped\"");
        if (n + dropped > samples)
            bad("series \"" + name +
                "\" holds more points than the recorder sampled");
        entry.numberOr("t0_us", 0.0);
        const JsonValue *deltas = entry.find("dt_us");
        const JsonValue *values = entry.find("v");
        if (!deltas || !deltas->isArray() || !values ||
            !values->isArray())
            bad("series \"" + name +
                "\" lacks \"dt_us\"/\"v\" arrays");
        const std::size_t count = static_cast<std::size_t>(n);
        if (values->asArray().size() != count)
            bad("series \"" + name + "\" \"v\" length disagrees "
                "with \"n\"");
        if (deltas->asArray().size() != (count ? count - 1 : 0))
            bad("series \"" + name + "\" \"dt_us\" length is not "
                "n-1");
        for (const JsonValue &dt : deltas->asArray()) {
            if (!dt.isNumber() || dt.asNumber() < 0.0)
                bad("series \"" + name +
                    "\" has a negative or non-numeric time delta");
        }
        double prev = -std::numeric_limits<double>::infinity();
        for (const JsonValue &v : values->asArray()) {
            if (!v.isNumber())
                bad("series \"" + name +
                    "\" has a non-numeric value");
            if (kind == "counter" && v.asNumber() < prev)
                bad("series \"" + name +
                    "\" is a counter but decreases");
            prev = v.asNumber();
        }
        summary.points += count;
    }

    const JsonValue *alerts = root.find("alerts");
    if (!alerts || !alerts->isArray())
        bad("'" + path + "' lacks an \"alerts\" array");
    double lastT = -std::numeric_limits<double>::infinity();
    const JsonArray &alertList = alerts->asArray();
    for (std::size_t i = 0; i < alertList.size(); ++i) {
        const JsonValue &alert = alertList[i];
        if (!alert.isObject())
            bad("alert " + std::to_string(i) + " is not an object");
        if (!alert.find("series") ||
            !alert.find("series")->isString())
            bad("alert " + std::to_string(i) +
                " lacks a \"series\" string");
        const double t = requireNumber(alert, "t_s", i);
        if (t < lastT)
            bad("alert " + std::to_string(i) +
                " breaks timestamp monotonicity");
        lastT = t;
        requireNumber(alert, "value", i);
        requireNumber(alert, "mean", i);
        if (requireNumber(alert, "sigma", i) <= 0.0)
            bad("alert " + std::to_string(i) +
                " \"sigma\" not positive");
        const double z = requireNumber(alert, "z", i);
        const double direction = requireNumber(alert, "direction", i);
        if (direction != 1.0 && direction != -1.0)
            bad("alert " + std::to_string(i) +
                " \"direction\" not +/-1");
        if ((direction > 0.0) != (z >= 0.0))
            bad("alert " + std::to_string(i) +
                " direction disagrees with z sign");
        ++summary.alerts;
    }

    if (const JsonValue *slo = root.find("slo"))
        validateSloBlock(*slo, path);
    return summary;
}

TimeseriesSummary
validateTimeseries(const std::string &path)
{
    const JsonValue root = parseFile(path);
    if (const JsonArray *docs =
            shardedDocs(root, path, "timeseries")) {
        TimeseriesSummary total;
        for (std::size_t g = 0; g < docs->size(); ++g) {
            const TimeseriesSummary one = validateTimeseriesDoc(
                (*docs)[g], path + "#node" + std::to_string(g));
            total.series += one.series;
            total.points += one.points;
            total.alerts += one.alerts;
        }
        // The run-global SLO report lives on the envelope (per-node
        // documents never carry one: burn rates over a node's private
        // completions would not be the fleet SLO).
        if (const JsonValue *slo = root.find("slo"))
            validateSloBlock(*slo, path);
        // Cluster runs attach the arbiter summary to the envelope;
        // single-node and non-cluster fleets simply have no block.
        if (const JsonValue *cluster = root.find("cluster"))
            validateClusterBlock(*cluster, path);
        return total;
    }
    return validateTimeseriesDoc(root, path);
}

struct CritPathSummary
{
    std::size_t stages = 0;
    std::size_t signatures = 0;
    std::size_t intervals = 0;
    std::size_t misboosts = 0;
};

/**
 * Validate a --critpath-out JSON dump (schema powerchief-critpath-v1):
 * per-stage share statistics inside [0,1] with ordered quantiles,
 * non-negative segment totals, signature entries with positive counts,
 * a self-consistent controller block, and a per-interval log with
 * monotone timestamps whose agree/misboost totals match the controller
 * counters.
 */
CritPathSummary
validateCritPathDoc(const JsonValue &root, const std::string &path)
{
    if (!root.isObject())
        bad("'" + path + "' root is not an object");
    if (root.stringOr("schema", "") != "powerchief-critpath-v1")
        bad("'" + path + "' lacks schema \"powerchief-critpath-v1\"");
    const double queries = root.numberOr("queries", -1.0);
    if (queries < 0.0)
        bad("'" + path + "' lacks a non-negative \"queries\"");

    CritPathSummary summary;
    const JsonValue *stages = root.find("stages");
    if (!stages || !stages->isArray())
        bad("'" + path + "' lacks a \"stages\" array");
    double pathsTotal = 0.0;
    const JsonArray &stageList = stages->asArray();
    for (std::size_t i = 0; i < stageList.size(); ++i) {
        const JsonValue &st = stageList[i];
        if (!st.isObject())
            bad("critpath stage " + std::to_string(i) +
                " is not an object");
        requireNumber(st, "stage", i);
        for (const char *key : {"boosted_hops", "dominant",
                                "mean_served_mhz", "paths", "queue_s",
                                "redispatch_s", "serve_s", "wasted_s"}) {
            if (requireNumber(st, key, i) < 0.0)
                bad("critpath stage " + std::to_string(i) + " \"" +
                    key + "\" negative");
        }
        pathsTotal = std::max(pathsTotal, st.numberOr("paths", 0.0));
        const double p50 = requireNumber(st, "share_p50", i);
        const double p95 = requireNumber(st, "share_p95", i);
        const double p99 = requireNumber(st, "share_p99", i);
        const double mean = requireNumber(st, "share_mean", i);
        if (p50 < 0.0 || p99 > 1.0 || mean < 0.0 || mean > 1.0)
            bad("critpath stage " + std::to_string(i) +
                " share outside [0,1]");
        if (p50 > p95 || p95 > p99)
            bad("critpath stage " + std::to_string(i) +
                " share quantiles not ordered");
        ++summary.stages;
    }
    // A stage can appear on at most every profiled query's path.
    if (pathsTotal > queries)
        bad("'" + path + "' a stage holds more paths than queries");

    const JsonValue *sigs = root.find("signatures");
    if (!sigs || !sigs->isArray())
        bad("'" + path + "' lacks a \"signatures\" array");
    double lastCount = std::numeric_limits<double>::infinity();
    const JsonArray &sigList = sigs->asArray();
    for (std::size_t i = 0; i < sigList.size(); ++i) {
        const JsonValue &sig = sigList[i];
        if (!sig.isObject())
            bad("critpath signature " + std::to_string(i) +
                " is not an object");
        const JsonValue &name = requireField(sig, "signature", i);
        if (!name.isString() || name.asString().empty() ||
            name.asString()[0] != 's')
            bad("critpath signature " + std::to_string(i) +
                " is malformed");
        const double count = requireNumber(sig, "count", i);
        if (count <= 0.0)
            bad("critpath signature " + std::to_string(i) +
                " count not positive");
        // The export is top-K most-frequent-first.
        if (count > lastCount)
            bad("critpath signatures not sorted by count");
        lastCount = count;
        ++summary.signatures;
    }

    const JsonValue *controller = root.find("controller");
    if (!controller || !controller->isObject())
        bad("'" + path + "' lacks a \"controller\" object");
    for (const char *key : {"agree", "agreement_rate",
                            "boost_intervals", "intervals",
                            "mean_shortening_pct", "misboosts",
                            "scored"}) {
        if (!controller->find(key) ||
            !controller->find(key)->isNumber())
            bad("'" + path + "' controller lacks numeric \"" +
                std::string(key) + "\"");
    }
    const double agree = controller->numberOr("agree", 0.0);
    const double scored = controller->numberOr("scored", 0.0);
    const double intervalsN = controller->numberOr("intervals", 0.0);
    if (agree > scored || scored > intervalsN)
        bad("'" + path + "' controller agree/scored/intervals "
            "inconsistent");
    const double rate = controller->numberOr("agreement_rate", -1.0);
    if (rate < 0.0 || rate > 1.0)
        bad("'" + path + "' controller agreement_rate outside [0,1]");

    const JsonValue *intervals = root.find("intervals");
    if (!intervals || !intervals->isArray())
        bad("'" + path + "' lacks an \"intervals\" array");
    double lastT = -std::numeric_limits<double>::infinity();
    double agreeSeen = 0.0;
    double misboostSeen = 0.0;
    const JsonArray &ivList = intervals->asArray();
    for (std::size_t i = 0; i < ivList.size(); ++i) {
        const JsonValue &iv = ivList[i];
        if (!iv.isObject())
            bad("critpath interval " + std::to_string(i) +
                " is not an object");
        const double t = requireNumber(iv, "t_s", i);
        if (t < lastT)
            bad("critpath interval " + std::to_string(i) +
                " breaks timestamp monotonicity");
        lastT = t;
        if (requireNumber(iv, "interval", i) !=
            static_cast<double>(i + 1))
            bad("critpath interval " + std::to_string(i) +
                " has a non-contiguous \"interval\"");
        requireNumber(iv, "queries", i);
        requireNumber(iv, "dominant_stage", i);
        requireNumber(iv, "dominant_share", i);
        requireNumber(iv, "mean_crit_s", i);
        const JsonValue &boosted = requireField(iv, "boosted", i);
        if (!boosted.isArray())
            bad("critpath interval " + std::to_string(i) +
                " \"boosted\" not an array");
        const JsonValue &agreeFlag = requireField(iv, "agree", i);
        const JsonValue &misboostFlag =
            requireField(iv, "misboost", i);
        if (!agreeFlag.isBool() || !misboostFlag.isBool())
            bad("critpath interval " + std::to_string(i) +
                " agree/misboost not booleans");
        if (agreeFlag.asBool() && misboostFlag.asBool())
            bad("critpath interval " + std::to_string(i) +
                " both agree and misboost");
        if (agreeFlag.asBool())
            agreeSeen += 1.0;
        if (misboostFlag.asBool()) {
            misboostSeen += 1.0;
            ++summary.misboosts;
        }
        ++summary.intervals;
    }
    if (static_cast<double>(summary.intervals) != intervalsN ||
        agreeSeen != agree ||
        misboostSeen != controller->numberOr("misboosts", 0.0))
        bad("'" + path + "' controller counters disagree with the "
            "intervals array");
    return summary;
}

CritPathSummary
validateCritPath(const std::string &path)
{
    const JsonValue root = parseFile(path);
    if (const JsonArray *docs = shardedDocs(root, path, "critpath")) {
        CritPathSummary total;
        for (std::size_t g = 0; g < docs->size(); ++g) {
            const CritPathSummary one = validateCritPathDoc(
                (*docs)[g], path + "#node" + std::to_string(g));
            total.stages += one.stages;
            total.signatures += one.signatures;
            total.intervals += one.intervals;
            total.misboosts += one.misboosts;
        }
        return total;
    }
    return validateCritPathDoc(root, path);
}

} // namespace

int
main(int argc, char **argv)
{
    FlagSet flags("trace-validate");
    flags.addString("trace", "", "Chrome trace-event JSON to validate");
    flags.addString("metrics", "", "metrics registry JSON to validate");
    flags.addString("audit", "", "decision-audit JSON to validate");
    flags.addString("timeseries", "",
                    "timeseries JSON (--timeseries-out) to validate");
    flags.addString("critpath", "",
                    "critical-path JSON (--critpath-out) to validate");
    flags.addBool("require-audit-records", false,
                  "fail unless the audit log holds at least one "
                  "decision record");
    flags.addBool("require-spans", false,
                  "fail unless at least one serve span is present");
    flags.addBool("require-decisions", false,
                  "fail unless at least one control decision instant "
                  "event is present");
    if (!flags.parse(argc, argv)) {
        if (!flags.helpRequested())
            std::cerr << "error: " << flags.error() << "\n\n";
        flags.printUsage(std::cerr);
        return flags.helpRequested() ? 0 : 2;
    }

    const std::string tracePath = flags.getString("trace");
    const std::string metricsPath = flags.getString("metrics");
    const std::string auditPath = flags.getString("audit");
    const std::string timeseriesPath = flags.getString("timeseries");
    const std::string critpathPath = flags.getString("critpath");
    if (tracePath.empty() && metricsPath.empty() &&
        auditPath.empty() && timeseriesPath.empty() &&
        critpathPath.empty())
        bad("nothing to do: pass --trace=, --metrics=, --audit=, "
            "--timeseries= and/or --critpath=");

    TraceSummary summary;
    if (!tracePath.empty()) {
        summary = validateTrace(tracePath);
        if (flags.getBool("require-spans") && summary.serveSpans == 0)
            bad("'" + tracePath + "' contains no serve spans");
        if (flags.getBool("require-decisions") && summary.decisions == 0)
            bad("'" + tracePath + "' contains no decision events");
        std::printf("%s: ok (%zu events: %zu spans [%zu serve, %zu "
                    "wait, %zu control], %zu instants [%zu decisions], "
                    "%zu flows)\n",
                    tracePath.c_str(), summary.events, summary.spans,
                    summary.serveSpans, summary.waitSpans,
                    summary.controlSpans, summary.instants,
                    summary.decisions, summary.flows);
    }
    if (!metricsPath.empty()) {
        const JsonValue metrics = validateMetrics(metricsPath);
        if (!tracePath.empty())
            crossCheckDecisions(summary, tracePath, metrics,
                                metricsPath);
        std::printf("%s: ok\n", metricsPath.c_str());
    }
    if (!auditPath.empty()) {
        const AuditSummary audit = validateAudit(auditPath);
        if (flags.getBool("require-audit-records") &&
            audit.records == 0)
            bad("'" + auditPath + "' contains no decision records");
        std::printf("%s: ok (%zu records: %zu select [%zu scored], "
                    "%zu recycle, %zu withdraw, "
                    "%zu stale_skip, %zu plan, "
                    "%zu cluster_rebalance)\n",
                    auditPath.c_str(), audit.records, audit.selects,
                    audit.scored, audit.recycles, audit.withdraws,
                    audit.staleSkips,
                    audit.fastcapPlans + audit.cuttlesysPlans,
                    audit.clusterRebalances);
    }
    if (!timeseriesPath.empty()) {
        const TimeseriesSummary ts =
            validateTimeseries(timeseriesPath);
        std::printf("%s: ok (%zu series, %zu points, %zu alerts)\n",
                    timeseriesPath.c_str(), ts.series, ts.points,
                    ts.alerts);
    }
    if (!critpathPath.empty()) {
        const CritPathSummary cp = validateCritPath(critpathPath);
        std::printf("%s: ok (%zu stages, %zu signatures, "
                    "%zu intervals, %zu misboosts)\n",
                    critpathPath.c_str(), cp.stages, cp.signatures,
                    cp.intervals, cp.misboosts);
    }
    return 0;
}
