#include "cluster/arbiter.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace pc {

namespace {

/** Absorbs accumulated FP error in the conservation comparisons. */
constexpr double kClusterSlackWatts = 1e-6;

} // namespace

ClusterArbiter::ClusterArbiter(Simulator *sim, int numNodes,
                               const ClusterArbiterConfig &cfg,
                               std::unique_ptr<ClusterPolicy> policy,
                               AuditLog *audit, MetricsRegistry *metrics)
    : sim_(sim), cfg_(cfg), policy_(std::move(policy)), audit_(audit),
      metrics_(metrics)
{
    if (numNodes <= 0)
        fatal("ClusterArbiter needs a positive node count (got %d)",
              numNodes);
    if (cfg_.capWatts <= 0.0)
        fatal("ClusterArbiter needs a positive cluster cap (got %f W)",
              cfg_.capWatts);
    if (cfg_.rebalanceInterval <= SimTime::zero())
        fatal("ClusterArbiter needs a positive rebalance interval "
              "(got %f s)",
              cfg_.rebalanceInterval.toSec());
    if (!policy_)
        fatal("ClusterArbiter needs a ClusterPolicy "
              "(ClusterPolicyKind::None builds no arbiter)");
    if (cfg_.freezeAfter <= SimTime::zero())
        cfg_.freezeAfter = cfg_.rebalanceInterval * 3.0;
    if (cfg_.demandHalfLife <= SimTime::zero())
        cfg_.demandHalfLife = cfg_.rebalanceInterval * 2.0;

    const double share = cfg_.capWatts / static_cast<double>(numNodes);
    nodes_.resize(static_cast<std::size_t>(numNodes));
    for (NodeState &st : nodes_) {
        st.assumedWatts = share;
        st.lastGrantWatts = share;
    }
}

void
ClusterArbiter::start()
{
    checkConservation("start");
    sim_->schedulePeriodic(cfg_.rebalanceInterval,
                           cfg_.rebalanceInterval,
                           [this] { rebalance(); });
}

double
ClusterArbiter::assumedCapWatts(int node) const
{
    return nodes_.at(static_cast<std::size_t>(node)).assumedWatts;
}

double
ClusterArbiter::assumedTotalWatts() const
{
    double sum = 0.0;
    for (const NodeState &st : nodes_)
        sum += st.assumedWatts;
    return sum;
}

double
ClusterArbiter::lastGrantWatts(int node) const
{
    return nodes_.at(static_cast<std::size_t>(node)).lastGrantWatts;
}

bool
ClusterArbiter::isFrozen(int node) const
{
    return nodes_.at(static_cast<std::size_t>(node)).frozen;
}

double
ClusterArbiter::reportAgeSec(const NodeState &st, SimTime now) const
{
    // A node that never reported ages from the simulation start, so a
    // silent-from-birth node is eventually frozen like any other.
    return (now - st.lastReportAt).toSec();
}

double
ClusterArbiter::demandScore(const NodeState &st, SimTime now) const
{
    if (!st.reported)
        return 0.0;
    // Tail latency in milliseconds plus queued work: both "watts would
    // help here" signals, deliberately coarse — only the relative
    // weight across nodes matters to the policies.
    const double base =
        st.last.p99Sec * 1e3 + st.last.queueBacklog;
    const double age = reportAgeSec(st, now);
    const double halfLife = cfg_.demandHalfLife.toSec();
    // Staleness decay: a lost report must not keep steering watts at
    // full strength forever, so demand halves every halfLife seconds.
    return base * std::exp2(-age / halfLife);
}

void
ClusterArbiter::onReport(const ClusterNodeReport &report)
{
    ++reportsSeen_;
    if (metrics_)
        metrics_->counter("cluster.reports_total").add(1.0);
    if (report.node < 0 ||
        static_cast<std::size_t>(report.node) >= nodes_.size())
        panic("cluster report from unknown node %d", report.node);
    NodeState &st = nodes_[static_cast<std::size_t>(report.node)];
    // Duplicate or reordered delivery: an older snapshot must never
    // overwrite a newer one, or a decrease could be "unconfirmed".
    if (st.reported && report.seq <= st.lastReportSeq) {
        ++reportsDropped_;
        if (metrics_)
            metrics_->counter("cluster.reports_dropped_total").add(1.0);
        return;
    }
    // The node-side budget can never exceed the share this arbiter
    // granted; a violation means the conservation protocol is broken.
    if (report.effectiveCapWatts >
        st.assumedWatts + kClusterSlackWatts)
        fatal("cluster conservation violated: node %d reports "
              "effective cap %.9f W above its assumed share %.9f W",
              report.node, report.effectiveCapWatts, st.assumedWatts);
    st.lastReportSeq = report.seq;
    st.reported = true;
    st.lastReportAt = sim_->now();
    st.last = report;
    // Confirmation: the node's effective cap bounds its consumption,
    // so assumed can drop to it — but never below the last grant (an
    // increase in flight may still raise the node up to that target),
    // and never *up* (monotone-safe under reordered duplicates).
    st.assumedWatts =
        std::min(st.assumedWatts,
                 std::max(report.effectiveCapWatts, st.lastGrantWatts));
}

void
ClusterArbiter::sendGrant(int node, double targetWatts)
{
    NodeState &st = nodes_[static_cast<std::size_t>(node)];
    st.lastGrantWatts = targetWatts;
    ClusterGrant grant;
    grant.node = node;
    grant.seq = ++st.grantSeq;
    grant.targetCapWatts = targetWatts;
    ++grantsSent_;
    if (metrics_)
        metrics_->counter("cluster.grants_total").add(1.0);
    if (grantSink_)
        grantSink_(grant);
}

void
ClusterArbiter::rebalance()
{
    const SimTime now = sim_->now();
    ++rebalances_;
    if (metrics_)
        metrics_->counter("cluster.rebalances_total").add(1.0);

    const double equalShare =
        cfg_.capWatts / static_cast<double>(nodes_.size());
    const double floorWatts = cfg_.floorFraction * equalShare;
    const double freezeAfterSec = cfg_.freezeAfter.toSec();

    views_.assign(nodes_.size(), ClusterNodeView{});
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        NodeState &st = nodes_[i];
        const double age = reportAgeSec(st, now);
        const bool frozen = age > freezeAfterSec;
        if (frozen && !st.frozen) {
            ++freezeEvents_;
            if (metrics_)
                metrics_->counter("cluster.freeze_events_total")
                    .add(1.0);
        }
        st.frozen = frozen;

        ClusterNodeView &view = views_[i];
        view.node = static_cast<int>(i);
        view.assumedCapWatts = st.assumedWatts;
        view.floorWatts = floorWatts;
        view.demand = demandScore(st, now);
        view.frozen = frozen;
    }

    policy_->split(cfg_.capWatts, views_, &targets_);
    if (targets_.size() != nodes_.size())
        panic("ClusterPolicy %s returned %zu targets for %zu nodes",
              policy_->name(), targets_.size(), nodes_.size());

    ClusterDecision decision;
    decision.t = now;
    decision.round = rebalances_;
    decision.capWatts = cfg_.capWatts;
    decision.nodes.resize(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        ClusterNodeDecision &nd = decision.nodes[i];
        nd.node = static_cast<int>(i);
        nd.assumedBeforeWatts = nodes_[i].assumedWatts;
        nd.demand = views_[i].demand;
        nd.reportAgeSec = reportAgeSec(nodes_[i], now);
        nd.frozen = nodes_[i].frozen;
        // Frozen nodes are pinned at their assumed share no matter
        // what the policy proposed; unfrozen targets are clamped to
        // non-negative watts.
        nd.targetWatts = nodes_[i].frozen
            ? nodes_[i].assumedWatts
            : std::max(targets_[i], 0.0);
    }

    // Phase 1 — decreases. Sending a lower target never frees watts
    // here: assumed stays at the old bound until a report confirms the
    // node actually came down (a lost decrease keeps its watts pinned).
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        ClusterNodeDecision &nd = decision.nodes[i];
        NodeState &st = nodes_[i];
        if (st.frozen)
            continue;
        if (nd.targetWatts < st.assumedWatts - kClusterSlackWatts &&
            std::abs(nd.targetWatts - st.lastGrantWatts) >
                kClusterSlackWatts) {
            sendGrant(static_cast<int>(i), nd.targetWatts);
            nd.granted = true;
        }
    }

    // Phase 2 — increases, funded only from the confirmed-free pool.
    // Each granted increase debits assumed immediately: if the grant
    // is then lost, the watts are wasted, never handed out twice.
    double freeWatts = cfg_.capWatts - assumedTotalWatts();
    double wantedIncrease = 0.0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const NodeState &st = nodes_[i];
        if (st.frozen)
            continue;
        const double inc =
            decision.nodes[i].targetWatts - st.assumedWatts;
        if (inc > kClusterSlackWatts)
            wantedIncrease += inc;
    }
    if (wantedIncrease > 0.0 && freeWatts > kClusterSlackWatts) {
        const double scale =
            std::min(1.0, freeWatts / wantedIncrease);
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
            NodeState &st = nodes_[i];
            ClusterNodeDecision &nd = decision.nodes[i];
            if (st.frozen)
                continue;
            const double inc = nd.targetWatts - st.assumedWatts;
            if (inc <= kClusterSlackWatts)
                continue;
            const double give = inc * scale;
            st.assumedWatts += give;
            sendGrant(static_cast<int>(i), st.assumedWatts);
            nd.granted = true;
        }
    }

    for (std::size_t i = 0; i < nodes_.size(); ++i)
        decision.nodes[i].assumedAfterWatts = nodes_[i].assumedWatts;
    decision.assumedTotalWatts = assumedTotalWatts();

    checkConservation("rebalance");

    if (audit_ && audit_->enabled()) {
        for (const ClusterNodeDecision &nd : decision.nodes)
            audit_->recordClusterRebalance(
                nd.node, decision.round, nd.assumedBeforeWatts,
                nd.assumedAfterWatts, nd.demand, nd.reportAgeSec,
                nd.frozen, nd.granted);
    }
    publishGauges();
    if (decisionProbe_)
        decisionProbe_(decision);
}

void
ClusterArbiter::checkConservation(const char *when) const
{
    const double total = assumedTotalWatts();
    if (total > cfg_.capWatts + kClusterSlackWatts)
        fatal("cluster conservation violated at %s: assumed total "
              "%.9f W exceeds the cluster cap %.9f W",
              when, total, cfg_.capWatts);
}

void
ClusterArbiter::publishGauges()
{
    if (!metrics_)
        return;
    const double total = assumedTotalWatts();
    metrics_->gauge("cluster.cap_watts", "watts").set(cfg_.capWatts);
    metrics_->gauge("cluster.assumed_watts", "watts").set(total);
    metrics_->gauge("cluster.free_watts", "watts")
        .set(std::max(cfg_.capWatts - total, 0.0));
    double frozen = 0.0;
    for (const NodeState &st : nodes_)
        frozen += st.frozen ? 1.0 : 0.0;
    metrics_->gauge("cluster.frozen_nodes").set(frozen);
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const std::string prefix =
            "cluster.n" + std::to_string(i) + ".";
        metrics_->gauge(prefix + "cap_watts", "watts")
            .set(nodes_[i].assumedWatts);
        metrics_->gauge(prefix + "demand")
            .set(demandScore(nodes_[i], sim_->now()));
    }
}

JsonValue
ClusterArbiter::summaryJson() const
{
    JsonObject o;
    o["cap_watts"] = JsonValue(cfg_.capWatts);
    o["freeze_events"] =
        JsonValue(static_cast<double>(freezeEvents_));
    o["grants"] = JsonValue(static_cast<double>(grantsSent_));
    JsonArray nodes;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const NodeState &st = nodes_[i];
        JsonObject n;
        n["assumed_w"] = JsonValue(st.assumedWatts);
        n["frozen"] = JsonValue(st.frozen);
        n["last_grant_w"] = JsonValue(st.lastGrantWatts);
        n["node"] = JsonValue(static_cast<int>(i));
        n["reports"] =
            JsonValue(static_cast<double>(st.lastReportSeq));
        nodes.push_back(JsonValue(std::move(n)));
    }
    o["nodes"] = JsonValue(std::move(nodes));
    o["policy"] = JsonValue(policy_->name());
    o["rebalances"] = JsonValue(static_cast<double>(rebalances_));
    o["reports"] = JsonValue(static_cast<double>(reportsSeen_));
    o["reports_dropped"] =
        JsonValue(static_cast<double>(reportsDropped_));
    return JsonValue(std::move(o));
}

} // namespace pc
