#!/usr/bin/env python3
"""Render a self-contained HTML dashboard for PowerChief run telemetry.

Usage:
    report_html.py RUN.timeseries.json ... --out dashboard.html
    report_html.py results/                --out dashboard.html
    report_html.py --check [PATH ...]

Inputs are --timeseries-out JSON dumps and/or --critpath-out JSON
dumps (one per run; a directory is scanned recursively for "*.json"
files that carry either schema). The output is ONE html file with zero
external dependencies —
no JS frameworks, no CDN fonts, no image files: every chart is an
inline SVG sparkline, so the dashboard renders offline and diffs
cleanly in review.

Sections per run:
  * run header (scenario, sample count, series count),
  * the SLO burn-rate table when the dump embeds an "slo" report,
  * the anomaly-alert timeline (obs.alert records plotted over the
    sampled horizon, spikes up / drops down),
  * controller-health sparklines (health.* taps, budget headroom),
  * per-stage power/latency sparklines and the remaining series grouped
    by metric namespace.

Critical-path documents (schema "powerchief-critpath-v1", produced by
--critpath-out) get their own section: a per-stage waterfall of the
aggregate queue/serve/wasted/re-dispatch segments, the share
quantiles, the top path signatures, and the controller's
bottleneck-agreement scoring with a per-interval agree/misboost strip.

--check runs the self-test: renders a synthetic document (plus any
PATHs given) and verifies the structural markers, exiting non-zero on
the first failure. Wired into tools/check.sh and ctest so a bitrotted
renderer fails the build gates.

Stdlib only: no third-party imports.
"""

import argparse
import html
import json
import os
import sys

SPARK_W = 260
SPARK_H = 48
PAD = 4

CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2em auto; max-width: 72em; color: #1a202c; }
h1 { border-bottom: 2px solid #2b6cb0; padding-bottom: .2em; }
h2 { margin-top: 2em; color: #2b6cb0; }
h3 { margin-bottom: .3em; color: #4a5568; }
table { border-collapse: collapse; margin: .5em 0; }
th, td { border: 1px solid #cbd5e0; padding: .25em .6em;
         font-size: .85em; text-align: right; }
th { background: #edf2f7; }
.series-grid { display: flex; flex-wrap: wrap; gap: .8em; }
.spark { border: 1px solid #e2e8f0; border-radius: 4px;
         padding: .4em .6em; background: #fff; }
.spark .name { font-size: .75em; color: #4a5568;
               font-family: monospace; }
.spark .stats { font-size: .7em; color: #718096; }
.badge { display: inline-block; border-radius: 3px; color: #fff;
         padding: .1em .5em; font-size: .8em; }
.badge.ok { background: #2f855a; }
.badge.warn { background: #c05621; }
.badge.bad { background: #c53030; }
.alert-row { font-family: monospace; font-size: .8em; }
footer { margin-top: 3em; color: #718096; font-size: .8em; }
"""


def fail(msg):
    print("report_html: " + msg, file=sys.stderr)
    sys.exit(1)


def decode_times(entry):
    """Reverse the delta encoding into absolute microsecond stamps."""
    n = int(entry.get("n", 0))
    if n <= 0:
        return []
    times = [float(entry.get("t0_us", 0))]
    for dt in entry.get("dt_us", []):
        times.append(times[-1] + float(dt))
    if len(times) != n:
        fail("series has %d stamps for n=%d" % (len(times), n))
    return times


def fmt(value):
    if value == int(value) and abs(value) < 1e15:
        return "%d" % int(value)
    return "%.4g" % value


def sparkline(name, times, values, unit=""):
    """One titled sparkline card (inline SVG polyline)."""
    stats = ""
    if values:
        lo, hi = min(values), max(values)
        last = values[-1]
        stats = "min %s &middot; max %s &middot; last %s" % (
            fmt(lo),
            fmt(hi),
            fmt(last),
        )
        span = (hi - lo) or 1.0
        t_lo, t_hi = times[0], times[-1]
        t_span = (t_hi - t_lo) or 1.0
        pts = []
        for t, v in zip(times, values):
            x = PAD + (t - t_lo) / t_span * (SPARK_W - 2 * PAD)
            y = SPARK_H - PAD - (v - lo) / span * (SPARK_H - 2 * PAD)
            pts.append("%.1f,%.1f" % (x, y))
        poly = (
            '<polyline fill="none" stroke="#2b6cb0" stroke-width="1.2" '
            'points="%s"/>' % " ".join(pts)
        )
    else:
        poly = (
            '<text x="%d" y="%d" font-size="10" fill="#a0aec0">'
            "no samples</text>" % (SPARK_W // 3, SPARK_H // 2)
        )
    label = html.escape(name) + (
        " <i>(%s)</i>" % html.escape(unit) if unit else ""
    )
    return (
        '<div class="spark"><div class="name">%s</div>'
        '<svg width="%d" height="%d" viewBox="0 0 %d %d">%s</svg>'
        '<div class="stats">%s</div></div>'
        % (label, SPARK_W, SPARK_H, SPARK_W, SPARK_H, poly, stats)
    )


def alert_timeline(alerts, horizon_s):
    """Alerts plotted over the run horizon: spikes up, drops down."""
    width, height, mid = 2 * SPARK_W, 64, 32
    marks = [
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#cbd5e0"/>'
        % (PAD, mid, width - PAD, mid)
    ]
    span = horizon_s or 1.0
    for alert in alerts:
        x = PAD + alert["t_s"] / span * (width - 2 * PAD)
        up = alert["direction"] > 0
        color = "#c53030" if up else "#2c7a7b"
        y = mid - 18 if up else mid + 18
        marks.append(
            '<circle cx="%.1f" cy="%d" r="4" fill="%s">'
            "<title>%s z=%.2f @ %.1fs</title></circle>"
            % (
                x,
                y,
                color,
                html.escape(alert.get("series", "?")),
                alert.get("z", 0.0),
                alert.get("t_s", 0.0),
            )
        )
    return '<svg width="%d" height="%d">%s</svg>' % (
        width,
        height,
        "".join(marks),
    )


def slo_badge(slo):
    burn = max(slo.get("fast_burn", 0.0), slo.get("slow_burn", 0.0))
    if burn < 1.0:
        return '<span class="badge ok">SLO healthy</span>'
    if burn < 2.0:
        return '<span class="badge warn">SLO burning</span>'
    return '<span class="badge bad">SLO violated</span>'


def slo_table(slo):
    head = (
        "<tr><th>target (s)</th><th>objective</th><th>total</th>"
        "<th>violations</th><th>violation (s)</th><th>fast burn</th>"
        "<th>slow burn</th><th>max fast</th><th>max slow</th></tr>"
    )
    row = "<tr>" + "".join(
        "<td>%s</td>" % fmt(float(slo.get(key, 0.0)))
        for key in (
            "target_s",
            "objective",
            "total",
            "violations",
            "violation_s",
            "fast_burn",
            "slow_burn",
            "max_fast_burn",
            "max_slow_burn",
        )
    ) + "</tr>"
    return "<table>%s%s</table>" % (head, row)


def group_of(name):
    if name.startswith("health."):
        return "Controller health"
    if name.startswith("latency.stage") or name.startswith("app.stage"):
        return "Per-stage latency & queues"
    if name.startswith("power.") or name.startswith("recycle."):
        return "Power"
    if name.startswith("slo."):
        return "SLO burn"
    if name.startswith("decision.") or name.startswith("control."):
        return "Control plane"
    if name.startswith("faults.") or name.startswith("rpc."):
        return "Faults & RPC"
    return "Other series"


GROUP_ORDER = [
    "Controller health",
    "SLO burn",
    "Per-stage latency & queues",
    "Power",
    "Control plane",
    "Faults & RPC",
    "Other series",
]


def render_run(name, doc):
    out = ["<h2>%s</h2>" % html.escape(name)]
    series = doc.get("series", {})
    samples = int(doc.get("samples", 0))
    out.append(
        "<p>%d samples &middot; %d series &middot; %d alerts</p>"
        % (samples, len(series), len(doc.get("alerts", [])))
    )

    slo = doc.get("slo")
    if isinstance(slo, dict):
        out.append("<h3>SLO %s</h3>" % slo_badge(slo))
        out.append(slo_table(slo))

    horizon_s = 0.0
    for entry in series.values():
        times = decode_times(entry)
        if times:
            horizon_s = max(horizon_s, times[-1] / 1e6)

    alerts = doc.get("alerts", [])
    out.append("<h3>Anomaly alerts (%d)</h3>" % len(alerts))
    if alerts:
        out.append(alert_timeline(alerts, horizon_s))
        out.append("<table><tr><th>t (s)</th><th>series</th>"
                   "<th>value</th><th>mean</th><th>z</th>"
                   "<th>dir</th></tr>")
        for alert in alerts:
            out.append(
                '<tr class="alert-row"><td>%.2f</td><td>%s</td>'
                "<td>%s</td><td>%s</td><td>%.2f</td><td>%s</td></tr>"
                % (
                    alert.get("t_s", 0.0),
                    html.escape(alert.get("series", "?")),
                    fmt(alert.get("value", 0.0)),
                    fmt(alert.get("mean", 0.0)),
                    alert.get("z", 0.0),
                    "spike" if alert.get("direction", 0) > 0 else "drop",
                )
            )
        out.append("</table>")
    else:
        out.append("<p>none</p>")

    groups = {}
    for sname in sorted(series):
        groups.setdefault(group_of(sname), []).append(sname)
    for group in GROUP_ORDER:
        names = groups.get(group)
        if not names:
            continue
        out.append("<h3>%s</h3>" % html.escape(group))
        out.append('<div class="series-grid">')
        for sname in names:
            entry = series[sname]
            out.append(
                sparkline(
                    sname,
                    [t / 1e6 for t in decode_times(entry)],
                    entry.get("v", []),
                    entry.get("unit", ""),
                )
            )
        out.append("</div>")
    return "".join(out)


# Segment palette of the critical-path waterfall (keys are the JSON
# field prefixes of the per-stage totals).
CP_SEGMENTS = [
    ("queue_s", "queue", "#ecc94b"),
    ("serve_s", "serve", "#2b6cb0"),
    ("wasted_s", "wasted", "#c53030"),
    ("redispatch_s", "re-dispatch", "#805ad5"),
]


def critpath_waterfall(stages):
    """Per-stage horizontal stacked bars of the aggregate segments."""
    width, row_h, label_w = 2 * SPARK_W, 22, 46
    totals = [
        sum(float(st.get(key, 0.0)) for key, _label, _c in CP_SEGMENTS)
        for st in stages
    ]
    span = max(totals) or 1.0
    rows = []
    for idx, st in enumerate(stages):
        y = PAD + idx * row_h
        rows.append(
            '<text x="%d" y="%d" font-size="11" fill="#4a5568">'
            "s%d</text>" % (PAD, y + 14, int(st.get("stage", idx)))
        )
        x = float(label_w)
        for key, label, color in CP_SEGMENTS:
            sec = float(st.get(key, 0.0))
            if sec <= 0.0:
                continue
            w = sec / span * (width - label_w - PAD)
            rows.append(
                '<rect x="%.1f" y="%d" width="%.1f" height="%d" '
                'fill="%s"><title>%s %.4g s</title></rect>'
                % (x, y, max(w, 0.5), row_h - 6, color, label, sec)
            )
            x += w
    height = PAD * 2 + len(stages) * row_h
    legend = " &middot; ".join(
        '<span style="color:%s">&#9632;</span> %s' % (color, label)
        for _key, label, color in CP_SEGMENTS
    )
    return (
        '<svg class="waterfall" width="%d" height="%d">%s</svg>'
        '<div class="stats">%s</div>'
        % (width, height, "".join(rows), legend)
    )


def critpath_interval_strip(intervals):
    """Agree/misboost strip: one dot per control interval."""
    width, height, mid = 2 * SPARK_W, 40, 20
    marks = [
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#cbd5e0"/>'
        % (PAD, mid, width - PAD, mid)
    ]
    span = float(len(intervals)) or 1.0
    for idx, iv in enumerate(intervals):
        x = PAD + (idx + 0.5) / span * (width - 2 * PAD)
        if iv.get("agree"):
            color, y = "#2f855a", mid - 8
        elif iv.get("misboost"):
            color, y = "#c53030", mid + 8
        else:
            color, y = "#a0aec0", mid
        marks.append(
            '<circle cx="%.1f" cy="%d" r="3" fill="%s">'
            "<title>interval %d: dominant s%d @ %.1fs</title></circle>"
            % (
                x,
                y,
                color,
                int(iv.get("interval", idx + 1)),
                int(iv.get("dominant_stage", -1)),
                float(iv.get("t_s", 0.0)),
            )
        )
    return '<svg width="%d" height="%d">%s</svg>' % (
        width,
        height,
        "".join(marks),
    )


def render_critpath(name, doc):
    out = ["<h2>%s &mdash; critical path</h2>" % html.escape(name)]
    stages = doc.get("stages", [])
    ctl = doc.get("controller", {})
    out.append(
        "<p>%d queries profiled &middot; %d stages &middot; "
        "%d control intervals</p>"
        % (
            int(doc.get("queries", 0)),
            len(stages),
            int(ctl.get("intervals", 0)),
        )
    )

    out.append("<h3>Critical-path waterfall</h3>")
    if stages:
        out.append(critpath_waterfall(stages))
        out.append(
            "<table><tr><th>stage</th><th>paths</th><th>dominant</th>"
            "<th>share mean</th><th>share p50</th><th>share p95</th>"
            "<th>share p99</th><th>boosted hops</th>"
            "<th>mean MHz</th></tr>"
        )
        for st in stages:
            out.append(
                "<tr><td>s%d</td><td>%d</td><td>%d</td><td>%.3f</td>"
                "<td>%.3f</td><td>%.3f</td><td>%.3f</td><td>%d</td>"
                "<td>%.0f</td></tr>"
                % (
                    int(st.get("stage", -1)),
                    int(st.get("paths", 0)),
                    int(st.get("dominant", 0)),
                    float(st.get("share_mean", 0.0)),
                    float(st.get("share_p50", 0.0)),
                    float(st.get("share_p95", 0.0)),
                    float(st.get("share_p99", 0.0)),
                    int(st.get("boosted_hops", 0)),
                    float(st.get("mean_served_mhz", 0.0)),
                )
            )
        out.append("</table>")
    else:
        out.append("<p>no profiled queries</p>")

    signatures = doc.get("signatures", [])
    out.append("<h3>Top path signatures</h3>")
    if signatures:
        out.append("<table><tr><th>signature</th><th>count</th></tr>")
        for sig in signatures:
            out.append(
                '<tr><td style="text-align:left;font-family:monospace">'
                "%s</td><td>%d</td></tr>"
                % (
                    html.escape(sig.get("signature", "?")),
                    int(sig.get("count", 0)),
                )
            )
        out.append("</table>")
    else:
        out.append("<p>none</p>")

    out.append("<h3>Bottleneck agreement</h3>")
    scored = int(ctl.get("scored", 0))
    rate = float(ctl.get("agreement_rate", 0.0))
    badge = "ok" if rate >= 0.5 or scored == 0 else "warn"
    if int(ctl.get("misboosts", 0)) > scored / 2 and scored:
        badge = "bad"
    out.append(
        '<p><span class="badge %s">agreement %.1f%%</span> '
        "%d/%d scored intervals agree &middot; %d boosted &middot; "
        "%d misboosts &middot; mean shortening %.2f%%</p>"
        % (
            badge,
            100.0 * rate,
            int(ctl.get("agree", 0)),
            scored,
            int(ctl.get("boost_intervals", 0)),
            int(ctl.get("misboosts", 0)),
            float(ctl.get("mean_shortening_pct", 0.0)),
        )
    )
    intervals = doc.get("intervals", [])
    if intervals:
        out.append(critpath_interval_strip(intervals))
    return "".join(out)


def cluster_section(cluster):
    """The arbiter summary a fleet envelope may carry ("cluster")."""
    out = ["<h3>Cluster arbiter</h3>"]
    out.append(
        "<p>policy <b>%s</b> &middot; cap %s W &middot; "
        "%d rebalances &middot; %d grants &middot; "
        "%d reports (%d dropped) &middot; %d freeze events</p>"
        % (
            html.escape(str(cluster.get("policy", "?"))),
            fmt(float(cluster.get("cap_watts", 0.0))),
            int(cluster.get("rebalances", 0)),
            int(cluster.get("grants", 0)),
            int(cluster.get("reports", 0)),
            int(cluster.get("reports_dropped", 0)),
            int(cluster.get("freeze_events", 0)),
        )
    )
    nodes = cluster.get("nodes", [])
    if nodes:
        out.append(
            "<table><tr><th>node</th><th>assumed W</th>"
            "<th>last grant W</th><th>frozen</th>"
            "<th>reports</th></tr>"
        )
        for node in nodes:
            out.append(
                "<tr><td>n%d</td><td>%s</td><td>%s</td>"
                "<td>%s</td><td>%d</td></tr>"
                % (
                    int(node.get("node", -1)),
                    fmt(float(node.get("assumed_w", 0.0))),
                    fmt(float(node.get("last_grant_w", 0.0))),
                    "yes" if node.get("frozen") else "no",
                    int(node.get("reports", 0)),
                )
            )
        out.append("</table>")
    return "".join(out)


def render_fleet(name, doc):
    """A powerchief-sharded-v1 timeseries envelope: fleet header
    (envelope-level SLO and, when an arbiter ran, its cluster
    summary), then one run section per node document."""
    out = ["<h2>%s &mdash; fleet (%d nodes)</h2>"
           % (html.escape(name), len(doc.get("shards", [])))]
    slo = doc.get("slo")
    if isinstance(slo, dict):
        out.append("<h3>Fleet SLO %s</h3>" % slo_badge(slo))
        out.append(slo_table(slo))
    cluster = doc.get("cluster")
    if isinstance(cluster, dict):
        out.append(cluster_section(cluster))
    else:
        out.append("<p>no cluster arbiter (static split)</p>")
    for g, node_doc in enumerate(doc.get("shards", [])):
        if is_timeseries_doc(node_doc):
            out.append(render_run("%s · node%d" % (name, g), node_doc))
    return "".join(out)


def render(docs):
    body = ["<h1>PowerChief run dashboard</h1>"]
    for name, doc in docs:
        if is_critpath_doc(doc):
            body.append(render_critpath(name, doc))
        elif is_sharded_timeseries(doc):
            body.append(render_fleet(name, doc))
        else:
            body.append(render_run(name, doc))
    body.append(
        "<footer>generated by tools/report_html.py &mdash; "
        "self-contained, no external assets</footer>"
    )
    return (
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\">"
        "<title>PowerChief dashboard</title><style>%s</style></head>"
        "<body>%s</body></html>" % (CSS, "".join(body))
    )


def is_timeseries_doc(doc):
    return (
        isinstance(doc, dict)
        and isinstance(doc.get("series"), dict)
        and "samples" in doc
    )


def is_critpath_doc(doc):
    return (
        isinstance(doc, dict)
        and doc.get("schema") == "powerchief-critpath-v1"
    )


def is_sharded_timeseries(doc):
    """A fleet run's merged envelope (see docs/OBSERVABILITY.md)."""
    return (
        isinstance(doc, dict)
        and doc.get("schema") == "powerchief-sharded-v1"
        and doc.get("artifact") == "timeseries"
        and isinstance(doc.get("shards"), list)
    )


def collect(paths):
    """Expand files/directories into (name, parsed doc) pairs."""
    docs = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, files in sorted(os.walk(path)):
                for fname in sorted(files):
                    if not fname.endswith(".json"):
                        continue
                    full = os.path.join(root, fname)
                    try:
                        with open(full, "rb") as handle:
                            doc = json.load(handle)
                    except (OSError, ValueError):
                        continue
                    if (is_timeseries_doc(doc) or is_critpath_doc(doc)
                            or is_sharded_timeseries(doc)):
                        docs.append(
                            (doc.get("scenario") or fname, doc)
                        )
        else:
            try:
                with open(path, "rb") as handle:
                    doc = json.load(handle)
            except OSError as err:
                fail("cannot open %r: %s" % (path, err))
            except ValueError as err:
                fail("%r is not valid JSON: %s" % (path, err))
            if (not is_timeseries_doc(doc) and not is_critpath_doc(doc)
                    and not is_sharded_timeseries(doc)):
                fail("%r carries neither the timeseries schema "
                     "(samples + series), the critpath schema "
                     "(powerchief-critpath-v1), nor a sharded "
                     "timeseries envelope (powerchief-sharded-v1)"
                     % path)
            docs.append((doc.get("scenario") or path, doc))
    return docs


def synthetic_doc():
    """A small in-memory document exercising every renderer path."""
    return {
        "samples": 4,
        "scenario": "selftest",
        "series": {
            "health.e2e_p99_s": {
                "kind": "gauge",
                "unit": "seconds",
                "n": 4,
                "dropped": 0,
                "t0_us": 1000000,
                "dt_us": [1000000, 1000000, 1000000],
                "v": [0.10, 0.12, 0.55, 0.11],
            },
            "control.intervals_total": {
                "kind": "counter",
                "unit": "",
                "n": 4,
                "dropped": 0,
                "t0_us": 1000000,
                "dt_us": [1000000, 1000000, 1000000],
                "v": [1, 2, 3, 4],
            },
            "power.headroom_watts": {
                "kind": "gauge",
                "unit": "watts",
                "n": 0,
                "dropped": 0,
                "t0_us": 0,
                "dt_us": [],
                "v": [],
            },
        },
        "alerts": [
            {
                "t_s": 3.0,
                "series": "health.e2e_p99_s",
                "value": 0.55,
                "mean": 0.11,
                "sigma": 0.01,
                "z": 44.0,
                "direction": 1,
            }
        ],
        "slo": {
            "target_s": 0.3,
            "objective": 0.99,
            "total": 100,
            "violations": 2,
            "violation_s": 1.5,
            "fast_burn": 2.0,
            "slow_burn": 0.5,
            "max_fast_burn": 3.0,
            "max_slow_burn": 0.8,
        },
    }


def synthetic_fleet_doc():
    """A two-node sharded envelope with an arbiter summary, covering
    the fleet renderer and the cluster section."""
    node = synthetic_doc()
    node.pop("slo", None)
    return {
        "schema": "powerchief-sharded-v1",
        "artifact": "timeseries",
        "scenario": "selftest-fleet",
        "nodes": 2,
        "cluster": {
            "cap_watts": 225.0,
            "policy": "proportional",
            "rebalances": 60,
            "grants": 41,
            "reports": 240,
            "reports_dropped": 12,
            "freeze_events": 1,
            "nodes": [
                {
                    "node": 0,
                    "assumed_w": 130.5,
                    "last_grant_w": 130.5,
                    "frozen": False,
                    "reports": 120,
                },
                {
                    "node": 1,
                    "assumed_w": 94.5,
                    "last_grant_w": 94.5,
                    "frozen": True,
                    "reports": 118,
                },
            ],
        },
        "shards": [node, json.loads(json.dumps(node))],
    }


def synthetic_critpath_doc():
    """A small critpath document exercising every renderer path."""
    return {
        "schema": "powerchief-critpath-v1",
        "scenario": "selftest-critpath",
        "queries": 6,
        "stages": [
            {
                "stage": 0,
                "paths": 6,
                "dominant": 1,
                "share_mean": 0.2,
                "share_p50": 0.2,
                "share_p95": 0.25,
                "share_p99": 0.25,
                "queue_s": 0.5,
                "serve_s": 1.0,
                "wasted_s": 0.0,
                "redispatch_s": 0.0,
                "boosted_hops": 0,
                "mean_served_mhz": 2400.0,
            },
            {
                "stage": 1,
                "paths": 6,
                "dominant": 5,
                "share_mean": 0.8,
                "share_p50": 0.8,
                "share_p95": 0.85,
                "share_p99": 0.85,
                "queue_s": 2.0,
                "serve_s": 3.0,
                "wasted_s": 0.4,
                "redispatch_s": 0.2,
                "boosted_hops": 3,
                "mean_served_mhz": 2900.0,
            },
        ],
        "signatures": [
            {"signature": "s0>s1x8", "count": 5},
            {"signature": "s0>s1x8!", "count": 1},
        ],
        "controller": {
            "intervals": 3,
            "scored": 3,
            "agree": 2,
            "boost_intervals": 3,
            "misboosts": 1,
            "agreement_rate": 2.0 / 3.0,
            "mean_shortening_pct": 4.2,
        },
        "intervals": [
            {
                "interval": 1,
                "t_s": 25.0,
                "queries": 2,
                "dominant_stage": 1,
                "dominant_share": 0.8,
                "mean_crit_s": 1.2,
                "boosted": [1],
                "agree": True,
                "misboost": False,
            },
            {
                "interval": 2,
                "t_s": 50.0,
                "queries": 2,
                "dominant_stage": 1,
                "dominant_share": 0.7,
                "mean_crit_s": 1.1,
                "boosted": [0],
                "agree": False,
                "misboost": True,
            },
            {
                "interval": 3,
                "t_s": 75.0,
                "queries": 2,
                "dominant_stage": 1,
                "dominant_share": 0.75,
                "mean_crit_s": 1.0,
                "boosted": [1],
                "agree": True,
                "misboost": False,
            },
        ],
    }


def self_check(extra_paths):
    docs = [
        ("selftest", synthetic_doc()),
        ("selftest-critpath", synthetic_critpath_doc()),
        ("selftest-fleet", synthetic_fleet_doc()),
    ] + collect(extra_paths)
    page = render(docs)
    for marker in (
        "<!DOCTYPE html>",
        "PowerChief run dashboard",
        "selftest",
        "health.e2e_p99_s",
        "polyline",
        "SLO",
        "Anomaly alerts",
        "no samples",
        "Critical-path waterfall",
        "waterfall",
        "Top path signatures",
        "s0&gt;s1x8!",
        "Bottleneck agreement",
        "misboosts",
        "fleet (2 nodes)",
        "Cluster arbiter",
        "proportional",
        "freeze events",
        "node1",
        "</html>",
    ):
        if marker not in page:
            fail("--check: marker %r missing from rendered page"
                 % marker)
    if "<script" in page or "http://" in page or "https://" in page:
        fail("--check: dashboard must be self-contained "
             "(no scripts or external URLs)")
    print(
        "report_html: check ok (%d run(s), %d bytes)"
        % (len(docs), len(page))
    )


def main():
    parser = argparse.ArgumentParser(
        description="render a self-contained HTML dashboard from "
        "--timeseries-out dumps"
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="timeseries JSON files or directories to scan",
    )
    parser.add_argument(
        "--out", default="", help="output HTML path (default stdout)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="self-test the renderer (plus any PATHs) and exit",
    )
    args = parser.parse_args()

    if args.check:
        self_check(args.paths)
        return
    if not args.paths:
        fail("no inputs: pass timeseries JSON files or directories")
    docs = collect(args.paths)
    if not docs:
        fail("no timeseries documents found under the given paths")
    page = render(docs)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(page)
        print(
            "report_html: wrote %s (%d run(s), %d bytes)"
            % (args.out, len(docs), len(page))
        )
    else:
        sys.stdout.write(page)


if __name__ == "__main__":
    main()
