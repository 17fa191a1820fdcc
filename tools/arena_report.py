#!/usr/bin/env python3
"""Render or validate a policy-arena or fleet-arena JSON report.

Usage:
    arena_report.py REPORT.json               # print the comparison table
    arena_report.py --check REPORT.json       # validate against the schema
    arena_report.py --distinct REPORT.json    # fail on unexplained ties

Two report schemas are read. `bench/arena --out=REPORT.json` writes
"powerchief-arena-v3" (v2 added the per-point "slo" burn-rate object,
v3 the per-point "critpath" bottleneck-agreement object and the audit
"misboosts" count); `bench/fleet --out=REPORT.json` writes
"powerchief-fleet-v1". Rendering reads the arena schema only.

--check enforces the schema contract the ctest fixtures pin: the schema
tag, the full policy roster per matrix cell, and the presence/type of
every per-point field.

--distinct fails when two policies tie in a cell, that is, when they
are equal on every result field. Decision counters (audit, critpath,
cluster_rebalances) are not compared: they record what a policy did,
not what it achieved. A tie passes only if its pair is in ALLOWED_TIES
and the pair's stated reason holds on the tied rows' own numbers.

Each mode exits 0 on success, 1 with a diagnostic on failure.

Stdlib only: no third-party imports.
"""

import argparse
import json
import sys

SCHEMA = "powerchief-arena-v3"
FLEET_SCHEMA = "powerchief-fleet-v1"

# Every point must carry these numeric fields.
NUMERIC_FIELDS = [
    "budget_w",
    "submitted",
    "completed",
    "avg_s",
    "p95_s",
    "p99_s",
    "max_s",
    "qos_target_s",
    "qos_violation_rate",
    "avg_power_w",
    "energy_j",
]

STRING_FIELDS = ["workload", "load", "faults", "policy"]

AUDIT_FIELDS = [
    "mape_pct",
    "scored",
    "flips",
    "selects",
    "plans",
    "withdraws",
    "stale_skips",
    "misboosts",
]

CRITPATH_FIELDS = [
    "agreement_rate",
    "scored",
    "agree",
    "boost_intervals",
    "misboosts",
    "mean_shortening_pct",
]

SLO_FIELDS = [
    "fast_burn",
    "max_fast_burn",
    "max_slow_burn",
    "objective",
    "slow_burn",
    "target_s",
    "total",
    "violation_s",
    "violations",
]

# The full roster bench/arena runs; --check requires every one of them
# in every matrix cell. (fixed-stage is not run: pinned to the slowest
# stage, it boosts what freq-boost boosts.)
POLICIES = [
    "baseline",
    "freq-boost",
    "inst-boost",
    "powerchief",
    "pegasus",
    "powerchief-conserve",
    "fastcap",
    "cuttlesys",
]

FLEET_NUMERIC_FIELDS = [
    "submitted",
    "completed",
    "avg_s",
    "p99_s",
    "max_s",
    "avg_power_w",
    "energy_j",
    "slo_target_s",
    "slo_violation_rate",
    "slo_violation_s",
    "cluster_rebalances",
]

FLEET_STRING_FIELDS = ["faults", "cluster_policy"]

# The cluster roster bench/fleet runs in every fabric.
FLEET_POLICIES = ["none", "equal-split", "proportional"]

# Per schema: the point field naming the policy, the fields naming the
# matrix cell, and the result fields two policies must not all share:
# every numeric field but the cell's own settings and the decision
# counters.
ARENA_CELL = ("workload", "load", "budget_w", "faults")
LAYOUTS = {
    SCHEMA: (
        "policy",
        ARENA_CELL,
        [f for f in NUMERIC_FIELDS if f not in ARENA_CELL + ("qos_target_s",)]
        + ["slo"],
    ),
    FLEET_SCHEMA: (
        "cluster_policy",
        ("faults",),
        [
            f
            for f in FLEET_NUMERIC_FIELDS
            if f not in ("slo_target_s", "cluster_rebalances")
        ],
    ),
}

# Pairs that may tie, keyed in roster order: the reason, and a test of
# that reason on the tied rows (first, second) and the cell key. The
# test may read decision counters, which the tie comparison ignores.
ALLOWED_TIES = {
    ("baseline", "pegasus"): (
        "QoS target out of reach: every query misses it, and Pegasus's "
        "all-or-nothing race to the top frequency never fits the budget",
        lambda a, b, cell: a["qos_violation_rate"] == 1.0
        and b["critpath"]["boost_intervals"] == 0,
    ),
    ("inst-boost", "powerchief"): (
        "one boost each: PowerChief's single boost decision picks "
        "instance boosting, inst-boost's only move",
        lambda a, b, cell: b["audit"]["selects"] == 1
        and a["critpath"]["boost_intervals"] == 1
        and b["critpath"]["boost_intervals"] == 1,
    ),
    ("none", "equal-split"): (
        "clean fabric: every equal-split grant is the static cap/N "
        "share the no-arbiter baseline runs at",
        lambda a, b, cell: cell == ("clean",),
    ),
}


def fail(msg):
    print("arena_report: " + msg, file=sys.stderr)
    sys.exit(1)


def cell_key(point):
    return tuple(point[f] for f in ARENA_CELL)


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def report_points(report, schemas):
    """The non-empty points array of a report whose schema is one of
    @p schemas."""
    if not isinstance(report, dict):
        fail("report root is not an object")
    if report.get("schema") not in schemas:
        fail(
            "schema is %r, want one of %s"
            % (report.get("schema"), ", ".join(schemas))
        )
    points = report.get("points")
    if not isinstance(points, list) or not points:
        fail("report lacks a non-empty 'points' array")
    for i, point in enumerate(points):
        if not isinstance(point, dict):
            fail("point %d is not an object" % i)
    return points


def check_roster(cells, roster):
    for key, seen in sorted(cells.items()):
        missing = [p for p in roster if p not in seen]
        if missing:
            fail(
                "cell %r is missing policies: %s" % (key, ", ".join(missing))
            )


def check_fleet(report):
    points = report_points(report, [FLEET_SCHEMA])
    cells = {}
    for i, point in enumerate(points):
        for field in FLEET_STRING_FIELDS:
            if not isinstance(point.get(field), str):
                fail("point %d field %r missing or not a string" % (i, field))
        for field in FLEET_NUMERIC_FIELDS:
            value = point.get(field)
            if not is_number(value):
                fail("point %d field %r missing or not a number" % (i, field))
            if value < 0:
                fail("point %d field %r is negative" % (i, field))
        if point["cluster_policy"] not in FLEET_POLICIES:
            fail(
                "point %d has unknown cluster policy %r"
                % (i, point["cluster_policy"])
            )
        if point["slo_violation_rate"] > 1.0:
            fail("point %d slo_violation_rate above 1" % i)
        cells.setdefault(point["faults"], set()).add(point["cluster_policy"])
    check_roster(cells, FLEET_POLICIES)
    print(
        "arena_report: ok (%d points, %d fabrics, %d cluster policies)"
        % (len(points), len(cells), len(FLEET_POLICIES))
    )


def check(report):
    if isinstance(report, dict) and report.get("schema") == FLEET_SCHEMA:
        check_fleet(report)
        return
    points = report_points(report, [SCHEMA])
    if report.get("policies") != len(POLICIES):
        fail(
            "report 'policies' is %r, want %d"
            % (report.get("policies"), len(POLICIES))
        )

    cells = {}
    for i, point in enumerate(points):
        for field in STRING_FIELDS:
            if not isinstance(point.get(field), str):
                fail("point %d field %r missing or not a string" % (i, field))
        for field in NUMERIC_FIELDS:
            value = point.get(field)
            if not is_number(value):
                fail("point %d field %r missing or not a number" % (i, field))
            if value < 0:
                fail("point %d field %r is negative" % (i, field))
        audit = point.get("audit")
        if not isinstance(audit, dict):
            fail("point %d lacks an 'audit' object" % i)
        for field in AUDIT_FIELDS:
            value = audit.get(field)
            if not is_number(value):
                fail(
                    "point %d audit field %r missing or not a number"
                    % (i, field)
                )
        critpath = point.get("critpath")
        if not isinstance(critpath, dict):
            fail("point %d lacks a 'critpath' object" % i)
        for field in CRITPATH_FIELDS:
            value = critpath.get(field)
            if not is_number(value):
                fail(
                    "point %d critpath field %r missing or not a number"
                    % (i, field)
                )
            # mean_shortening_pct may legitimately be negative (paths
            # grew after a boost); everything else is a count or rate.
            if field != "mean_shortening_pct" and value < 0:
                fail("point %d critpath field %r is negative" % (i, field))
        if not 0.0 <= critpath["agreement_rate"] <= 1.0:
            fail("point %d critpath agreement_rate outside [0,1]" % i)
        if critpath["agree"] > critpath["scored"]:
            fail("point %d critpath agree exceeds scored" % i)
        slo = point.get("slo")
        if not isinstance(slo, dict):
            fail("point %d lacks an 'slo' object" % i)
        for field in SLO_FIELDS:
            value = slo.get(field)
            if not is_number(value):
                fail(
                    "point %d slo field %r missing or not a number"
                    % (i, field)
                )
            if value < 0:
                fail("point %d slo field %r is negative" % (i, field))
        if slo["violations"] > slo["total"]:
            fail("point %d slo violations exceed total" % i)
        if point["policy"] not in POLICIES:
            fail("point %d has unknown policy %r" % (i, point["policy"]))
        if point["qos_violation_rate"] > 1.0:
            fail("point %d qos_violation_rate above 1" % i)
        cells.setdefault(cell_key(point), set()).add(point["policy"])

    check_roster(cells, POLICIES)
    print(
        "arena_report: ok (%d points, %d cells, %d policies)"
        % (len(points), len(cells), len(POLICIES))
    )


def distinct(report):
    points = report_points(report, list(LAYOUTS))
    policy_field, cell_fields, result_fields = LAYOUTS[report["schema"]]
    cells = {}
    for i, point in enumerate(points):
        for field in (policy_field,) + cell_fields + tuple(result_fields):
            if field not in point:
                fail("point %d lacks field %r" % (i, field))
        key = tuple(point[f] for f in cell_fields)
        cells.setdefault(key, []).append(point)

    allowed = {}
    errors = []
    for key, rows in cells.items():
        for i, first in enumerate(rows):
            for second in rows[i + 1:]:
                if any(first[f] != second[f] for f in result_fields):
                    continue
                pair = (first[policy_field], second[policy_field])
                entry = ALLOWED_TIES.get(pair)
                if entry is None:
                    errors.append(
                        "unexplained tie in cell %r: %s and %s are equal "
                        "on every result field" % (key, pair[0], pair[1])
                    )
                elif not entry[1](first, second, key):
                    errors.append(
                        "tie in cell %r: %s and %s do not match their "
                        "allowlisted reason (%s)"
                        % (key, pair[0], pair[1], entry[0])
                    )
                else:
                    allowed[pair] = allowed.get(pair, 0) + 1
    for pair, count in sorted(allowed.items()):
        print(
            "arena_report: allowed tie %s/%s in %d cell(s): %s"
            % (pair[0], pair[1], count, ALLOWED_TIES[pair][0])
        )
    for error in errors:
        print("arena_report: " + error, file=sys.stderr)
    if errors:
        fail("FAIL: %d tie(s) without an allowlisted reason" % len(errors))
    print(
        "arena_report: distinct (%d points, %d cells, %d allowed tie(s))"
        % (len(points), len(cells), sum(allowed.values()))
    )


def render(report):
    points = report.get("points", [])
    cells = {}
    for point in points:
        cells.setdefault(cell_key(point), []).append(point)
    for key, rows in sorted(cells.items()):
        workload, load, budget, faults = key
        print(
            "\n%s @ %s load, %.2f W, %s fabric (QoS %.2f s)"
            % (workload, load, budget, faults, rows[0]["qos_target_s"])
        )
        print(
            "  %-20s %9s %9s %9s %9s %8s %8s %8s"
            % ("policy", "avg s", "p95 s", "p99 s", "QoS.viol", "watts",
               "MAPE %", "agree%")
        )
        for row in rows:
            print(
                "  %-20s %9.4f %9.4f %9.4f %8.1f%% %8.2f %8.2f %7.1f%%"
                % (
                    row["policy"],
                    row["avg_s"],
                    row["p95_s"],
                    row["p99_s"],
                    100.0 * row["qos_violation_rate"],
                    row["avg_power_w"],
                    row["audit"]["mape_pct"],
                    100.0 * row.get("critpath", {}).get(
                        "agreement_rate", 0.0
                    ),
                )
            )


def main():
    parser = argparse.ArgumentParser(
        description="render or validate an arena or fleet JSON report"
    )
    parser.add_argument(
        "report", help="path to the arena or fleet --out JSON"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="validate the report against the pinned schema",
    )
    parser.add_argument(
        "--distinct",
        action="store_true",
        help="fail when two policies tie in a cell without an "
        "allowlisted reason",
    )
    args = parser.parse_args()

    try:
        with open(args.report, "rb") as handle:
            report = json.load(handle)
    except OSError as err:
        fail("cannot open %r: %s" % (args.report, err))
    except ValueError as err:
        fail("%r is not valid JSON: %s" % (args.report, err))

    if args.check:
        check(report)
    if args.distinct:
        distinct(report)
    if not args.check and not args.distinct:
        render(report)


if __name__ == "__main__":
    main()
