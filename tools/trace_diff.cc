/**
 * @file
 * trace-diff — numeric regression gate between two run dumps.
 *
 * Compares two JSON files produced by the repo's serializers (run
 * results from runResultToJson, metrics registry dumps, audit
 * logs) by flattening every numeric leaf to a dotted path — e.g.
 * "stage_breakdown[0].avg_queuing_s" or
 * "summary.prediction.overall.mape_pct" — and checking the relative
 * difference of each against a threshold:
 *
 *   trace-diff --baseline=tests/golden/fig11_trace.json \
 *              --candidate=run.json [--threshold-pct=2]
 *   trace-diff --baseline=tests/golden/fig11_trace.json --fresh-fig11
 *
 * --fresh-fig11 runs the pinned golden scenario (Scenario::
 * goldenFig11()) in-process and diffs its serialized RunResult against
 * the baseline, turning the golden file into a tolerance-based
 * performance gate (the byte-exact gate lives in
 * tests/test_golden_trace.cc; this one survives benign serialization
 * churn while still catching latency/prediction regressions).
 *
 * Per-path overrides: --thresholds=p99_latency_s:1,prediction:5 —
 * comma-separated prefix:pct pairs, longest matching prefix wins over
 * --threshold-pct. Booleans diff as 0/1, so any flip is a violation.
 * Time-series subtrees and the per-record audit array are positional
 * and huge; they are ignored by default and --ignore=prefix,... adds
 * more. Strings are not compared (scenario names legitimately differ
 * between runs). A numeric path present on only one side is always a
 * violation. Exits 0 when clean, 1 on any violation, 2 on usage or
 * I/O errors.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "exp/result_cache.h"
#include "exp/runner.h"

using namespace pc;

namespace {

[[noreturn]] void
usageError(const std::string &what)
{
    std::cerr << "trace-diff: " << what << "\n";
    std::exit(2);
}

JsonValue
parseFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        usageError("cannot open '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    while (!text.empty() &&
           (text.back() == '\n' || text.back() == '\r'))
        text.pop_back();
    const JsonParseResult parsed = parseJson(text);
    if (!parsed.ok())
        usageError("'" + path + "' is not valid JSON: " + parsed.error +
                   " at byte " + std::to_string(parsed.errorPos));
    return *parsed.value;
}

/** Collect every numeric leaf (bools as 0/1) under dotted paths. */
void
flattenInto(const JsonValue &value, const std::string &path,
            std::map<std::string, double> *out)
{
    switch (value.kind()) {
      case JsonValue::Kind::Number:
        (*out)[path] = value.asNumber();
        break;
      case JsonValue::Kind::Bool:
        (*out)[path] = value.asBool() ? 1.0 : 0.0;
        break;
      case JsonValue::Kind::Array: {
        const JsonArray &arr = value.asArray();
        for (std::size_t i = 0; i < arr.size(); ++i)
            flattenInto(arr[i],
                        path + "[" + std::to_string(i) + "]", out);
        break;
      }
      case JsonValue::Kind::Object:
        for (const auto &[key, member] : value.asObject())
            flattenInto(member,
                        path.empty() ? key : path + "." + key, out);
        break;
      default:
        break; // Strings and nulls are not diffable quantities.
    }
}

struct ThresholdRule
{
    std::string prefix;
    double pct = 0.0;
};

/** Parse "--thresholds=prefix:pct,prefix:pct". */
std::vector<ThresholdRule>
parseThresholds(const std::string &text)
{
    std::vector<ThresholdRule> rules;
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t comma = text.find(',', pos);
        const std::string token = text.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        const std::size_t colon = token.rfind(':');
        if (colon == std::string::npos || colon == 0)
            usageError("malformed --thresholds entry '" + token +
                       "' (want prefix:pct)");
        char *end = nullptr;
        const double pct =
            std::strtod(token.c_str() + colon + 1, &end);
        if (end == nullptr || *end != '\0' || pct < 0.0)
            usageError("malformed threshold in '" + token + "'");
        rules.push_back({token.substr(0, colon), pct});
        pos = comma == std::string::npos ? text.size() : comma + 1;
    }
    return rules;
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t comma = text.find(',', pos);
        const std::string token = text.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        if (!token.empty())
            out.push_back(token);
        pos = comma == std::string::npos ? text.size() : comma + 1;
    }
    return out;
}

bool
hasPrefix(const std::string &path, const std::string &prefix)
{
    return path.compare(0, prefix.size(), prefix) == 0;
}

double
thresholdFor(const std::string &path,
             const std::vector<ThresholdRule> &rules,
             double fallbackPct)
{
    std::size_t bestLen = 0;
    double best = fallbackPct;
    for (const auto &rule : rules) {
        if (rule.prefix.size() >= bestLen &&
            hasPrefix(path, rule.prefix)) {
            bestLen = rule.prefix.size();
            best = rule.pct;
        }
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    FlagSet flags("trace-diff");
    flags.addString("baseline", "", "baseline JSON dump (required)");
    flags.addString("candidate", "",
                    "candidate JSON dump to compare against the "
                    "baseline");
    flags.addBool("fresh-fig11", false,
                  "run the pinned golden Fig. 11 scenario in-process "
                  "and use its serialized result as the candidate");
    flags.addString("fresh-golden", "",
                    "run the pinned golden Fig. 11 scenario under this "
                    "policy (Scenario::goldenFig11For) in-process and "
                    "use its serialized result as the candidate");
    flags.addDouble("threshold-pct", 2.0,
                    "default allowed relative difference, percent");
    flags.addString("thresholds", "",
                    "per-path overrides as prefix:pct,... (longest "
                    "matching prefix wins)");
    flags.addDouble("abs-epsilon", 1e-9,
                    "absolute differences at or below this are ignored "
                    "regardless of relative size");
    flags.addString("ignore", "",
                    "extra comma-separated path prefixes to skip (the "
                    "time-series subtrees and the audit \"records\" "
                    "array are always skipped)");
    flags.addInt("max-report", 20,
                 "print at most this many violations");
    if (!flags.parse(argc, argv)) {
        if (!flags.helpRequested())
            std::cerr << "error: " << flags.error() << "\n\n";
        flags.printUsage(std::cerr);
        return flags.helpRequested() ? 0 : 2;
    }

    const std::string baselinePath = flags.getString("baseline");
    const std::string candidatePath = flags.getString("candidate");
    const bool freshFig11 = flags.getBool("fresh-fig11");
    const std::string freshGolden = flags.getString("fresh-golden");
    if (baselinePath.empty())
        usageError("--baseline is required");
    const int sources = (candidatePath.empty() ? 0 : 1) +
        (freshFig11 ? 1 : 0) + (freshGolden.empty() ? 0 : 1);
    if (sources != 1)
        usageError("pass exactly one of --candidate, --fresh-fig11 or "
                   "--fresh-golden");

    const JsonValue baseline = parseFile(baselinePath);
    JsonValue candidate;
    if (freshFig11 || !freshGolden.empty()) {
        PolicyKind policy = PolicyKind::PowerChief;
        if (!freshGolden.empty() &&
            !parsePolicyKind(freshGolden, &policy))
            usageError("unknown --fresh-golden policy '" + freshGolden +
                       "' (valid: " + policyKindNames() + ")");
        const ExperimentRunner runner(/*recordTraces=*/true);
        candidate = runResultToJson(
            runner.run(Scenario::goldenFig11For(policy)));
    } else {
        candidate = parseFile(candidatePath);
    }

    // Positional bulk data: a one-event shift would mis-pair every
    // later sample, so series and per-record dumps are gated through
    // their aggregates (p99, MAPE, counts) instead.
    std::vector<std::string> ignored = {
        "latency_series", "power_series", "stage_instance_counts",
        "instance_frequency_ghz", "records",
    };
    for (auto &prefix : splitList(flags.getString("ignore")))
        ignored.push_back(std::move(prefix));

    const std::vector<ThresholdRule> rules =
        parseThresholds(flags.getString("thresholds"));
    const double defaultPct = flags.getDouble("threshold-pct");
    const double absEpsilon = flags.getDouble("abs-epsilon");

    std::map<std::string, double> base;
    std::map<std::string, double> cand;
    flattenInto(baseline, "", &base);
    flattenInto(candidate, "", &cand);

    const auto skip = [&ignored](const std::string &path) {
        for (const auto &prefix : ignored)
            if (hasPrefix(path, prefix))
                return true;
        return false;
    };

    const long long maxReport = flags.getInt("max-report");
    long long reported = 0;
    std::size_t compared = 0;
    std::size_t violations = 0;
    const auto report = [&](const std::string &line) {
        ++violations;
        if (reported < maxReport) {
            std::cout << "  " << line << "\n";
            ++reported;
        }
    };

    for (const auto &[path, bval] : base) {
        if (skip(path))
            continue;
        const auto it = cand.find(path);
        if (it == cand.end()) {
            report(path + ": missing in candidate (baseline=" +
                   std::to_string(bval) + ")");
            continue;
        }
        ++compared;
        const double cval = it->second;
        const double diff = std::fabs(cval - bval);
        if (diff <= absEpsilon)
            continue;
        const double denom = std::max(std::fabs(bval), absEpsilon);
        const double pct = diff / denom * 100.0;
        const double allowed = thresholdFor(path, rules, defaultPct);
        if (pct > allowed) {
            char buf[128];
            std::snprintf(buf, sizeof(buf),
                          ": baseline=%.6g candidate=%.6g "
                          "(%.2f%% > %.2f%%)",
                          bval, cval, pct, allowed);
            report(path + buf);
        }
    }
    for (const auto &[path, cval] : cand) {
        if (!skip(path) && !base.count(path))
            report(path + ": missing in baseline (candidate=" +
                   std::to_string(cval) + ")");
    }

    if (violations > static_cast<std::size_t>(reported))
        std::cout << "  ... and "
                  << violations - static_cast<std::size_t>(reported)
                  << " more\n";
    std::printf("trace-diff: %zu numeric paths compared, %zu "
                "violation(s)\n", compared, violations);
    return violations == 0 ? 0 : 1;
}
