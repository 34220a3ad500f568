#include "core/config_flags.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/logging.hh"
#include "common/types.hh"
#include "obs/json.hh"

namespace xfd::core
{

/*
 * Coverage tripwire: adding a DetectorConfig field changes its size,
 * which fails this assert until the new field gets a descriptor row
 * below (or a deliberate exemption documented here). Update the
 * constant together with the table.
 */
static_assert(sizeof(DetectorConfig) ==
                  72 + 9 * sizeof(std::string),
              "DetectorConfig changed: add a ConfigFlagDesc row for "
              "the new field, then update this size tripwire");

namespace
{

/**
 * Why @p v is not a valid spelling of the descriptor field @p field
 * (backend, pmModel or crashStates), or an empty string.
 */
std::string
badSpelling(std::string DetectorConfig::*field, const std::string &v)
{
    BackendMode backend;
    PersistencyModel model;
    bool exhaustive = false;
    std::size_t n = 0;
    if (field == &DetectorConfig::backend &&
        !DetectorConfig::parseBackend(v, backend)) {
        return strprintf("unknown backend \"%s\" (expected delta or "
                         "batched)",
                         v.c_str());
    }
    if (field == &DetectorConfig::pmModel &&
        !DetectorConfig::parsePmModel(v, model)) {
        return strprintf("unknown persistency model \"%s\" (expected "
                         "clwb or eadr)",
                         v.c_str());
    }
    if (field == &DetectorConfig::crashStates &&
        !DetectorConfig::parseCrashStates(v, exhaustive, n)) {
        return strprintf("bad crash-states mode \"%s\" (expected "
                         "anchor, sample:<n> or exhaustive)",
                         v.c_str());
    }
    return {};
}

/** Why @p v is not a shadow cell size (1, 2, 4 or 8), or "". */
std::string
badCellSize(unsigned long long v)
{
    if (isCellSize(v))
        return {};
    return strprintf("flag --granularity: bad cell size \"%llu\" "
                     "(expected 1, 2, 4 or 8)",
                     v);
}

std::vector<ConfigFlagDesc>
buildTable()
{
    using C = DetectorConfig;
    std::vector<ConfigFlagDesc> t;

    auto sw = [&](const char *flag, const char *help,
                  const char *jsonKey, bool C::*field, bool value) {
        ConfigFlagDesc d;
        d.flag = flag;
        d.arg = nullptr;
        d.help = help;
        d.jsonKey = jsonKey;
        d.boolField = field;
        d.boolValue = value;
        t.push_back(d);
    };
    auto uintf = [&](const char *flag, const char *arg,
                     const char *help, const char *jsonKey,
                     unsigned C::*field) {
        ConfigFlagDesc d;
        d.flag = flag;
        d.arg = arg;
        d.help = help;
        d.jsonKey = jsonKey;
        d.uintField = field;
        t.push_back(d);
    };
    auto sizef = [&](const char *flag, const char *arg,
                     const char *help, const char *jsonKey,
                     std::size_t C::*field) {
        ConfigFlagDesc d;
        d.flag = flag;
        d.arg = arg;
        d.help = help;
        d.jsonKey = jsonKey;
        d.sizeField = field;
        t.push_back(d);
    };
    auto strf = [&](const char *flag, const char *arg,
                    const char *help, const char *jsonKey,
                    std::string C::*field, const char *implied) {
        ConfigFlagDesc d;
        d.flag = flag;
        d.arg = arg;
        d.help = help;
        d.jsonKey = jsonKey;
        d.stringField = field;
        d.impliedValue = implied;
        t.push_back(d);
    };

    sw("--no-elision",
       "disable empty-interval failure-point elision",
       "elide_empty_failure_points", &C::elideEmptyFailurePoints,
       false);
    sw("--no-first-read", "disable first-read-only checking",
       "first_read_only", &C::firstReadOnly, false);
    sw("--no-internal-fences",
       "no failure points at PM-library-internal fences",
       "failure_at_internal_fences", &C::failureAtInternalFences,
       false);
    uintf("--granularity", "<1|2|4|8>",
          "shadow-PM cell size (default 1)", "granularity",
          &C::granularity);
    sw("--strict-persist", "enable the strict persist extension",
       "strict_persist_check", &C::strictPersistCheck, true);
    sw("--no-perf-bugs",
       "do not report performance bugs (redundant flush/TX_ADD)",
       "report_performance_bugs", &C::reportPerformanceBugs, false);
    sw("--crash-image",
       "post-failure stage sees a realistic crash image "
       "(unpersisted writes dropped) instead of the paper's "
       "keep-everything copy",
       "crash_image_mode", &C::crashImageMode, true);
    sizef("--max-failpoints", "<n>", "cap injected failure points",
          "max_failure_points", &C::maxFailurePoints);
    strf("--backend", "<delta|batched>",
         "campaign backend: \"delta\" (default) runs recovery once "
         "per failure point, \"batched\" folds failure points with "
         "identical frontier signatures into one representative "
         "recovery run",
         "backend", &C::backend, nullptr);
    strf("--pm-model", "<clwb|eadr>",
         "persistency model: \"clwb\" (default) requires explicit "
         "writeback + fence for durability, \"eadr\" is flush-free "
         "(eADR/CXL: stores are durable on arrival, flushes are "
         "no-ops and flush-omission is not a bug class)",
         "pm_model", &C::pmModel, nullptr);
    strf("--mutate", "[=<ops>]",
         "run a scored fault-injection campaign; <ops> is \"all\" "
         "(default), \"quick\", or a comma list of drop_flush, "
         "drop_fence, demote_flush, skip_tx_add, commit_before_data, "
         "stale_backup",
         "mutate_ops", &C::mutateOps, "all");
    sizef("--mutation-seed", "<n>",
          "seed for deterministic mutant subsampling (default 42)",
          "mutation_seed", &C::mutationSeed);
    sizef("--mutation-cap", "<n>",
          "cap mutants per operator (0 = run every enumerated one)",
          "mutation_max_per_op", &C::mutationMaxPerOp);
    strf("--oracle", "[=exhaustive|sample:<n>]",
         "cross-check the detector against the crash-state "
         "enumeration oracle (exhaustive below the frontier limit, "
         "<n> seeded-random legal subsets per failure point above)",
         "oracle_mode", &C::oracleMode, "exhaustive");
    sizef("--oracle-frontier", "<n>",
          "exhaustive-enumeration bound on in-flight writes per "
          "failure point (default 8)",
          "oracle_frontier_limit", &C::oracleFrontierLimit);
    strf("--oracle-artifacts", "<dir>",
         "write replayable disagreement artifacts (pre-trace + "
         "failure point + subset mask) into <dir>",
         "oracle_artifact_dir", &C::oracleArtifactDir, nullptr);
    strf("--crash-states", "<anchor|sample:<n>|exhaustive>",
         "crash-state exploration per failure point: \"anchor\" "
         "(default) runs recovery only on the all-updates image, "
         "\"sample:<n>\" additionally on up to <n> seeded-random "
         "legal persisted subsets of the write frontier, "
         "\"exhaustive\" on every legal subset within the "
         "--oracle-frontier bound",
         "crash_states", &C::crashStates, nullptr);
    sizef("--crash-seed", "<n>",
          "seed for the per-failure-point crash-state sampler "
          "(default 42)",
          "crash_states_seed", &C::crashStatesSeed);
    strf("--lint", "[=<rules>]",
         "run the static lint pass over the pre-failure trace; "
         "<rules> is \"all\" (default) or a comma list of XL01..XL08 "
         "ids or names (redundant_writeback, duplicate_tx_add, ...)",
         "lint_rules", &C::lintRules, "all");
    strf("--fix", "[=<id|all>]",
         "run the repair advisor: synthesize a repair plan per "
         "finding/lint diagnostic, apply each as an inverse mutation "
         "and machine-check it by re-running the campaign; <id> "
         "limits checking to one finding (\"F3\") or plan (\"R2\")",
         "fix_targets", &C::fixTargets, "all");
    sw("--elide-same-value",
       "drop trace entries for stores that write back the bytes "
       "already in memory (Jaaru-style; cannot change any crash "
       "image, but also hides findings anchored on such writes)",
       "elide_same_value_writes", &C::elideSameValueWrites, true);
    sizef("--live-port", "<port>",
          "serve live telemetry on 127.0.0.1:<port>: Prometheus "
          "text /metrics and JSON /snapshot",
          "live_port", &C::livePort);
    strf("--live-jsonl", "<file>",
         "stream one live-snapshot JSON line per second (plus a "
         "final one) to <file>",
         "live_jsonl", &C::liveJsonlPath, nullptr);

    return t;
}

} // namespace

const std::vector<ConfigFlagDesc> &
detectorFlagTable()
{
    static const std::vector<ConfigFlagDesc> table = buildTable();
    return table;
}

const ConfigFlagDesc *
findDetectorFlag(const char *flag)
{
    for (const auto &d : detectorFlagTable()) {
        if (std::strcmp(d.flag, flag) == 0)
            return &d;
    }
    return nullptr;
}

std::string
parseFlagNumber(const char *flag, const char *value, unsigned long long max,
                unsigned long long &out)
{
    errno = 0;
    unsigned long long v = std::strtoull(value, nullptr, 10);
    std::size_t digits = std::strspn(value, "0123456789");
    if (digits == 0 || value[digits] != '\0' || errno == ERANGE ||
        v > max) {
        return strprintf("flag %s: \"%s\" is not a number in [0, %llu]",
                         flag, value, max);
    }
    out = v;
    return {};
}

std::string
applyDetectorFlag(const ConfigFlagDesc &d, DetectorConfig &cfg,
                  const char *value)
{
    if (d.boolField) {
        cfg.*(d.boolField) = d.boolValue;
        return {};
    }
    if (d.stringField && !value)
        value = d.impliedValue;
    if (!value)
        return strprintf("flag %s requires a value", d.flag);
    if (d.stringField) {
        std::string err = badSpelling(d.stringField, value);
        if (!err.empty())
            return strprintf("flag %s: %s", d.flag, err.c_str());
        cfg.*(d.stringField) = value;
        return {};
    }

    unsigned long long v = 0;
    unsigned long long max = d.uintField
                                 ? std::numeric_limits<unsigned>::max()
                                 : std::numeric_limits<std::size_t>::max();
    if (std::string err = parseFlagNumber(d.flag, value, max, v);
        !err.empty()) {
        return err;
    }
    if (d.uintField == &DetectorConfig::granularity) {
        if (std::string err = badCellSize(v); !err.empty())
            return err;
    }
    if (d.uintField)
        cfg.*(d.uintField) = static_cast<unsigned>(v);
    else
        cfg.*(d.sizeField) = static_cast<std::size_t>(v);
    return {};
}

std::string
checkDetectorConfig(const DetectorConfig &cfg)
{
    for (auto field : {&DetectorConfig::backend, &DetectorConfig::pmModel,
                       &DetectorConfig::crashStates}) {
        std::string err = badSpelling(field, cfg.*field);
        if (!err.empty())
            return err;
    }
    if (std::string err = badCellSize(cfg.granularity); !err.empty())
        return err;
    if (cfg.crashStatesOn() && cfg.crashImageMode) {
        return "--crash-states already explores realistic partial "
               "images; it cannot be combined with --crash-image";
    }
    return {};
}

std::string
detectorFlagHelp()
{
    std::string s;
    for (const auto &d : detectorFlagTable()) {
        std::string head = d.flag;
        if (d.arg) {
            // Optional values attach to the flag ("--mutate[=<ops>]").
            if (!d.impliedValue)
                head += ' ';
            head += d.arg;
        }
        s += strprintf("  %-22s %s\n", head.c_str(), d.help);
    }
    return s;
}

void
writeConfigJson(const DetectorConfig &cfg, obs::JsonWriter &w)
{
    w.beginObject();
    for (const auto &d : detectorFlagTable()) {
        if (d.boolField)
            w.field(d.jsonKey, cfg.*(d.boolField));
        else if (d.uintField)
            w.field(d.jsonKey, cfg.*(d.uintField));
        else if (d.sizeField)
            w.field(d.jsonKey,
                    static_cast<std::uint64_t>(cfg.*(d.sizeField)));
        else if (d.stringField)
            w.field(d.jsonKey, cfg.*(d.stringField));
    }
    w.endObject();
}

} // namespace xfd::core
