#include "oracle/diff.hh"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>

#include "common/logging.hh"
#include "lint/frontier.hh"
#include "lint/lint.hh"
#include "obs/json.hh"
#include "trace/serialize.hh"

namespace xfd::oracle
{

namespace
{

std::string
classSetStr(const std::set<core::BugType> &classes)
{
    if (classes.empty())
        return "{}";
    std::string s = "{";
    for (core::BugType t : classes) {
        if (s.size() > 1)
            s += ", ";
        s += core::bugTypeId(t);
    }
    return s + "}";
}

void
writeClassArray(obs::JsonWriter &w, const std::string &key,
                const std::set<core::BugType> &classes)
{
    w.key(key).beginArray();
    for (core::BugType t : classes)
        w.value(core::bugTypeId(t));
    w.endArray();
}

/**
 * One JSON sidecar per disagreeing failure point: enough to rebuild
 * the exact candidate image (pre-trace + point + mask) and compare
 * the class sets again.
 */
std::string
writeDisagreementArtifact(const std::string &dir,
                          const FpAgreement &a,
                          const FpOracleResult &ores)
{
    std::string path =
        dir + "/disagreement-fp" + std::to_string(a.fp) + ".json";
    std::ofstream os(path, std::ios::trunc);
    if (!os) {
        warn("oracle: cannot write artifact %s", path.c_str());
        return "";
    }
    obs::JsonWriter w(os);
    w.beginObject();
    w.field("format", "xfd-oracle-disagreement-v1");
    w.field("pre_trace", "pre-trace.xft");
    w.field("failure_point", static_cast<std::uint64_t>(a.fp));
    w.field("frontier_size",
            static_cast<std::uint64_t>(a.frontier));
    w.key("frontier_seqs").beginArray();
    for (const auto &ev : ores.frontier)
        w.value(static_cast<std::uint64_t>(ev.seq));
    w.endArray();
    // The anchor mask: the candidate whose classes must equal the
    // detector's.
    w.field("mask", ores.candidates.front().mask.toHex());
    writeClassArray(w, "detector_classes", a.detectorClasses);
    writeClassArray(w, "oracle_classes", a.oracleClasses);
    w.field("sampled", a.sampled);
    w.endObject();
    os << "\n";
    return path;
}

} // namespace

double
DiffReport::agreementRate() const
{
    if (failurePoints == 0)
        return 1.0;
    return static_cast<double>(agreements) /
           static_cast<double>(failurePoints);
}

std::string
DiffReport::summary() const
{
    std::string s = strprintf(
        "=== oracle differential report: %zu failure point(s), "
        "%zu disagreement(s) ===\n"
        "agreement rate: %.3f (%zu/%zu), crash states: %zu legal, "
        "%zu candidate run(s), %zu sampled\n"
        "partial-candidate extras: %zu explained, %zu unexplained\n",
        failurePoints, disagreements, agreementRate(), agreements,
        failurePoints, statesEnumerated, candidatesRun,
        subsetsSampled, extrasExplained, extrasUnexplained);
    if (prunedRechecked) {
        s += strprintf("lint-pruned points re-checked against their "
                       "kept representatives: %zu\n",
                       prunedRechecked);
    }
    if (partialChecked || crashPrunedRechecked) {
        s += strprintf(
            "crash-states conformance: %zu partial finding group(s) "
            "checked (%zu disagree), %zu pruned candidate(s) "
            "re-checked (%zu disagree)\n",
            partialChecked, partialDisagreements, crashPrunedRechecked,
            crashPrunedDisagreements);
    }
    for (const auto &a : perFp) {
        if (a.agree)
            continue;
        s += strprintf("  DISAGREE fp#%u: detector %s oracle %s "
                       "(frontier %zu%s%s)\n",
                       a.fp, classSetStr(a.detectorClasses).c_str(),
                       classSetStr(a.oracleClasses).c_str(),
                       a.frontier, a.sampled ? ", sampled" : "",
                       a.prunedRecheck ? ", pruned" : "");
    }
    for (const auto &p : artifacts)
        s += strprintf("  artifact: %s\n", p.c_str());
    return s;
}

DiffReport
runDifferentialCampaign(pm::PmPool &pool, const core::ProgramFn &pre,
                        const core::ProgramFn &post,
                        const DiffConfig &cfg)
{
    DiffReport rep;

    core::DetectorConfig dcfg = cfg.detector;
    if (dcfg.crashImageMode) {
        warn("oracle: the differential checks each point's "
             "all-updates anchor, which crash-image mode never runs; "
             "running the differential campaign without it");
        dcfg.crashImageMode = false;
    }

    pm::PmImage initial = pool.snapshot();

    // Capture the campaign's raw material through the observer hooks;
    // never re-run the pre-failure stage (fault-injection hooks count
    // occurrences cumulatively, so a second run mutates differently).
    trace::TraceBuffer preTrace;
    std::map<std::uint32_t, std::set<core::BugType>> detectorByFp;
    // Per-point partial-image findings (--crash-states), grouped by
    // the persisted mask that first exposed them.
    std::map<std::uint32_t,
             std::map<trace::SubsetMask, std::set<core::BugType>>>
        detectorByFpMask;
    std::mutex fpLock;

    core::CampaignObserver localObs;
    core::CampaignObserver *obsv =
        cfg.observer ? cfg.observer : &localObs;

    // Interpose on the campaign event interface, chaining to
    // whatever hooks the caller installed.
    struct OracleCapture : core::CampaignHooks
    {
        core::CampaignHooks *inner = nullptr;
        trace::TraceBuffer *preTrace = nullptr;
        std::map<std::uint32_t, std::set<core::BugType>> *byFp =
            nullptr;
        std::map<std::uint32_t,
                 std::map<trace::SubsetMask, std::set<core::BugType>>>
            *byFpMask = nullptr;
        std::mutex *lock = nullptr;

        void
        onPreTraceReady(const trace::TraceBuffer &b) override
        {
            if (inner)
                inner->onPreTraceReady(b);
            *preTrace = b;
        }

        void
        onFailurePoint(std::uint32_t fp,
                       const core::BugSink &sink) override
        {
            if (inner)
                inner->onFailurePoint(fp, sink);
            std::set<core::BugType> classes;
            std::map<trace::SubsetMask, std::set<core::BugType>>
                partial;
            for (const auto &b : sink.bugs()) {
                // Performance bugs are a full-trace property and
                // never appear in per-point sinks; filter
                // defensively anyway.
                if (b.type == core::BugType::Performance)
                    continue;
                // Findings first exposed on a partial crash image
                // (--crash-states) are conformance-checked against
                // the oracle's candidate at the same mask, not the
                // anchor.
                if (b.persistedMask.size() && !b.persistedMask.all())
                    partial[b.persistedMask].insert(b.type);
                else
                    classes.insert(b.type);
            }
            std::lock_guard<std::mutex> guard(*lock);
            (*byFp)[fp] = std::move(classes);
            if (!partial.empty())
                (*byFpMask)[fp] = std::move(partial);
        }

        void
        onProgress(const core::ProgressUpdate &u) override
        {
            if (inner)
                inner->onProgress(u);
        }
    } capture;
    capture.inner = obsv->hooks;
    capture.preTrace = &preTrace;
    capture.byFp = &detectorByFp;
    capture.byFpMask = &detectorByFpMask;
    capture.lock = &fpLock;
    obsv->hooks = &capture;

    core::Driver driver(pool, dcfg);
    driver.setObserver(obsv);
    rep.detector = driver.runParallel(pre, post, cfg.threads);
    obsv->hooks = capture.inner;

    // The plan is deterministic over (trace, config); re-derive it so
    // the oracle visits exactly the points the detector failed at —
    // including, under --backend=batched, the points the detector
    // folded into representatives: the oracle runs those for real and
    // their anchor classes must match what the detector reported at
    // the kept representative.
    core::FailurePlan plan = core::planFailurePoints(preTrace, dcfg);
    rep.failurePoints = plan.points.size();

    std::map<std::uint32_t, std::uint32_t> prunedRep;
    if (dcfg.batchingOn() && !plan.points.empty()) {
        lint::PruneVerdicts v = lint::computePruneVerdicts(
            preTrace, plan.points, dcfg.granularity);
        for (const auto &p : v.pruned)
            prunedRep[p.fp] = p.keptRep;
    }

    OracleConfig ocfg;
    ocfg.exhaustive = cfg.exhaustive;
    ocfg.sampleCount = cfg.sampleCount;
    ocfg.frontierLimit = dcfg.oracleFrontierLimit;
    ocfg.seed = cfg.seed;
    ocfg.detector = dcfg;
    // --crash-states conformance: mirror the detector's enumeration
    // knobs and (below) its per-point sampler streams, so the oracle
    // materializes exactly the masks the detector executed and its
    // verdict at each of them is a direct cross-check.
    bool csOn = dcfg.crashStatesOn() && !dcfg.eadrOn();
    if (csOn) {
        bool csExhaustive = false;
        std::size_t csSample = 0;
        core::DetectorConfig::parseCrashStates(
            dcfg.crashStates, csExhaustive, csSample);
        ocfg.exhaustive = csExhaustive;
        ocfg.sampleCount = csSample ? csSample : 64;
        ocfg.seed = dcfg.crashStatesSeed;
    }
    CrashStateOracle oracle(preTrace, initial, ocfg);

    // Mirror of the detector's candidate equivalence-class identity
    // (ordering-point location + lint frontier signature): keys the
    // sampler stream and resolves its pruning records.
    lint::FrontierState lintState(dcfg.granularity, dcfg.eadrOn());
    std::uint32_t lintCursor = 0;
    // Oracle verdicts by (point, mask hex), kept only for re-checking
    // the detector's equivalence-pruned candidates.
    std::map<std::uint32_t,
             std::map<std::string, std::set<core::BugType>>>
        oracleByFpMask;
    bool wantPruneRecheck =
        csOn && !rep.detector.stats.crashPruned.empty();

    bool wrotePreTrace = false;
    auto toracle = std::chrono::steady_clock::now();
    for (std::uint32_t fp : plan.points) {
        FpAgreement a;
        a.fp = fp;
        auto pruned = prunedRep.find(fp);
        std::uint32_t detectorFp =
            pruned == prunedRep.end() ? fp : pruned->second;
        if (pruned != prunedRep.end()) {
            a.prunedRecheck = true;
            rep.prunedRechecked++;
        }

        // Reproduce the detector's sampler stream for this point (the
        // FNV-1a hash of its equivalence class) and hand the oracle
        // the masks the detector's findings were first exposed on, so
        // a verdict exists at every one of them even if enumeration
        // drifts.
        std::uint64_t stream = 0;
        const std::uint64_t *streamPtr = nullptr;
        std::vector<trace::SubsetMask> detMasks;
        const std::vector<trace::SubsetMask> *extraMasks = nullptr;
        if (csOn) {
            for (; lintCursor < fp; lintCursor++)
                lintState.apply(preTrace[lintCursor]);
            std::string group = preTrace[fp].loc.str() + '|' +
                                lintState.signature().str();
            stream = 1469598103934665603ull; // FNV-1a 64
            for (char ch : group)
                stream = (stream ^ static_cast<unsigned char>(ch)) *
                         1099511628211ull;
            streamPtr = &stream;
            auto mit = detectorByFpMask.find(detectorFp);
            if (mit != detectorByFpMask.end()) {
                for (const auto &[m, classes] : mit->second)
                    detMasks.push_back(m);
                extraMasks = &detMasks;
            }
        }

        FpOracleResult ores =
            oracle.runFailurePoint(fp, post, extraMasks, streamPtr);

        auto it = detectorByFp.find(detectorFp);
        if (it != detectorByFp.end())
            a.detectorClasses = it->second;
        a.oracleClasses = ores.anchorClasses();
        a.frontier = ores.frontier.size();
        a.candidates = ores.candidates.size();
        a.sampled = ores.sampled;
        a.agree = a.detectorClasses == a.oracleClasses;

        if (csOn) {
            std::map<std::string, const std::set<core::BugType> *>
                omasks;
            for (const auto &c : ores.candidates)
                omasks[c.mask.toHex()] = &c.classes;
            auto mit = detectorByFpMask.find(detectorFp);
            if (mit != detectorByFpMask.end()) {
                for (const auto &[m, classes] : mit->second) {
                    rep.partialChecked++;
                    auto oit = omasks.find(m.toHex());
                    bool ok = oit != omasks.end();
                    if (ok) {
                        for (core::BugType t : classes) {
                            if (!oit->second->count(t))
                                ok = false;
                        }
                    }
                    if (!ok) {
                        rep.partialDisagreements++;
                        a.agree = false;
                    }
                }
            }
            if (wantPruneRecheck) {
                auto &slot = oracleByFpMask[fp];
                for (const auto &[hex, classes] : omasks)
                    slot[hex] = *classes;
            }
        }

        rep.statesEnumerated += ores.statesLegal;
        rep.candidatesRun += ores.candidates.size();
        if (ores.sampled)
            rep.subsetsSampled += ores.candidates.size();

        for (std::size_t c = 1; c < ores.candidates.size(); c++) {
            for (core::BugType t : ores.candidates[c].classes) {
                if (!a.oracleClasses.count(t))
                    a.extras.insert(t);
            }
        }
        for (core::BugType t : a.extras) {
            // A partial image can race (an in-flight write it leaves
            // out), fail recovery (metadata half-applied), or expose
            // an older committed version (semantic); all presuppose a
            // non-empty frontier.
            (void)t;
            if (a.frontier > 0)
                rep.extrasExplained++;
            else
                rep.extrasUnexplained++;
        }

        if (a.agree) {
            rep.agreements++;
        } else {
            rep.disagreements++;
            if (!cfg.artifactDir.empty()) {
                std::error_code ec;
                std::filesystem::create_directories(cfg.artifactDir,
                                                    ec);
                if (!wrotePreTrace) {
                    std::ofstream os(cfg.artifactDir +
                                         "/pre-trace.xft",
                                     std::ios::binary |
                                         std::ios::trunc);
                    if (os) {
                        trace::writeTrace(preTrace, os);
                        rep.artifacts.push_back(cfg.artifactDir +
                                                "/pre-trace.xft");
                        wrotePreTrace = true;
                    } else {
                        warn("oracle: cannot write %s/pre-trace.xft",
                             cfg.artifactDir.c_str());
                    }
                }
                std::string p = writeDisagreementArtifact(
                    cfg.artifactDir, a, ores);
                if (!p.empty())
                    rep.artifacts.push_back(std::move(p));
            }
        }
        rep.perFp.push_back(std::move(a));
    }

    // Re-check the detector's equivalence-pruned candidates: the
    // oracle ran the same mask at both the skipped point and the
    // representative that executed in its place (same stream + seed,
    // so both enumerations produced it); identical verdicts mean the
    // pruning rule lost nothing.
    if (wantPruneRecheck) {
        for (const auto &p : rep.detector.stats.crashPruned) {
            rep.crashPrunedRechecked++;
            const std::set<core::BugType> *skipped = nullptr;
            const std::set<core::BugType> *kept = nullptr;
            auto fa = oracleByFpMask.find(p.fp);
            if (fa != oracleByFpMask.end()) {
                auto ma = fa->second.find(p.maskHex);
                if (ma != fa->second.end())
                    skipped = &ma->second;
            }
            auto fb = oracleByFpMask.find(p.repFp);
            if (fb != oracleByFpMask.end()) {
                auto mb = fb->second.find(p.maskHex);
                if (mb != fb->second.end())
                    kept = &mb->second;
            }
            if (!(skipped && kept && *skipped == *kept))
                rep.crashPrunedDisagreements++;
        }
    }
    rep.oracleSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      toracle)
            .count();
    rep.detector.stats.phases.note(obs::Phase::Oracle,
                                   rep.oracleSeconds);
    return rep;
}

void
exportOracleStats(obs::StatsRegistry &reg, const DiffReport &r)
{
    auto set = [&](const char *name, const char *desc, double v) {
        reg.scalar(name, desc).set(v);
    };
    set("campaign.oracle.failure_points",
        "failure points compared against the oracle",
        static_cast<double>(r.failurePoints));
    set("campaign.oracle.states_enumerated",
        "legal crash states identified",
        static_cast<double>(r.statesEnumerated));
    set("campaign.oracle.subsets_sampled",
        "candidates run at sampled (over-limit) points",
        static_cast<double>(r.subsetsSampled));
    set("campaign.oracle.candidates_run",
        "candidate recovery executions",
        static_cast<double>(r.candidatesRun));
    set("campaign.oracle.pruned_rechecked",
        "lint-pruned points the oracle re-checked",
        static_cast<double>(r.prunedRechecked));
    set("campaign.oracle.agreements",
        "failure points where detector and oracle classes match",
        static_cast<double>(r.agreements));
    set("campaign.oracle.disagreements",
        "failure points where the class sets differ",
        static_cast<double>(r.disagreements));
    set("campaign.oracle.extras_explained",
        "partial-candidate extra classes with an attribution",
        static_cast<double>(r.extrasExplained));
    set("campaign.oracle.extras_unexplained",
        "partial-candidate extra classes without one",
        static_cast<double>(r.extrasUnexplained));
    set("campaign.oracle.partial_checked",
        "detector partial-image finding groups cross-checked",
        static_cast<double>(r.partialChecked));
    set("campaign.oracle.partial_disagreements",
        "partial-image groups the oracle could not reproduce",
        static_cast<double>(r.partialDisagreements));
    set("campaign.oracle.crash_pruned_rechecked",
        "equivalence-pruned candidates re-checked by the oracle",
        static_cast<double>(r.crashPrunedRechecked));
    set("campaign.oracle.crash_pruned_disagreements",
        "pruned candidates whose verdict differed from their "
        "representative",
        static_cast<double>(r.crashPrunedDisagreements));
    set("campaign.phase.oracle_seconds",
        "oracle enumeration + candidate recovery wall seconds",
        r.oracleSeconds);

    obs::Scalar &points =
        reg.scalar("campaign.oracle.failure_points", "");
    obs::Scalar &agree = reg.scalar("campaign.oracle.agreements", "");
    reg.formula("campaign.oracle.agreement_rate",
                "agreeing points / compared points",
                [&points, &agree] {
                    return points.value()
                               ? agree.value() / points.value()
                               : 1.0;
                });
}

core::JsonSection
oracleJsonSection(const DiffReport &r)
{
    return core::JsonSection{
        "oracle", [&r](obs::JsonWriter &w) {
            w.beginObject();
            w.field("failure_points",
                    static_cast<std::uint64_t>(r.failurePoints));
            w.field("agreements",
                    static_cast<std::uint64_t>(r.agreements));
            w.field("disagreements",
                    static_cast<std::uint64_t>(r.disagreements));
            w.field("agreement_rate", r.agreementRate());
            w.field("states_enumerated",
                    static_cast<std::uint64_t>(r.statesEnumerated));
            w.field("subsets_sampled",
                    static_cast<std::uint64_t>(r.subsetsSampled));
            w.field("candidates_run",
                    static_cast<std::uint64_t>(r.candidatesRun));
            w.field("pruned_rechecked",
                    static_cast<std::uint64_t>(r.prunedRechecked));
            w.field("extras_explained",
                    static_cast<std::uint64_t>(r.extrasExplained));
            w.field("extras_unexplained",
                    static_cast<std::uint64_t>(r.extrasUnexplained));
            w.field("partial_checked",
                    static_cast<std::uint64_t>(r.partialChecked));
            w.field("partial_disagreements",
                    static_cast<std::uint64_t>(
                        r.partialDisagreements));
            w.field("crash_pruned_rechecked",
                    static_cast<std::uint64_t>(
                        r.crashPrunedRechecked));
            w.field("crash_pruned_disagreements",
                    static_cast<std::uint64_t>(
                        r.crashPrunedDisagreements));
            w.field("oracle_seconds", r.oracleSeconds);
            w.key("disagreement_fps").beginArray();
            for (const auto &a : r.perFp) {
                if (!a.agree)
                    w.value(static_cast<std::uint64_t>(a.fp));
            }
            w.endArray();
            w.key("artifacts").beginArray();
            for (const auto &p : r.artifacts)
                w.value(p);
            w.endArray();
            w.endObject();
        }};
}

} // namespace xfd::oracle
