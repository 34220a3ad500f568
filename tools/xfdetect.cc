/**
 * @file
 * xfdetect — command-line front door, the equivalent of the paper
 * artifact's run.sh / runRedis.sh / runMemcached.sh scripts:
 *
 *   ./run.sh <WORKLOAD> <INITSIZE> <TESTSIZE> <PATCH>
 *
 * becomes
 *
 *   xfdetect --workload <name> --init N --test N [--bug <id>]...
 *
 * Examples:
 *   xfdetect --list-workloads
 *   xfdetect --list-bugs btree
 *   xfdetect --workload btree --init 5 --test 5 \
 *            --bug btree.race.leaf_no_add
 *   xfdetect --workload redis --roi-from-start \
 *            --bug redis.shipped.init_no_tx
 *   xfdetect --workload hashmap_tx --baseline     # pre-failure only
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <fstream>

#include "bugsuite/registry.hh"
#include "core/config_flags.hh"
#include "core/explain.hh"
#include "core/prefailure_checker.hh"
#include "fix/fix.hh"
#include "lint/lint.hh"
#include "mutate/campaign.hh"
#include "obs/progress.hh"
#include "oracle/diff.hh"
#include "trace/serialize.hh"
#include "workloads/workload.hh"
#include "xfd.hh"

using namespace xfd;

namespace
{

void
usage()
{
    std::printf(
        "usage: xfdetect [options]\n"
        "  --workload <name>      workload to test (see "
        "--list-workloads)\n"
        "  --init <n>             insertions before the RoI "
        "(default 5)\n"
        "  --test <n>             operations inside the RoI "
        "(default 5)\n"
        "  --post <n>             resumption operations (default 2)\n"
        "  --seed <n>             workload RNG seed (default 42)\n"
        "  --bug <id>             inject a synthetic bug "
        "(repeatable; see --list-bugs)\n"
        "  --roi-from-start       include pool creation in the RoI\n"
        "  --baseline             run the pre-failure-only baseline "
        "checker instead\n"
        "  --threads <n>          parallel post-failure execution "
        "(default 1)\n"
        "  --dump-pre-trace <f>   run the pre-failure stage and write "
        "its trace to <f>\n"
        "  --analyze-trace <f>    load a dumped trace: op histogram, "
        "failure plan,\n"
        "                         baseline findings (no workload "
        "needed)\n"
        "  --stats-json <f>       write campaign stats (timing, "
        "shadow-FSM edges,\n"
        "                         trace volumes, latency histogram) "
        "as JSON to <f>\n"
        "  --trace-events <f>     write per-phase spans in Chrome "
        "trace_event format\n"
        "                         to <f> (load in chrome://tracing)\n"
        "  --report-json <f>      write the findings as JSON to <f>\n"
        "  --fingerprint <f>      write the findings fingerprint (one "
        "sorted\n"
        "                         type|reader|writer|note line per "
        "finding) to <f>,\n"
        "                         \"-\" for stdout — byte-comparable "
        "across backends\n"
        "  --lint-json <f>        write the lint report as JSON to <f>\n"
        "                         (implies --lint when not given)\n"
        "  --explain <id>         after the campaign, walk one "
        "finding's causal chain\n"
        "                         (\"F2\", \"2\", or \"all\": writer, "
        "failure point, frontier,\n"
        "                         persisted-subset mask)\n"
        "  --quiet                suppress info output\n"
        "  --list-workloads       print workload names and exit\n"
        "  --list-bugs [wl]       print bug ids (optionally for one "
        "workload) and exit\n"
        "detector options (echoed under \"config\" in --stats-json):\n"
        "%s",
        core::detectorFlagHelp().c_str());
}

int
listBugs(const char *workload)
{
    for (const auto &c : bugsuite::allBugCases()) {
        if (workload && c.workload != workload)
            continue;
        if (c.id.empty())
            continue;
        std::printf("%-48s [%s, expect %s]\n    %s\n", c.id.c_str(),
                    bugsuite::originName(c.origin),
                    bugsuite::expectedName(c.expected),
                    c.description.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    workloads::WorkloadConfig cfg;
    cfg.initOps = 5;
    cfg.testOps = 5;
    cfg.postOps = 2;
    core::DetectorConfig dcfg;
    bool baseline = false;
    unsigned threads = 1;
    std::string dump_trace_path;
    std::string analyze_trace_path;
    std::string stats_json_path;
    std::string trace_events_path;
    std::string report_json_path;
    std::string fingerprint_path;
    std::string lint_json_path;
    std::string explain_selector;

    auto need_value = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", argv[i]);
            std::exit(2);
        }
        return argv[++i];
    };
    // The detector flags' numeric rule: base-10 digits within the
    // field's range, or exit 2 naming the flag.
    auto number = [](const char *flag, const char *value,
                     unsigned long long max) {
        unsigned long long v = 0;
        std::string err = core::parseFlagNumber(flag, value, max, v);
        if (!err.empty()) {
            std::fprintf(stderr, "%s\n", err.c_str());
            std::exit(2);
        }
        return v;
    };
    constexpr unsigned long long uintMax =
        std::numeric_limits<unsigned>::max();

    for (int i = 1; i < argc; i++) {
        const char *a = argv[i];
        // Every value-taking option accepts both "--flag value" and
        // "--flag=value"; boolean options only match their bare
        // spelling.
        std::string name = a;
        const char *attached = nullptr;
        if (std::size_t eq = name.find('='); eq != std::string::npos) {
            attached = a + eq + 1;
            name.resize(eq);
        }
        const char *n = name.c_str();
        auto val = [&]() -> const char * {
            return attached ? attached : need_value(i);
        };
        if (!std::strcmp(a, "--help") || !std::strcmp(a, "-h")) {
            usage();
            return 0;
        } else if (!std::strcmp(a, "--list-workloads")) {
            for (const auto &n : workloads::workloadNames())
                std::printf("%s\n", n.c_str());
            return 0;
        } else if (!std::strcmp(a, "--list-bugs")) {
            const char *wl =
                (i + 1 < argc && argv[i + 1][0] != '-') ? argv[++i]
                                                        : nullptr;
            return listBugs(wl);
        } else if (!std::strcmp(n, "--workload")) {
            workload = val();
        } else if (!std::strcmp(n, "--init")) {
            cfg.initOps = static_cast<unsigned>(number(n, val(), uintMax));
        } else if (!std::strcmp(n, "--test")) {
            cfg.testOps = static_cast<unsigned>(number(n, val(), uintMax));
        } else if (!std::strcmp(n, "--post")) {
            cfg.postOps = static_cast<unsigned>(number(n, val(), uintMax));
        } else if (!std::strcmp(n, "--seed")) {
            cfg.seed = number(n, val(),
                              std::numeric_limits<std::uint64_t>::max());
        } else if (!std::strcmp(n, "--bug")) {
            cfg.bugs.enable(val());
        } else if (!std::strcmp(a, "--roi-from-start")) {
            cfg.roiFromStart = true;
        } else if (!std::strcmp(a, "--baseline")) {
            baseline = true;
        } else if (!std::strcmp(n, "--threads")) {
            threads = static_cast<unsigned>(number(n, val(), uintMax));
        } else if (!std::strcmp(n, "--dump-pre-trace")) {
            dump_trace_path = val();
        } else if (!std::strcmp(n, "--analyze-trace")) {
            analyze_trace_path = val();
        } else if (!std::strcmp(n, "--stats-json")) {
            stats_json_path = val();
        } else if (!std::strcmp(n, "--trace-events")) {
            trace_events_path = val();
        } else if (!std::strcmp(n, "--report-json")) {
            report_json_path = val();
        } else if (!std::strcmp(n, "--fingerprint")) {
            fingerprint_path = val();
        } else if (!std::strcmp(n, "--lint-json")) {
            lint_json_path = val();
        } else if (!std::strcmp(n, "--explain")) {
            explain_selector = val();
        } else if (!std::strcmp(a, "--quiet")) {
            setVerbose(false);
        } else {
            // All DetectorConfig knobs come from one descriptor
            // table (config_flags.cc) — parsing, --help, and the
            // stats-JSON config echo cannot drift apart. Flags with
            // an implied value ("--mutate") only take the attached
            // form.
            const core::ConfigFlagDesc *d =
                core::findDetectorFlag(n);
            if (!d) {
                std::fprintf(stderr, "unknown option: %s\n", a);
                usage();
                return 2;
            }
            const char *value = attached;
            if (!value && d->takesValue())
                value = need_value(i);
            std::string err = core::applyDetectorFlag(*d, dcfg, value);
            if (!err.empty()) {
                std::fprintf(stderr, "%s\n", err.c_str());
                return 2;
            }
        }
    }

    if (std::string err = core::checkDetectorConfig(dcfg); !err.empty()) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 2;
    }

    if (!dcfg.fixTargets.empty() && !dcfg.mutateOps.empty()) {
        std::fprintf(stderr,
                     "--fix machine-checks repairs of this (buggy) "
                     "workload; it cannot be combined with --mutate's "
                     "fault injection of a correct one\n");
        return 2;
    }
    if (!dcfg.fixTargets.empty() && !dcfg.oracleMode.empty()) {
        warn("--oracle is implied by --fix (every candidate repair is "
             "cross-checked against the oracle); ignoring the "
             "explicit flag");
        dcfg.oracleMode.clear();
    }

    bool lint_on = !dcfg.lintRules.empty() || !lint_json_path.empty();
    lint::LintConfig lcfg;
    lcfg.granularity = dcfg.granularity;
    lcfg.flushFree = dcfg.eadrOn();
    if (lint_on) {
        std::string err;
        if (!lint::parseRuleList(dcfg.lintRules, lcfg.rules, &err)) {
            std::fprintf(stderr, "--lint: %s\n", err.c_str());
            return 2;
        }
    }
    auto write_lint_json = [&](const lint::LintReport &lrep) -> bool {
        std::ofstream out(lint_json_path);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         lint_json_path.c_str());
            return false;
        }
        obs::JsonWriter w(out);
        lint::writeLintJson(lrep, w);
        out << '\n';
        inform("wrote lint report to %s", lint_json_path.c_str());
        return true;
    };

    if (!analyze_trace_path.empty()) {
        // Offline analysis of a dumped trace: the decoupled-backend
        // path of §5.5 — no workload binary required.
        std::ifstream in(analyze_trace_path, std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "cannot open %s\n",
                         analyze_trace_path.c_str());
            return 2;
        }
        trace::Reader reader(in); // checks magic and format version
        trace::LoadedTrace loaded = reader.read();
        const trace::TraceBuffer &buf = loaded.buffer();
        trace::OpCounts histogram{};
        trace::countOps(buf, histogram);
        Addr lo = ~static_cast<Addr>(0), hi = 0;
        for (const auto &e : buf) {
            if (e.isWrite() || e.op == trace::Op::Read) {
                lo = std::min(lo, e.addr);
                hi = std::max(hi, e.addr + e.size);
            }
        }
        std::printf("trace: %zu entries, %zu bytes of write payload "
                    "(format v%u)\n",
                    buf.size(), buf.payloadBytes(),
                    loaded.formatVersion());
        for (std::size_t i = 0; i < trace::opCount; i++) {
            if (histogram[i]) {
                std::printf("  %-14s %8llu\n",
                            trace::opName(static_cast<trace::Op>(i)),
                            static_cast<unsigned long long>(histogram[i]));
            }
        }
        if (!loaded.allocSites().empty()) {
            std::printf("allocation sites: %zu\n",
                        loaded.allocSites().size());
            for (const auto &l : loaded.allocSites())
                std::printf("  %s\n", l.str().c_str());
        }
        if (hi > lo) {
            std::printf("touched PM range: [%#llx, %#llx)\n",
                        static_cast<unsigned long long>(lo),
                        static_cast<unsigned long long>(hi));
            auto plan = core::planFailurePoints(buf, dcfg);
            std::printf("failure plan: %zu points (%zu candidates, "
                        "%zu elided)\n",
                        plan.points.size(), plan.candidates,
                        plan.elided);
            core::PreFailureChecker checker(
                {lineBase(lo) & ~static_cast<Addr>(4095),
                 hi + 4096});
            auto findings = checker.check(buf);
            std::printf("baseline findings: %zu\n", findings.size());
            for (const auto &f : findings)
                std::printf("%s\n", f.str().c_str());
        }
        if (lint_on) {
            core::FailurePlan plan = core::planFailurePoints(buf, dcfg);
            lint::LintReport lrep =
                lint::runLint(buf, lcfg, &plan.points);
            std::printf("%s", lint::renderText(lrep).c_str());
            if (!lint_json_path.empty() && !write_lint_json(lrep))
                return 2;
        }
        return 0;
    }

    if (workload.empty()) {
        usage();
        return 2;
    }

    auto w = workloads::makeWorkload(workload, cfg);
    pm::PmPool pool(1 << 23);

    if (!dump_trace_path.empty()) {
        trace::TraceBuffer pre;
        trace::PmRuntime rt(pool, pre, trace::Stage::PreFailure);
        try {
            w->pre(rt);
        } catch (const trace::StageComplete &) {
        }
        std::ofstream out(dump_trace_path, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         dump_trace_path.c_str());
            return 2;
        }
        trace::writeTrace(pre, out);
        std::printf("wrote %zu trace entries to %s\n", pre.size(),
                    dump_trace_path.c_str());
        return 0;
    }

    if (baseline) {
        trace::TraceBuffer pre;
        trace::PmRuntime rt(pool, pre, trace::Stage::PreFailure);
        try {
            w->pre(rt);
        } catch (const trace::StageComplete &) {
        }
        core::PreFailureChecker checker(pool.range());
        auto findings = checker.check(pre);
        std::printf("baseline (pre-failure-only) checker: %zu "
                    "finding(s)\n",
                    findings.size());
        for (const auto &f : findings)
            std::printf("%s\n", f.str().c_str());
        return findings.empty() ? 0 : 1;
    }

    core::CampaignObserver obs;
    obs.timeline.setEnabled(!trace_events_path.empty());

    // All campaign events arrive through one CampaignHooks interface:
    // the progress meter, and (when lint/--explain need it) the
    // captured pre-failure trace.
    struct CliHooks : core::CampaignHooks
    {
        obs::ProgressMeter meter{"fp"};
        trace::TraceBuffer *capture = nullptr;

        void
        onProgress(const core::ProgressUpdate &u) override
        {
            meter.update(u.done, u.total, u.bugs);
        }

        void
        onPreTraceReady(const trace::TraceBuffer &b) override
        {
            if (capture)
                *capture = b;
        }
    } hooks;
    static_assert(core::CampaignHooks::version == 2,
                  "campaign hook interface changed; re-audit CliHooks");
    obs.hooks = &hooks;

    // One process-wide live session: serves /metrics + /snapshot and
    // streams JSONL across every campaign this invocation runs. The
    // Campaign facade sees obs.live already enabled and does not
    // stack a second session.
    std::unique_ptr<obs::LiveSession> live_session;
    if (dcfg.liveRequested()) {
        obs::LiveSession::Options lopt;
        lopt.serve = dcfg.livePort != 0;
        lopt.port = static_cast<std::uint16_t>(dcfg.livePort);
        lopt.jsonlPath = dcfg.liveJsonlPath;
        live_session =
            std::make_unique<obs::LiveSession>(obs.live, lopt);
        if (!live_session->ok()) {
            std::fprintf(stderr, "live telemetry: %s\n",
                         live_session->error().c_str());
            return 2;
        }
    }

    // Lint and --explain consume the campaign's own pre-failure
    // trace, captured through the observer hook — the pre stage is
    // never re-run.
    trace::TraceBuffer captured_pre;
    if (lint_on && !dcfg.mutateOps.empty()) {
        warn("--lint is ignored in --mutate mode (each mutant traces "
             "differently; lint one configuration at a time)");
        lint_on = false;
    }
    if (!explain_selector.empty() && !dcfg.mutateOps.empty()) {
        warn("--explain is ignored in --mutate mode (the scoreboard "
             "aggregates many campaigns; explain one configuration "
             "at a time)");
        explain_selector.clear();
    }
    if (lint_on || !explain_selector.empty())
        hooks.capture = &captured_pre;

    core::CampaignResult res;
    std::vector<core::JsonSection> extra;
    mutate::MutationReport mrep;
    oracle::DiffReport orep;
    fix::FixReport frep;
    bool fix_on = !dcfg.fixTargets.empty();
    int exit_code = 0;

    bool oracle_on = !dcfg.oracleMode.empty();
    oracle::DiffConfig ocfg;
    if (oracle_on) {
        std::string err;
        if (!oracle::parseOracleMode(dcfg.oracleMode, ocfg.exhaustive,
                                     ocfg.sampleCount, &err)) {
            std::fprintf(stderr, "--oracle: %s\n", err.c_str());
            return 2;
        }
        ocfg.detector = dcfg;
        // The echo-only campaign modes must not recurse into the
        // differential run.
        ocfg.detector.mutateOps.clear();
        ocfg.detector.oracleMode.clear();
        ocfg.threads = threads;
        ocfg.artifactDir = dcfg.oracleArtifactDir;
        ocfg.observer = &obs;
    }

    if (fix_on) {
        // Fix mode: detect + lint the broken workload, synthesize a
        // repair plan per finding, machine-check each by re-running
        // the campaign with the repair applied as an inverse
        // mutation.
        fix::FixConfig fxcfg;
        fxcfg.pre = [&](trace::PmRuntime &rt) { w->pre(rt); };
        fxcfg.post = [&](trace::PmRuntime &rt) { w->post(rt); };
        fxcfg.poolBytes = 1 << 23;
        fxcfg.threads = threads;
        fxcfg.detector = dcfg;
        fxcfg.targets = dcfg.fixTargets;
        fxcfg.observer = &obs;
        obs::ProgressMeter fixMeter("plan");
        fxcfg.onPlan = [&fixMeter](std::size_t done,
                                   std::size_t total,
                                   const fix::RepairPlan &,
                                   fix::Verdict) {
            fixMeter.update(done, total, 0);
        };
        frep = fix::runFixCampaign(fxcfg);
        std::printf("%s", frep.baseline.summary().c_str());
        std::printf("%s", frep.scoreboard().c_str());
        res = frep.baseline;
        extra.push_back(core::JsonSection{
            "fix", [&frep](obs::JsonWriter &w) { frep.writeJson(w); }});
        // A regressed plan means the advisor made things worse —
        // that, not the baseline's (expected) findings, is the
        // failure mode of fix mode.
        exit_code = frep.regressed ? 1 : 0;
    } else if (!dcfg.mutateOps.empty()) {
        // Mutation mode: score the detector against fault injections
        // of this (assumed-correct) workload configuration.
        mutate::PerOp<bool> ops{};
        std::string err;
        if (!mutate::parseMutationOps(dcfg.mutateOps, ops, &err)) {
            std::fprintf(stderr, "--mutate: %s\n", err.c_str());
            return 2;
        }
        mutate::MutationConfig mcfg;
        mcfg.pre = [&](trace::PmRuntime &rt) { w->pre(rt); };
        mcfg.post = [&](trace::PmRuntime &rt) { w->post(rt); };
        mcfg.poolBytes = 1 << 23;
        mcfg.threads = threads;
        mcfg.detector = dcfg;
        mcfg.ops = ops;
        mcfg.seed = dcfg.mutationSeed;
        mcfg.maxPerOp = dcfg.mutationMaxPerOp;
        mcfg.observer = &obs;
        obs::ProgressMeter mutMeter("mutant");
        mcfg.onMutant = [&mutMeter](std::size_t done,
                                    std::size_t total,
                                    const mutate::Mutant &, bool) {
            mutMeter.update(done, total, 0);
        };
        mrep = mutate::runMutationCampaign(mcfg);
        std::printf("%s", mrep.scoreboard().c_str());
        res = mrep.baseline;
        extra.push_back(core::JsonSection{
            "mutation",
            [&mrep](obs::JsonWriter &w) { mrep.writeJson(w); }});
        if (oracle_on) {
            // Cross-check the unmutated workload; the scored campaign
            // above used its own pools, so this one is still fresh.
            orep = oracle::runDifferentialCampaign(
                pool, [&](trace::PmRuntime &rt) { w->pre(rt); },
                [&](trace::PmRuntime &rt) { w->post(rt); }, ocfg);
            std::printf("%s", orep.summary().c_str());
        }
    } else if (oracle_on) {
        // Differential mode: one detector campaign (captured through
        // observer hooks) cross-checked by the crash-state oracle.
        orep = oracle::runDifferentialCampaign(
            pool, [&](trace::PmRuntime &rt) { w->pre(rt); },
            [&](trace::PmRuntime &rt) { w->post(rt); }, ocfg);
        res = orep.detector;
        std::printf("%s", res.summary().c_str());
        std::printf("%s", orep.summary().c_str());
        exit_code = res.hasBugs() ? 1 : 0;
    } else {
        res = Campaign::forProgram(
                  [&](trace::PmRuntime &rt) { w->pre(rt); },
                  [&](trace::PmRuntime &rt) { w->post(rt); })
                  .config(dcfg)
                  .onPool(pool)
                  .threads(threads)
                  .observer(&obs)
                  .run();
        std::printf("%s", res.summary().c_str());
        exit_code = res.hasBugs() ? 1 : 0;
    }

    if (oracle_on) {
        extra.push_back(oracle::oracleJsonSection(orep));
        // Exit 3 signals a conformance break, distinct from findings
        // (1) and usage errors (2).
        if (!orep.clean())
            exit_code = 3;
    }

    // Static lint over the captured pre-trace: prunability verdicts
    // are computed against the full (unpruned) failure plan so the
    // report shows what --backend=batched would fold even when off.
    lint::LintReport lrep;
    if (lint_on) {
        core::FailurePlan lplan =
            core::planFailurePoints(captured_pre, dcfg);
        lrep = lint::runLint(captured_pre, lcfg, &lplan.points);
        std::printf("%s", lint::renderText(lrep).c_str());
        extra.push_back(core::JsonSection{
            "lint", [&lrep](obs::JsonWriter &w) {
                lint::writeLintJson(lrep, w);
            }});
        if (!lint_json_path.empty() && !write_lint_json(lrep))
            return 2;
    }

    auto open_out = [](const std::string &path,
                       std::ofstream &out) -> bool {
        out.open(path);
        if (!out)
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return static_cast<bool>(out);
    };
    if (!stats_json_path.empty()) {
        std::ofstream out;
        if (!open_out(stats_json_path, out))
            return 2;
        core::writeStatsJson(res, &dcfg, out, extra);
        inform("wrote campaign stats to %s", stats_json_path.c_str());
    }
    if (!trace_events_path.empty()) {
        std::ofstream out;
        if (!open_out(trace_events_path, out))
            return 2;
        obs.timeline.writeChromeTrace(out);
        inform("wrote %zu trace events to %s", obs.timeline.size(),
               trace_events_path.c_str());
    }
    if (!report_json_path.empty()) {
        std::ofstream out;
        if (!open_out(report_json_path, out))
            return 2;
        core::writeReportJson(res, out);
        inform("wrote findings report to %s", report_json_path.c_str());
    }
    if (!fingerprint_path.empty()) {
        if (fingerprint_path == "-") {
            std::printf("%s", res.fingerprint().c_str());
        } else {
            std::ofstream out;
            if (!open_out(fingerprint_path, out))
                return 2;
            out << res.fingerprint();
            inform("wrote findings fingerprint to %s",
                   fingerprint_path.c_str());
        }
    }
    if (!explain_selector.empty()) {
        std::string err;
        std::string text = core::renderExplain(
            res, explain_selector,
            captured_pre.size() ? &captured_pre : nullptr, &err);
        if (text.empty()) {
            std::fprintf(stderr, "--explain: %s\n", err.c_str());
            return 2;
        }
        std::printf("%s", text.c_str());
        if (fix_on) {
            // Patch sites for the explained finding(s).
            if (explain_selector == "all") {
                for (std::size_t i = 0; i < res.bugs.size(); i++) {
                    std::printf("%s",
                                frep.renderFixFor(
                                        "F" + std::to_string(i + 1))
                                    .c_str());
                }
            } else {
                std::string fid = explain_selector[0] == 'F'
                                      ? explain_selector
                                      : "F" + explain_selector;
                std::printf("%s", frep.renderFixFor(fid).c_str());
            }
        }
    }
    return exit_code;
}
