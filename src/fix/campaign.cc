/**
 * @file
 * The fix campaign: baseline detection + lint, plan synthesis, and
 * the machine check that gives each plan its verdict.
 *
 * Verification is a re-run, not an argument: the plan's edit script
 * re-executes the program through an InsertionMutation, the full
 * campaign runs over the edited trace, and the verdict is computed
 * from what that campaign (and, for candidate verifications, the
 * crash-state oracle) actually reported. "Verified" therefore means
 * the same thing for every repair kind: the targeted finding is gone,
 * nothing beyond the broken baseline's finding set appeared, every
 * planned edit really fired, and the oracle still agrees with the
 * detector at every failure point of the repaired trace.
 */

#include <algorithm>
#include <set>

#include "common/logging.hh"
#include "fix/fix.hh"
#include "oracle/diff.hh"
#include "pm/pool.hh"
#include "trace/runtime.hh"
#include "xfd.hh"

namespace xfd::fix
{

namespace
{

/** Same identity synth.cc keys plans on (mutate::findingKey twin). */
std::string
findingKeyOf(const core::BugReport &b)
{
    return strprintf("%d|%s:%u|%s:%u", static_cast<int>(b.type),
                     b.reader.file, b.reader.line, b.writer.file,
                     b.writer.line);
}

/** Does the --fix=<target> selection cover @p p? */
bool
targetMatches(const std::string &t, const RepairPlan &p)
{
    if (t.empty() || t == "all")
        return true;
    if (t == p.id)
        return true;
    if (!p.findingId.empty() &&
        (t == p.findingId || "F" + t == p.findingId)) {
        return true;
    }
    return false;
}

/** Lint-diagnostic identity stable across re-lints of edited traces. */
bool
sameDiag(const lint::Diagnostic &d, const RepairPlan &p)
{
    return d.rule == p.lintRule && d.addr == p.lintAddr &&
           d.loc == p.site;
}

} // namespace

FixReport
runFixCampaign(const FixConfig &fcfg)
{
    FixReport rep;

    // Inner campaigns run plain: no mutation planting, no recursive
    // fixing, and the oracle only as this pass's explicit cross-check.
    core::DetectorConfig dcfg = fcfg.detector;
    dcfg.mutateOps.clear();
    dcfg.oracleMode.clear();
    dcfg.oracleArtifactDir.clear();
    dcfg.fixTargets.clear();

    // Trace the broken pre-failure stage once; plans address this
    // baseline trace by seq/occurrence.
    trace::TraceBuffer baseTrace;
    {
        pm::PmPool scratch(fcfg.poolBytes);
        trace::PmRuntime rt(scratch, baseTrace,
                            trace::Stage::PreFailure);
        try {
            fcfg.pre(rt);
        } catch (const trace::StageComplete &) {
        }
    }

    auto runOne = [&](trace::MutationHook *hook,
                      core::CampaignObserver *obs) {
        auto campaign = Campaign::forProgram(
                            [&](trace::PmRuntime &rt) {
                                rt.setMutationHook(hook);
                                fcfg.pre(rt);
                            },
                            fcfg.post)
                            .poolSize(fcfg.poolBytes)
                            .threads(fcfg.threads)
                            .config(dcfg);
        if (obs)
            campaign.observer(obs);
        return campaign.run();
    };

    rep.baseline = runOne(nullptr, fcfg.observer);
    std::set<std::string> baselineKeys;
    for (const core::BugReport &b : rep.baseline.bugs)
        baselineKeys.insert(findingKeyOf(b));

    lint::LintConfig lcfg;
    lcfg.granularity = dcfg.granularity;
    lcfg.flushFree = dcfg.eadrOn();
    rep.lintBaseline = lint::runLint(baseTrace, lcfg);

    std::vector<RepairPlan> plans = synthesizePlans(
        rep.baseline, rep.lintBaseline, baseTrace, dcfg, &rep.unplanned);

    for (std::size_t i = 0; i < plans.size(); i++) {
        PlanOutcome out;
        out.plan = std::move(plans[i]);
        const RepairPlan &p = out.plan;

        if (p.advisory || p.edits.empty() ||
            !targetMatches(fcfg.targets, p)) {
            out.verdict = Verdict::Incomplete;
        } else {
            // Re-run the campaign with the repair applied. The hook
            // carries per-execution state, so every run gets a fresh
            // one over the same (plan-owned) script.
            mutate::InsertionMutation hook(p.edits);
            core::CampaignResult res = runOne(&hook, nullptr);
            out.editsFired = hook.fired();
            if (!out.editsFired)
                warn("repair %s: edits did not all fire",
                     p.describe().c_str());

            std::set<std::string> keys;
            for (const core::BugReport &b : res.bugs)
                keys.insert(findingKeyOf(b));
            out.remainingFindings = res.bugs.size();
            for (const std::string &k : keys) {
                if (!baselineKeys.count(k))
                    out.newFindings++;
            }

            if (!p.findingId.empty()) {
                out.targetGone = keys.count(p.targetKey) == 0;
            } else {
                // Lint-target plan: re-lint the edited trace and look
                // for the diagnostic by (rule, addr, source line).
                trace::TraceBuffer edited;
                mutate::InsertionMutation lintHook(p.edits);
                {
                    pm::PmPool scratch(fcfg.poolBytes);
                    trace::PmRuntime rt(scratch, edited,
                                        trace::Stage::PreFailure);
                    rt.setMutationHook(&lintHook);
                    try {
                        fcfg.pre(rt);
                    } catch (const trace::StageComplete &) {
                    }
                }
                lint::LintReport lr = lint::runLint(edited, lcfg);
                out.targetGone = true;
                for (const lint::Diagnostic &d : lr.diagnostics) {
                    if (sameDiag(d, p)) {
                        out.targetGone = false;
                        break;
                    }
                }
            }

            if (out.newFindings > 0) {
                out.verdict = Verdict::Regressed;
            } else if (!out.targetGone || !out.editsFired) {
                out.verdict = Verdict::Incomplete;
            } else if (fcfg.withOracle) {
                // Candidate verification: the repaired trace must
                // keep full detector/oracle agreement.
                pm::PmPool opool(fcfg.poolBytes);
                mutate::InsertionMutation ohook(p.edits);
                oracle::DiffConfig ocfg;
                ocfg.detector = dcfg;
                ocfg.threads = fcfg.threads;
                oracle::DiffReport dr = oracle::runDifferentialCampaign(
                    opool,
                    [&](trace::PmRuntime &rt) {
                        rt.setMutationHook(&ohook);
                        fcfg.pre(rt);
                    },
                    fcfg.post, ocfg);
                out.oracleRan = true;
                out.oracleClean = dr.clean();
                out.oracleAgreement = dr.agreementRate();
                out.verdict =
                    (out.oracleClean && out.oracleAgreement == 1.0)
                        ? Verdict::Verified
                        : Verdict::Regressed;
            } else {
                out.verdict = Verdict::Verified;
            }
        }

        switch (out.verdict) {
          case Verdict::Verified: rep.verified++; break;
          case Verdict::Incomplete: rep.incomplete++; break;
          case Verdict::Regressed: rep.regressed++; break;
        }
        if (fcfg.onPlan)
            fcfg.onPlan(i + 1, plans.size(), out.plan, out.verdict);
        rep.outcomes.push_back(std::move(out));
    }

    return rep;
}

namespace
{

/** The scoreboard's one-line explanation of a verdict. */
std::string
detailOf(const PlanOutcome &o)
{
    if (o.plan.advisory)
        return "advisory — not auto-applied";
    if (o.plan.edits.empty())
        return "no trace edit";
    if (o.verdict == Verdict::Verified) {
        return o.oracleRan ? strprintf("oracle agreement %.3f",
                                       o.oracleAgreement)
                           : "oracle skipped";
    }
    if (o.verdict == Verdict::Regressed) {
        if (o.newFindings)
            return strprintf("%zu new finding(s)", o.newFindings);
        return strprintf("oracle disagreement (agreement %.3f)",
                         o.oracleAgreement);
    }
    if (!o.editsFired && o.remainingFindings == 0 && !o.targetGone)
        return "not checked";
    if (!o.editsFired)
        return "edits did not fire";
    if (!o.targetGone)
        return "target persists";
    return "not checked";
}

} // namespace

std::string
FixReport::scoreboard() const
{
    std::string s = strprintf(
        "=== repair scoreboard: %zu plan(s): %zu verified, "
        "%zu incomplete, %zu regressed ===\n",
        outcomes.size(), verified, incomplete, regressed);
    s += strprintf("%-4s %-16s %-5s %-34s %-10s %s\n", "plan", "kind",
                   "for", "site", "verdict", "detail");
    for (const PlanOutcome &o : outcomes) {
        const RepairPlan &p = o.plan;
        const char *forWhat = "-";
        if (!p.findingId.empty())
            forWhat = p.findingId.c_str();
        else if (p.lintTarget)
            forWhat = lint::ruleId(p.lintRule);
        s += strprintf("%-4s %-16s %-5s %-34s %-10s %s\n",
                       p.id.c_str(), repairKindName(p.kind), forWhat,
                       strprintf("%s:%u", p.site.file, p.site.line)
                           .c_str(),
                       verdictName(o.verdict), detailOf(o).c_str());
    }
    for (const UnplannedFinding &u : unplanned) {
        s += strprintf("unplanned %s: %s — %s\n", u.findingId.c_str(),
                       u.description.c_str(), u.reason.c_str());
    }
    return s;
}

void
FixReport::writeJson(obs::JsonWriter &w) const
{
    w.beginObject();
    w.field("schema", "xfd-fix-v1");
    w.field("plans", static_cast<std::uint64_t>(outcomes.size()));
    w.field("verified", static_cast<std::uint64_t>(verified));
    w.field("incomplete", static_cast<std::uint64_t>(incomplete));
    w.field("regressed", static_cast<std::uint64_t>(regressed));

    w.key("repairs").beginArray();
    for (const PlanOutcome &o : outcomes) {
        const RepairPlan &p = o.plan;
        w.beginObject();
        w.field("id", p.id);
        w.field("kind", repairKindName(p.kind));
        if (!p.findingId.empty())
            w.field("finding", p.findingId);
        if (p.lintTarget)
            w.field("lint_rule", lint::ruleId(p.lintRule));
        w.field("target", p.target);
        w.key("site").beginObject();
        w.field("file", p.site.file);
        w.field("line", static_cast<std::uint64_t>(p.site.line));
        w.endObject();
        w.field("patch", p.patch);
        w.field("advisory", p.advisory);
        w.field("verdict", verdictName(o.verdict));
        w.field("target_gone", o.targetGone);
        w.field("new_findings",
                static_cast<std::uint64_t>(o.newFindings));
        w.field("remaining_findings",
                static_cast<std::uint64_t>(o.remainingFindings));
        w.field("edits_fired", o.editsFired);
        if (o.oracleRan) {
            w.key("oracle").beginObject();
            w.field("clean", o.oracleClean);
            w.field("agreement", o.oracleAgreement);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();

    w.key("unplanned").beginArray();
    for (const UnplannedFinding &u : unplanned) {
        w.beginObject();
        w.field("finding", u.findingId);
        w.field("description", u.description);
        w.field("reason", u.reason);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

std::string
FixReport::renderFixFor(const std::string &findingId) const
{
    std::string s;
    for (const PlanOutcome &o : outcomes) {
        if (o.plan.findingId != findingId)
            continue;
        s += strprintf("[FIX %s] %s: %s (%s", o.plan.id.c_str(),
                       repairKindName(o.plan.kind),
                       o.plan.patch.c_str(), verdictName(o.verdict));
        if (o.oracleRan)
            s += strprintf(", oracle %.3f", o.oracleAgreement);
        s += ")\n";
    }
    return s;
}

} // namespace xfd::fix
