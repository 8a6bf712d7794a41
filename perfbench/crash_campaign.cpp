/**
 * @file
 * crash_campaign workload: the fault campaign of examples/fault_campaign
 * (its 2-core campaign machine; hashmap, btree and skiplist x the five
 * fault-plan presets) with each thread's structure raised from 100 to
 * 2000 elements, timed at runCrashCampaign(spec, jobs=1). The seed is
 * the campaign seed, so every sample draws its own workload seed.
 *
 * Oracle violations count as failed samples, once per run (later passes
 * and the traced replay must reproduce the first). Two samples known to
 * violate the oracle are replayed through runCrashSample in every run,
 * so no choice of campaign size or seed hides them.
 */

#include <cstdio>
#include <memory>

#include "api/system.hh"
#include "fault/campaign.hh"
#include "fault/fault_injector.hh"
#include "perfbench.hh"

using namespace bbb;

namespace perfbench
{

namespace
{

/** Crash points per (workload, plan) pair: 3 x 5 x 60 = 900 samples,
 *  ~5 s per pass on a 4-CPU Xeon host. */
constexpr unsigned kCrashPoints = 60;

/** A sample that violated the oracle at 2000 elements, 30 points and
 *  campaign seed 1, as its CrashSample fields. */
struct KnownViolator
{
    const char *workload;
    const char *plan;
    std::uint64_t seed;
    Tick crash_tick;
    std::uint64_t fault_seed;
};

const KnownViolator kKnownViolators[] = {
    {"btree", "drained-battery", 9229568877587940854ull, 70985855,
     16363188499140489826ull},
    {"skiplist", "dying-media", 9719797862970468431ull, 61869054,
     9167061335060537443ull},
};

/** examples/fault_campaign's machine: crash points land mid-run. */
SystemConfig
campaignCfg()
{
    SystemConfig cfg;
    cfg.num_cores = 2;
    cfg.l1d.size_bytes = 4_KiB;
    cfg.llc.size_bytes = 16_KiB;
    cfg.dram.size_bytes = 64_MiB;
    cfg.nvmm.size_bytes = 64_MiB;
    cfg.mode = PersistMode::BbbMemSide;
    cfg.bbpb.entries = 8;
    cfg.l1d.repl = ReplPolicy::Random;
    cfg.llc.repl = ReplPolicy::Random;
    cfg.shards = 1;
    return cfg;
}

struct RunPlan
{
    CampaignSpec spec;
    std::vector<CrashSample> samples;
    std::vector<CrashSample> known;
};

RunPlan
planRun(std::uint64_t seed)
{
    RunPlan p;
    p.spec.base = campaignCfg();
    p.spec.workloads = {"hashmap", "btree", "skiplist"};
    p.spec.params.ops_per_thread = 500;
    p.spec.params.initial_elements = 2000;
    p.spec.params.array_elements = 1 << 12;
    p.spec.crash_points = kCrashPoints;
    p.spec.min_crash_tick = nsToTicks(2000);
    p.spec.max_crash_tick = nsToTicks(120000);
    p.spec.campaign_seed = seed;
    p.samples = planCampaign(p.spec);

    for (const KnownViolator &k : kKnownViolators) {
        CrashSample s;
        s.cfg = p.spec.base;
        s.cfg.seed = k.seed;
        s.workload = k.workload;
        s.params = p.spec.params;
        s.params.seed = k.seed;
        s.crash_tick = k.crash_tick;
        s.plan_name = k.plan;
        for (const NamedFaultPlan &np : faultPlanPresets()) {
            if (np.name == k.plan)
                s.plan = np.plan;
        }
        s.plan.fault_seed = k.fault_seed;
        p.known.push_back(std::move(s));
    }
    return p;
}

/** What must match between the entry point and the traced replay. */
struct Outcome
{
    CampaignOutcome outcome;
    std::uint64_t fingerprint;

    bool
    operator==(const Outcome &o) const
    {
        return outcome == o.outcome && fingerprint == o.fingerprint;
    }
};

std::vector<Outcome>
outcomesOf(const CampaignSummary &summary)
{
    std::vector<Outcome> v;
    for (const CrashSampleResult &r : summary.results)
        v.push_back({r.outcome, r.image_fingerprint});
    return v;
}

void
checkOutcomes(const std::vector<Outcome> &got,
              const std::vector<Outcome> &want, const char *what,
              Result &res)
{
    if (got == want)
        return;
    std::size_t bad = got.size() == want.size() ? 0 : 1;
    for (std::size_t i = 0; i < got.size() && i < want.size(); ++i)
        bad += !(got[i] == want[i]);
    res.fail(std::string(what) + ": " + std::to_string(bad) +
             " samples differ");
}

/** Drain totals of the traced samples' crashes. */
struct CrashTotals
{
    double drained_bytes = 0;
    double sacrificed = 0;
};

/**
 * runCrashSample, call by call, each public call in a span. Must
 * classify exactly as the library does (checked against the entry
 * point's results).
 */
Outcome
tracedSample(const CrashSample &sample, Tracer &tracer, SimLedger &ledger,
             CrashTotals &totals)
{
    Tracer::Scope envelope(tracer, kSampleSpan);
    SystemConfig cfg = sample.cfg;
    if (!sample.plan.media.empty())
        cfg.media.kind = mediaKindFromName(sample.plan.media);

    std::unique_ptr<System> sys;
    std::unique_ptr<Workload> wl;
    CrashReport report;
    RecoveryResult raw, repaired;
    Outcome out{CampaignOutcome::Clean, 0};
    std::uint64_t damaged = 0;
    {
        Tracer::Scope s(tracer, "api.build");
        sys = std::make_unique<System>(cfg);
        sys->setFaultPlan(sample.plan);
    }
    {
        Tracer::Scope s(tracer, "workloads.install");
        wl = makeWorkload(sample.workload, sample.params);
        wl->install(*sys);
    }
    {
        Tracer::Scope s(tracer, "sim.run");
        sys->runUntil(sample.crash_tick);
    }
    {
        Tracer::Scope s(tracer, "core.crash");
        report = sys->crashNow();
    }
    {
        Tracer::Scope s(tracer, "workloads.check");
        raw = wl->checkRecovery(sys->pmemImage());
    }
    {
        Tracer::Scope s(tracer, "api.snapshot");
        out.fingerprint = sys->image().fingerprint();
        ledger.add(*sys);
        totals.drained_bytes += report.drained_bytes;
        totals.sacrificed += report.sacrificed_blocks;
    }
    repaired = raw;
    const FaultInjector *inj = sys->faultInjector();
    if (inj && !inj->damagedBlocks().empty()) {
        Tracer::Scope s(tracer, "fault.oracle");
        damaged = inj->damagedBlocks().size();
        BackingStore healed = sys->image().clone();
        inj->repairImage(healed);
        repaired = wl->checkRecovery(PmemImage(healed, sys->addrMap()));
    }
    if (!report.drain_prefix_ok || !repaired.consistent())
        out.outcome = CampaignOutcome::OracleViolation;
    else if (damaged == 0)
        out.outcome = raw.consistent() ? CampaignOutcome::Clean
                                       : CampaignOutcome::OracleViolation;
    else
        out.outcome = CampaignOutcome::DegradedPrefix;
    {
        Tracer::Scope s(tracer, "api.teardown");
        wl.reset();
        sys.reset();
    }
    return out;
}

/**
 * Replay the known violators through runCrashSample, count them, and
 * show whether their printed repro lines replay the same fault seed.
 */
void
runKnownViolators(const std::vector<CrashSample> &known, Result &res)
{
    for (const CrashSample &s : known) {
        CrashSampleResult r = runCrashSample(s);
        ++res.attempted;
        if (r.outcome == CampaignOutcome::OracleViolation)
            ++res.failed;
        std::printf("known violator %s/%s: %s; repro: %s\n",
                    s.workload.c_str(), s.plan_name.c_str(),
                    campaignOutcomeName(r.outcome), r.reproLine().c_str());
        std::uint64_t replayed =
            FaultPlan::parse(r.plan.toString()).fault_seed;
        if (replayed != r.plan.fault_seed) {
            std::printf("  repro-line defect: fault_seed=%llu replays as "
                        "%llu (FaultPlan::parse reads it through strtod)\n",
                        static_cast<unsigned long long>(r.plan.fault_seed),
                        static_cast<unsigned long long>(replayed));
        }
    }
}

} // namespace

void
runCrashCampaign(const Args &args, Result &res)
{
    RunPlan plan = planRun(args.seed);

    std::vector<Outcome> first;
    CampaignSummary first_summary;
    auto pass = [&] {
        double t0 = hostNow();
        CampaignSummary summary = bbb::runCrashCampaign(plan.spec, 1);
        double wall = hostNow() - t0;
        if (!summary.allClassified())
            res.fail("campaign left samples unclassified");
        std::vector<Outcome> outcomes = outcomesOf(summary);
        if (first.empty()) {
            res.attempted += summary.results.size();
            res.failed += summary.violations;
            first = std::move(outcomes);
            first_summary = std::move(summary);
        } else {
            checkOutcomes(outcomes, first, "pass-to-pass determinism", res);
        }
        return wall;
    };
    SetupSampler setup([&] { keep(planRun(args.seed)); });
    std::vector<double> walls = args.trace
                                    ? timedPasses(0.0, pass)
                                    : timedPasses(args.seconds, pass, &setup);
    std::printf("crash_campaign: %zu samples per pass: %llu clean, %llu "
                "degraded-prefix, %llu oracle-violations\n",
                first.size(),
                static_cast<unsigned long long>(first_summary.clean),
                static_cast<unsigned long long>(first_summary.degraded),
                static_cast<unsigned long long>(first_summary.violations));
    if (const CrashSampleResult *v = first_summary.firstViolation())
        std::printf("  first violation: %s\n", v->reproLine().c_str());
    runKnownViolators(plan.known, res);

    if (!args.trace) {
        std::printf("crash_campaign: %zu passes, wall_s per pass:",
                    walls.size());
        for (double w : walls)
            std::printf(" %.3f", w);
        std::printf("\n");
        res.add("wall_s", median(walls), "s");
        res.add("setup_s", setup.seconds(), "s");
        res.add("peak_rss_mb", Usage::now().max_rss_mb, "MB");
        return;
    }

    Tracer tracer;
    SimLedger ledger;
    CrashTotals totals;
    std::vector<Outcome> traced;
    std::uint64_t clean = 0, degraded = 0, violations = 0;
    Usage before = Usage::now();
    double t0 = hostNow();
    for (std::size_t i = 0; i < plan.samples.size(); ++i) {
        tracer.setSample(static_cast<std::uint32_t>(i));
        traced.push_back(
            tracedSample(plan.samples[i], tracer, ledger, totals));
        switch (traced.back().outcome) {
          case CampaignOutcome::Clean:
            ++clean;
            break;
          case CampaignOutcome::DegradedPrefix:
            ++degraded;
            break;
          case CampaignOutcome::OracleViolation:
            ++violations;
            break;
        }
    }
    double traced_wall = hostNow() - t0;
    Usage after = Usage::now();

    checkOutcomes(traced, first, "traced vs untraced", res);
    reportTrace(args, res, tracer, traced_wall, walls.front(), before,
                after);
    ledger.report(res);
    res.add("crash.drained_bytes", totals.drained_bytes, "bytes");
    res.add("crash.sacrificed_blocks", totals.sacrificed, "count");
    res.add("campaign.clean", clean, "count");
    res.add("campaign.degraded_prefix", degraded, "count");
    res.add("campaign.oracle_violations", violations, "count");
}

} // namespace perfbench
