/**
 * @file
 * litmus workload: the full built-in litmus corpus at shard width 1,
 * timed at litmus::checkCorpus. The enumeration is exhaustive, so the
 * seed has no effect. Every configuration with a violation counts as
 * failed.
 */

#include <cstdio>
#include <set>
#include <tuple>

#include "litmus/corpus.hh"
#include "litmus/harness.hh"
#include "perfbench.hh"

using namespace bbb;

namespace perfbench
{

namespace
{

struct Setup
{
    std::vector<litmus::Test> tests;
    litmus::HarnessOptions opts;
};

Setup
makeSetup()
{
    Setup s;
    s.tests = litmus::corpus();
    s.opts.widths = {1};
    return s;
}

/** The deterministic part of a harness result. */
std::vector<std::uint64_t>
countsOf(const litmus::HarnessResult &r)
{
    return {r.tests_run, r.configs_run,  r.nodes,
            r.leaves,    r.pruned,       r.sim_runs,
            r.battery_runs, r.violations.size()};
}

/** (test, mode, width) configurations with at least one violation. */
std::uint64_t
failedConfigs(const litmus::HarnessResult &r)
{
    std::set<std::tuple<std::string, int, unsigned>> bad;
    for (const litmus::Violation &v : r.violations) {
        bad.insert({v.test, static_cast<int>(v.mode), v.width});
        std::fprintf(stderr, "%s\n", v.format().c_str());
    }
    return bad.size();
}

} // namespace

void
runLitmus(const Args &args, Result &res)
{
    Setup setup = makeSetup();

    litmus::HarnessResult first;
    bool have_first = false;
    auto pass = [&] {
        double t0 = hostNow();
        litmus::HarnessResult r = litmus::checkCorpus(setup.tests, setup.opts);
        double wall = hostNow() - t0;
        if (!have_first) {
            res.attempted += r.configs_run;
            res.failed += failedConfigs(r);
            first = std::move(r);
            have_first = true;
        } else if (countsOf(r) != countsOf(first)) {
            res.fail("litmus: pass-to-pass counts differ");
        }
        return wall;
    };
    SetupSampler sampler([] { keep(makeSetup()); });
    std::vector<double> walls =
        args.trace ? timedPasses(0.0, pass)
                   : timedPasses(args.seconds, pass, &sampler);
    std::printf("litmus: %llu tests, %llu configs, %llu schedule prefixes "
                "simulated (%llu complete), %llu violations per pass\n",
                static_cast<unsigned long long>(first.tests_run),
                static_cast<unsigned long long>(first.configs_run),
                static_cast<unsigned long long>(first.sim_runs),
                static_cast<unsigned long long>(first.leaves),
                static_cast<unsigned long long>(first.violations.size()));

    if (!args.trace) {
        std::printf("litmus: %zu passes, wall_s per pass:", walls.size());
        for (double w : walls)
            std::printf(" %.3f", w);
        std::printf("\n");
        res.add("wall_s", median(walls), "s");
        res.add("setup_s", sampler.seconds(), "s");
        res.add("peak_rss_mb", Usage::now().max_rss_mb, "MB");
        return;
    }

    Tracer tracer;
    litmus::HarnessResult merged;
    Usage before = Usage::now();
    double t0 = hostNow();
    for (std::size_t i = 0; i < setup.tests.size(); ++i) {
        tracer.setSample(static_cast<std::uint32_t>(i));
        Tracer::Scope envelope(tracer, kSampleSpan);
        litmus::HarnessResult r;
        {
            Tracer::Scope s(tracer, "litmus.check");
            r = litmus::checkTest(setup.tests[i], setup.opts);
        }
        merged.merge(r);
    }
    double traced_wall = hostNow() - t0;
    Usage after = Usage::now();
    if (countsOf(merged) != countsOf(first))
        res.fail("litmus: traced counts differ from checkCorpus");

    reportTrace(args, res, tracer, traced_wall, walls.front(), before,
                after);
    res.add("litmus.nodes", merged.nodes, "count");
    res.add("litmus.leaves", merged.leaves, "count");
    res.add("litmus.pruned", merged.pruned, "count");
    res.add("litmus.sim_runs", merged.sim_runs, "count");
    res.add("litmus.battery_runs", merged.battery_runs, "count");
    double branches = double(merged.nodes) + merged.pruned;
    res.add("litmus.por_prune_ratio", branches ? merged.pruned / branches : 0,
            "ratio");
}

} // namespace perfbench
