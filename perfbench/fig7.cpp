/**
 * @file
 * fig7 workload: the paper's headline grid at full size — the seven
 * Table IV workloads x eADR / BBB-32 / BBB-1024 on benchConfig() with
 * benchParams() — timed at runExperiments(specs, jobs=1).
 *
 * The seed becomes WorkloadParams::seed. Every cell's digest
 * (system.exec_ticks, system.nvmm_writes_effective, sim.ops,
 * sim.events_fired) is checked against fig7_digests.txt when the seed is
 * recorded there, and always across passes and against the traced
 * decomposition.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "api/experiment.hh"
#include "api/system.hh"
#include "perfbench.hh"

using namespace bbb;

namespace perfbench
{

namespace
{

const char *const kWorkloads[] = {"rtree",   "ctree",  "hashmap", "mutateNC",
                                  "mutateC", "swapNC", "swapC"};

/** Paper reference values (bench_fig7_exec_and_writes' paperRef). */
constexpr double kPaperExecX = 1.01;
constexpr double kPaperWritesX = 1.049;

std::vector<ExperimentSpec>
fig7Specs(std::uint64_t seed)
{
    WorkloadParams params = benchParams();
    params.seed = seed;
    std::vector<ExperimentSpec> specs;
    for (const char *name : kWorkloads) {
        specs.push_back({benchConfig(PersistMode::Eadr), name, params});
        specs.push_back(
            {benchConfig(PersistMode::BbbMemSide, 32), name, params});
        specs.push_back(
            {benchConfig(PersistMode::BbbMemSide, 1024), name, params});
    }
    for (ExperimentSpec &s : specs)
        s.cfg.shards = 1;
    return specs;
}

/** One cell's digest line: `seed workload.mode.entries v1 v2 v3 v4`. */
std::string
digestLine(std::uint64_t seed, const ExperimentSpec &spec,
           const MetricSnapshot &m)
{
    std::ostringstream os;
    os << seed << ' ' << spec.workload << '.'
       << persistModeName(spec.cfg.mode) << '.' << spec.cfg.bbpb.entries
       << ' ' << m.count("system.exec_ticks") << ' '
       << m.count("system.nvmm_writes_effective") << ' '
       << m.count("sim.ops") << ' ' << m.count("sim.events_fired");
    return os.str();
}

std::vector<std::string>
digestLines(std::uint64_t seed, const std::vector<ExperimentSpec> &specs,
            const std::vector<MetricSnapshot> &trees)
{
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < specs.size(); ++i)
        lines.push_back(digestLine(seed, specs[i], trees[i]));
    return lines;
}

std::vector<MetricSnapshot>
treesOf(std::vector<ExperimentResult> results)
{
    std::vector<MetricSnapshot> trees;
    for (ExperimentResult &r : results)
        trees.push_back(std::move(r.metrics));
    return trees;
}

/** The recorded digest lines for @p seed (empty when not recorded). */
std::vector<std::string>
recordedDigests(const std::string &path, std::uint64_t seed, Result &res)
{
    std::vector<std::string> lines;
    if (path.empty())
        return lines;
    std::ifstream is(path);
    if (!is) {
        res.fail("cannot read digest file " + path);
        return lines;
    }
    std::string prefix = std::to_string(seed) + ' ';
    for (std::string line; std::getline(is, line);) {
        if (line.compare(0, prefix.size(), prefix) == 0)
            lines.push_back(line);
    }
    return lines;
}

/** Compare @p got with the reference; count mismatched cells as failed. */
void
checkDigests(const std::vector<std::string> &got,
             const std::vector<std::string> &want, const char *what,
             Result &res)
{
    if (got.size() != want.size()) {
        res.fail(std::string(what) + ": cell count differs");
        res.failed += got.size();
        return;
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i] != want[i]) {
            res.fail(std::string(what) + ": '" + got[i] + "' != '" +
                     want[i] + "'");
            ++res.failed;
        }
    }
}

double
geomean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += std::log(x);
    return v.empty() ? 0.0 : std::exp(s / v.size());
}

/** The model's error against the paper, for information only. */
void
printPaperError(const std::vector<MetricSnapshot> &trees)
{
    std::vector<double> exec_x, writes_x;
    for (std::size_t w = 0; w + 2 < trees.size(); w += 3) {
        const MetricSnapshot &eadr = trees[w];
        const MetricSnapshot &bbb32 = trees[w + 1];
        exec_x.push_back(double(bbb32.count("system.exec_ticks")) /
                         eadr.count("system.exec_ticks"));
        writes_x.push_back(
            double(bbb32.count("system.nvmm_writes_effective")) /
            eadr.count("system.nvmm_writes_effective"));
    }
    double e = geomean(exec_x), w = geomean(writes_x);
    std::printf("fig7 vs paper (information only; the model is not "
                "validated against hardware):\n"
                "  BBB-32 exec time x eADR, geomean: %.4f (paper %.3f, "
                "error %+.2f%%)\n"
                "  BBB-32 NVMM writes x eADR, geomean: %.4f (paper %.3f, "
                "error %+.2f%%)\n",
                e, kPaperExecX, 100.0 * (e / kPaperExecX - 1.0), w,
                kPaperWritesX, 100.0 * (w / kPaperWritesX - 1.0));
}

/** One pass through the public per-layer calls, each in a span. */
std::vector<MetricSnapshot>
tracedPass(const std::vector<ExperimentSpec> &specs, Tracer &tracer,
           SimLedger &ledger)
{
    std::vector<MetricSnapshot> trees(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        tracer.setSample(static_cast<std::uint32_t>(i));
        Tracer::Scope sample(tracer, kSampleSpan);
        std::unique_ptr<System> sys;
        std::unique_ptr<Workload> wl;
        {
            Tracer::Scope s(tracer, "api.build");
            sys = std::make_unique<System>(specs[i].cfg);
        }
        {
            Tracer::Scope s(tracer, "workloads.install");
            wl = makeWorkload(specs[i].workload, specs[i].params);
            wl->install(*sys);
        }
        {
            Tracer::Scope s(tracer, "sim.run");
            sys->run();
        }
        {
            Tracer::Scope s(tracer, "api.snapshot");
            trees[i] = sys->snapshotMetrics();
            ledger.add(*sys);
        }
        {
            Tracer::Scope s(tracer, "api.teardown");
            wl.reset();
            sys.reset();
        }
    }
    return trees;
}

} // namespace

void
runFig7(const Args &args, Result &res)
{
    std::vector<ExperimentSpec> specs = fig7Specs(args.seed);

    if (args.record) {
        auto trees = treesOf(runExperiments(specs, 1));
        for (const std::string &line : digestLines(args.seed, specs, trees))
            std::printf("%s\n", line.c_str());
        res.attempted = specs.size();
        return;
    }

    // The entry point, untraced. A traced run makes one such pass as the
    // reference for fidelity and tracing overhead.
    std::vector<std::string> first;
    std::vector<MetricSnapshot> first_trees;
    auto pass = [&] {
        double t0 = hostNow();
        std::vector<ExperimentResult> results = runExperiments(specs, 1);
        double wall = hostNow() - t0;
        auto trees = treesOf(std::move(results));
        auto lines = digestLines(args.seed, specs, trees);
        if (first.empty()) {
            res.attempted += specs.size();
            first = lines;
            first_trees = std::move(trees);
        } else {
            checkDigests(lines, first, "pass-to-pass determinism", res);
        }
        return wall;
    };
    SetupSampler setup([&] { keep(fig7Specs(args.seed)); });
    std::vector<double> walls = args.trace
                                    ? timedPasses(0.0, pass)
                                    : timedPasses(args.seconds, pass, &setup);

    std::vector<std::string> want =
        recordedDigests(args.digests, args.seed, res);
    if (want.empty()) {
        std::printf("fig7: no recorded digest for seed %llu; checked "
                    "pass-to-pass determinism only\n",
                    static_cast<unsigned long long>(args.seed));
    } else {
        checkDigests(first, want, "recorded digest", res);
    }
    printPaperError(first_trees);

    if (!args.trace) {
        std::printf("fig7: %zu passes of %zu cells, wall_s per pass:",
                    walls.size(), specs.size());
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
    Usage before = Usage::now();
    double t0 = hostNow();
    std::vector<MetricSnapshot> trees = tracedPass(specs, tracer, ledger);
    double traced_wall = hostNow() - t0;
    Usage after = Usage::now();

    checkDigests(digestLines(args.seed, specs, trees), first,
                 "traced vs untraced", res);
    reportTrace(args, res, tracer, traced_wall, walls.front(), before,
                after);
    ledger.report(res);
}

} // namespace perfbench
