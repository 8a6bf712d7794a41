/**
 * @file
 * Host-performance benchmark binary for the BBB simulator.
 *
 *   bbb_perfbench --workload fig7|crash_campaign|litmus --seed N
 *                 --seconds S --trace 0|1 [--digests PATH] [--spans PATH]
 *                 [--host JSON] [--record]
 *
 * Prints informational lines, then as its last line one JSON object
 * {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
 * with --trace 0, the per-layer metrics with --trace 1. perfbench/run.py
 * builds this binary and forwards its arguments; NOTES.md explains the
 * workloads and metrics.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "api/system.hh"
#include "perfbench.hh"

namespace perfbench
{

namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Every end-to-end metric; each workload reports all of them. */
const MetricDef kEndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/**
 * Every per-layer metric. A workload that never calls a layer reports it
 * as 0 (e.g. litmus.* on fig7).
 */
const MetricDef kPerLayer[] = {
    // Host ledger: self time per layer span in the traced pass.
    {"api.build_s", "s"},
    {"workloads.install_s", "s"},
    {"sim.run_s", "s"},
    {"core.crash_s", "s"},
    {"workloads.check_s", "s"},
    {"fault.oracle_s", "s"},
    {"api.snapshot_s", "s"},
    {"api.teardown_s", "s"},
    {"litmus.check_s", "s"},
    {"unattributed_s", "s"},
    {"trace.wall_s", "s"},
    {"trace_overhead_s", "s"},
    {"sim.host_ns_per_op", "ns"},
    {"sim.host_ns_per_event", "ns"},
    {"host.user_s", "s"},
    {"host.sys_s", "s"},
    {"host.minor_faults", "count"},
    {"host.invol_ctx_switches", "count"},
    // Simulated ledger: canonical, identical for a speed-only change.
    {"sim.ops", "count"},
    {"sim.events_fired", "count"},
    {"cpu.stall_ticks", "ticks"},
    {"cpu.persist_rejections", "count"},
    {"cache.l1_hits", "count"},
    {"cache.l1_misses", "count"},
    {"cache.llc_misses", "count"},
    {"hierarchy.skipped_writebacks", "count"},
    {"bbpb.coalesce_ratio", "ratio"},
    {"bbpb.forced_drains", "count"},
    {"nvmm.media_writes", "count"},
    {"nvmm.media_reads", "count"},
    {"crash.drained_bytes", "bytes"},
    {"crash.sacrificed_blocks", "count"},
    {"campaign.clean", "count"},
    {"campaign.degraded_prefix", "count"},
    {"campaign.oracle_violations", "count"},
    {"litmus.nodes", "count"},
    {"litmus.leaves", "count"},
    {"litmus.pruned", "count"},
    {"litmus.sim_runs", "count"},
    {"litmus.battery_runs", "count"},
    {"litmus.por_prune_ratio", "ratio"},
};

/** Layer span names; each reports as `<name>_s` in the host ledger. */
const char *const kLayers[] = {
    "api.build",       "workloads.install", "sim.run",
    "core.crash",      "workloads.check",   "fault.oracle",
    "api.snapshot",    "api.teardown",      "litmus.check",
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload fig7|crash_campaign|litmus "
                 "--seed N --seconds S --trace 0|1\n"
                 "          [--digests PATH] [--spans PATH] [--host JSON] "
                 "[--record]\n",
                 argv0);
    std::exit(2);
}

std::uint64_t
parseUint(const char *s, const char *argv0)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0' || errno != 0 || *s == '-')
        usage(argv0);
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--record") {
            a.record = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(argv[0]);
        const char *val = argv[++i];
        if (arg == "--workload") {
            a.workload = val;
        } else if (arg == "--seed") {
            a.seed = parseUint(val, argv[0]);
        } else if (arg == "--seconds") {
            a.seconds = static_cast<double>(parseUint(val, argv[0]));
            have_seconds = a.seconds > 0;
        } else if (arg == "--trace") {
            std::uint64_t t = parseUint(val, argv[0]);
            if (t > 1)
                usage(argv[0]);
            a.trace = t == 1;
        } else if (arg == "--digests") {
            a.digests = val;
        } else if (arg == "--spans") {
            a.spans = val;
        } else if (arg == "--host") {
            a.host = val;
        } else {
            usage(argv[0]);
        }
    }
    if (a.workload.empty() || !have_seconds)
        usage(argv[0]);
    return a;
}

void
printResult(const Result &res, bool trace)
{
    std::map<std::string, const Metric *> by_name;
    for (const Metric &m : res.metrics)
        by_name[m.name] = &m;

    std::string out = "{\"correct\": ";
    out += res.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(res.attempted);
    out += ", \"failed\": " + std::to_string(res.failed);
    out += ", \"metrics\": {";
    bool first = true;
    auto emit = [&](const MetricDef &d) {
        auto it = by_name.find(d.name);
        double v = it == by_name.end() ? 0.0 : it->second->value;
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", std::isfinite(v) ? v : 0.0);
        out += first ? "" : ", ";
        first = false;
        out += "\"" + std::string(d.name) + "\": {\"value\": " + num +
               ", \"unit\": \"" + d.unit + "\"}";
    };
    if (trace) {
        for (const MetricDef &d : kPerLayer)
            emit(d);
    } else {
        for (const MetricDef &d : kEndToEnd)
            emit(d);
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

} // namespace

void
Result::fail(const std::string &what)
{
    correct = false;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void
SetupSampler::sample()
{
    int fds[2];
    if (pipe(fds) != 0)
        return;
    std::fflush(stdout);
    pid_t pid = fork();
    if (pid == 0) {
        close(fds[0]);
        std::vector<double> secs;
        double start = hostNow();
        do {
            double t0 = hostNow();
            _setup();
            secs.push_back(hostNow() - t0);
        } while (hostNow() - start < kSampleSeconds);
        std::sort(secs.begin(), secs.end());
        double q[kQuantiles];
        for (int i = 0; i < kQuantiles; ++i)
            q[i] = secs[(secs.size() - 1) * i / (kQuantiles - 1)];
        bool ok = write(fds[1], q, sizeof q) == sizeof q;
        _exit(ok ? 0 : 1);
    }
    close(fds[1]);
    double q[kQuantiles];
    bool got = pid > 0 && read(fds[0], q, sizeof q) == sizeof q;
    close(fds[0]);
    int status = 0;
    if (pid > 0 && waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
        WEXITSTATUS(status) == 0 && got)
        _pooled.insert(_pooled.end(), q, q + kQuantiles);
    _last = hostNow();
}

Usage
Usage::now()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6;
    u.sys_s = ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
    u.max_rss_mb = ru.ru_maxrss / 1024.0; // Linux reports KiB
    u.minor_faults = static_cast<std::uint64_t>(ru.ru_minflt);
    u.invol_ctx_switches = static_cast<std::uint64_t>(ru.ru_nivcsw);
    return u;
}

int
Tracer::open(const char *name)
{
    int parent = _stack.empty() ? -1 : _stack.back();
    _spans.push_back({name, parent, _sample, hostNow(), 0.0});
    int idx = static_cast<int>(_spans.size()) - 1;
    _stack.push_back(idx);
    return idx;
}

void
Tracer::close(int idx)
{
    _spans[idx].end = hostNow();
    _stack.pop_back();
}

std::vector<std::pair<std::string, double>>
Tracer::selfTimes() const
{
    std::vector<double> self(_spans.size());
    for (std::size_t i = 0; i < _spans.size(); ++i)
        self[i] = _spans[i].end - _spans[i].start;
    for (const Span &s : _spans) {
        if (s.parent >= 0)
            self[s.parent] -= s.end - s.start;
    }
    std::map<std::string, double> by_name;
    for (std::size_t i = 0; i < _spans.size(); ++i)
        by_name[_spans[i].name] += self[i];
    return {by_name.begin(), by_name.end()};
}

bool
Tracer::writeJson(const std::string &path, const std::string &header) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << header << '\n';
    char line[256];
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        std::snprintf(line, sizeof line,
                      "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                      "\"sample\": %u, \"start\": %.9f, \"end\": %.9f}",
                      i, s.name, s.parent, s.sample, s.start, s.end);
        os << line << '\n';
    }
    return static_cast<bool>(os);
}

void
SimLedger::add(bbb::System &sys)
{
    const bbb::StatRegistry &st = sys.stats();
    ops += sys.hierarchy().memOps();
    events += sys.eventQueue().executed();
    host_s += sys.hostSeconds();
    for (unsigned c = 0; c < sys.numCores(); ++c) {
        stall += st.lookup("core" + std::to_string(c), "stall_ticks");
        rejections +=
            st.lookup("sb" + std::to_string(c), "persist_rejections");
    }
    l1_hits += st.lookup("hierarchy", "l1_hits");
    l1_misses += st.lookup("hierarchy", "l1_misses");
    llc_misses += st.lookup("hierarchy", "llc_misses");
    skipped += st.lookup("hierarchy", "skipped_writebacks");
    if (sys.config().usesBbpb())
        persisting += st.lookup("hierarchy", "persisting_stores");
    coalesces += st.lookup("bbpb", "coalesces");
    forced += st.lookup("bbpb", "forced_drains");
    mw += st.lookup("nvmm", "media_writes");
    mr += st.lookup("nvmm", "media_reads");
}

void
SimLedger::report(Result &res) const
{
    res.add("sim.ops", ops, "count");
    res.add("sim.events_fired", events, "count");
    res.add("sim.host_ns_per_op", ops ? host_s * 1e9 / ops : 0.0, "ns");
    res.add("sim.host_ns_per_event", events ? host_s * 1e9 / events : 0.0,
            "ns");
    res.add("cpu.stall_ticks", stall, "ticks");
    res.add("cpu.persist_rejections", rejections, "count");
    res.add("cache.l1_hits", l1_hits, "count");
    res.add("cache.l1_misses", l1_misses, "count");
    res.add("cache.llc_misses", llc_misses, "count");
    res.add("hierarchy.skipped_writebacks", skipped, "count");
    res.add("bbpb.coalesce_ratio", persisting ? coalesces / persisting : 0.0,
            "ratio");
    res.add("bbpb.forced_drains", forced, "count");
    res.add("nvmm.media_writes", mw, "count");
    res.add("nvmm.media_reads", mr, "count");
}

void
reportTrace(const Args &args, Result &res, const Tracer &tracer,
            double traced_wall, double untraced_wall, const Usage &before,
            const Usage &after)
{
    std::map<std::string, double> layer_self;
    for (const char *l : kLayers)
        layer_self[l] = 0.0;
    double attributed = 0.0;
    for (const auto &[name, self] : tracer.selfTimes()) {
        if (name == kSampleSpan)
            continue;
        auto it = layer_self.find(name);
        if (it == layer_self.end()) {
            res.fail("span '" + name + "' is not a known layer");
            continue;
        }
        it->second += self;
        attributed += self;
    }
    for (const auto &[name, self] : layer_self)
        res.add(name + "_s", self, "s");

    // The ledger must account for the traced wall time: whatever no
    // layer span covers (loop overhead, the sample envelope) is
    // unattributed, and can never be negative.
    double unattributed = traced_wall - attributed;
    if (unattributed < -1e-9)
        res.fail("layer self times exceed the traced wall time");
    res.add("unattributed_s", unattributed, "s");
    res.add("trace.wall_s", traced_wall, "s");
    res.add("trace_overhead_s", traced_wall - untraced_wall, "s");
    res.add("host.user_s", after.user_s - before.user_s, "s");
    res.add("host.sys_s", after.sys_s - before.sys_s, "s");
    res.add("host.minor_faults",
            static_cast<double>(after.minor_faults - before.minor_faults),
            "count");
    res.add("host.invol_ctx_switches",
            static_cast<double>(after.invol_ctx_switches -
                                before.invol_ctx_switches),
            "count");
    std::printf("ledger: %.6f s attributed + %.6f s unattributed = %.6f s "
                "traced wall (untraced %.6f s)\n",
                attributed, unattributed, traced_wall, untraced_wall);

    if (!args.spans.empty()) {
        std::string header = "{\"workload\": \"" + args.workload +
                             "\", \"seed\": " + std::to_string(args.seed) +
                             ", \"host\": " + args.host + "}";
        if (!tracer.writeJson(args.spans, header))
            res.fail("cannot write spans to " + args.spans);
    }
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args args = parseArgs(argc, argv);

    Result res;
    if (args.workload == "fig7")
        runFig7(args, res);
    else if (args.workload == "crash_campaign")
        runCrashCampaign(args, res);
    else if (args.workload == "litmus")
        runLitmus(args, res);
    else
        usage(argv[0]);

    if (res.attempted == 0)
        res.fail("no work attempted");
    for (const Metric &m : res.metrics) {
        if (!args.trace && !(m.value > 0.0))
            res.fail(m.name + " is not a positive measurement");
    }
    printResult(res, args.trace);
    return 0;
}
