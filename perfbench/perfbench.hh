/**
 * @file
 * Shared pieces of the host-performance benchmark: arguments, the result
 * record every workload fills, the timing loops, and the in-memory span
 * tracer used by traced runs.
 *
 * An untraced run times one library entry point (runExperiments,
 * runCrashCampaign, litmus::checkCorpus) in a closed loop: one caller,
 * jobs=1, shards=1, passes back to back until the run's time budget is
 * spent. A traced run instead replays one pass through the public
 * per-layer calls, with a span around each call, and checks that it
 * reproduces the entry point's results exactly.
 */

#ifndef BBB_PERFBENCH_PERFBENCH_HH
#define BBB_PERFBENCH_PERFBENCH_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace bbb
{
class System;
}

namespace perfbench
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    /** fig7 reference digests (one line per cell per recorded seed). */
    std::string digests;
    /** Where a traced run writes its spans at exit. */
    std::string spans;
    /** Host description (JSON) written at the head of the spans file. */
    std::string host = "{}";
    /** fig7: print this seed's digest lines instead of checking them. */
    bool record = false;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * What one run reports: the last stdout line is built from this.
 * attempted and failed count the samples of one pass, once per run:
 * later passes and the traced replay repeat that pass and are checked
 * to reproduce it. So they depend on the seed alone, not on how many
 * passes fit the time budget.
 */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Record a failed check; @p what goes to stderr. */
    void fail(const std::string &what);
};

inline double
hostNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Keep @p v (and what it owns) from being optimised away. */
template <class T>
inline void
keep(const T &v)
{
    asm volatile("" : : "g"(&v) : "memory");
}

/**
 * Set-up timing. Set-up takes micro- to tens of microseconds, so one
 * reading is timer noise, and on a shared host its speed shifts from one
 * fraction of a second to the next (per-sample medians fall into a fast
 * and a slow cluster). So set-up is repeated back to back for
 * kSampleSeconds in samples spread over the run (at most one per
 * kGapSeconds), and seconds() is the median of all the repeats, each
 * sample weighted equally: it moves smoothly with the share of slow
 * samples instead of flipping between clusters as a median of sample
 * medians does. Each sample runs in a forked child that the parent waits
 * for: the repeats churn the heap, and the entry point must meet the heap
 * a user's process would give it.
 */
class SetupSampler
{
  public:
    static constexpr double kSampleSeconds = 0.25;
    static constexpr double kGapSeconds = 3.0;
    /** Each sample sends its repeats' percentiles 0, 1, ..., 100. */
    static constexpr int kQuantiles = 101;

    /** @p setup runs the whole set-up once and keep()s its product. */
    explicit SetupSampler(std::function<void()> setup)
        : _setup(std::move(setup))
    {
    }

    /** Take a sample unless one was taken in the last kGapSeconds. */
    void
    maybeSample()
    {
        if (_pooled.empty() || hostNow() - _last >= kGapSeconds)
            sample();
    }

    void sample();

    /** Median over every sample's repeats; 0 when no sample succeeded. */
    double seconds() const { return median(_pooled); }

  private:
    std::function<void()> _setup;
    std::vector<double> _pooled;
    double _last = 0.0;
};

/**
 * Closed loop: run @p pass back to back while the next pass is predicted
 * (from the last one) to end inside @p budget seconds; at least one
 * pass. A pass returns the host seconds of its entry-point call alone;
 * checking its results is not timed. Set-up samples, when @p setup is
 * given, are taken between passes and once after the last. Returns each
 * pass's time.
 */
template <class F>
std::vector<double>
timedPasses(double budget, F &&pass, SetupSampler *setup = nullptr)
{
    std::vector<double> walls;
    double start = hostNow();
    for (;;) {
        if (setup)
            setup->maybeSample();
        double t0 = hostNow();
        walls.push_back(pass());
        double now = hostNow();
        if (now - start + (now - t0) > budget)
            break;
    }
    if (setup)
        setup->sample();
    return walls;
}

/** Process resource usage (getrusage(RUSAGE_SELF)). */
struct Usage
{
    double user_s = 0.0;
    double sys_s = 0.0;
    double max_rss_mb = 0.0;
    std::uint64_t minor_faults = 0;
    std::uint64_t invol_ctx_switches = 0;

    static Usage now();
};

/**
 * In-memory span recorder. Each span has a name, a start and end, the
 * span open when it began (its parent), and the sample it belongs to.
 * Nothing is written until writeJson() at exit.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        int parent;
        std::uint32_t sample;
        double start;
        double end;
    };

    /** RAII span around one call into a layer. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name) : _t(t), _idx(t.open(name)) {}
        ~Scope() { _t.close(_idx); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &_t;
        int _idx;
    };

    Tracer() { _spans.reserve(1 << 14); }

    /** Spans opened from now on belong to sample @p id. */
    void setSample(std::uint32_t id) { _sample = id; }

    int open(const char *name);
    void close(int idx);

    /**
     * Self time per span name: each span's duration minus the part its
     * child spans cover, summed over spans of that name.
     */
    std::vector<std::pair<std::string, double>> selfTimes() const;

    /** Write every span as JSON lines, preceded by @p header. */
    bool writeJson(const std::string &path, const std::string &header) const;

  private:
    std::vector<Span> _spans;
    std::vector<int> _stack;
    std::uint32_t _sample = 0;
};

/**
 * Finish a traced pass: add the host ledger to @p res — one `<layer>_s`
 * self time per layer span name, the unattributed remainder, the traced
 * wall time, the tracing overhead against the untraced @p untraced_wall,
 * and the getrusage deltas over the pass — then write the spans to
 * args.spans. Fails @p res when a span name is not a known layer or the
 * ledger does not sum to the traced wall time.
 */
void reportTrace(const Args &args, Result &res, const Tracer &tracer,
                 double traced_wall, double untraced_wall,
                 const Usage &before, const Usage &after);

/**
 * The simulated ledger summed over the machines of a traced pass, plus
 * the timing simulator's host speed (host seconds inside run/runUntil
 * per simulated op and event).
 */
struct SimLedger
{
    double ops = 0, events = 0, host_s = 0, stall = 0, rejections = 0;
    double l1_hits = 0, l1_misses = 0, llc_misses = 0, skipped = 0;
    double coalesces = 0, persisting = 0, forced = 0, mw = 0, mr = 0;

    /** Add one finished (or crashed) machine's counters. */
    void add(bbb::System &sys);
    void report(Result &res) const;
};

/** Span name for the per-sample envelope (its self time is unattributed). */
constexpr const char *kSampleSpan = "sample";

void runFig7(const Args &args, Result &res);
void runCrashCampaign(const Args &args, Result &res);
void runLitmus(const Args &args, Result &res);

} // namespace perfbench

#endif // BBB_PERFBENCH_PERFBENCH_HH
