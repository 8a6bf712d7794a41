/**
 * @file
 * Machine set-up cost and freshness.
 *
 * The litmus checker builds and destroys one small System per schedule
 * prefix, so building a machine must stay cheap: this translation unit
 * replaces the global operator new/delete with counting versions (gated
 * by a flag so gtest's own allocations are ignored) and pins the number
 * of heap allocations one System(litmusConfig) build takes, so a change
 * that makes building allocate per stat or per cache line shows up here.
 *
 * Fiber stacks and cache lines are deliberately not zeroed when a machine
 * is built, so memory freed by one machine is handed to the next with its
 * old contents. The freshness test runs a program on a machine, churns
 * through many machines that run other programs, and requires the same
 * program on a new machine to produce the same metrics and image.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "api/system.hh"
#include "litmus/litmus.hh"
#include "litmus/sim_driver.hh"

namespace
{

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocs{0};

void *
countedAlloc(std::size_t size)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace bbb;

namespace
{

/** Heap allocations one System(litmusConfig(mode, 1)) build may take. */
constexpr std::size_t kBuildAllocBudget = 94;

std::size_t
buildAllocs(const SystemConfig &cfg)
{
    g_allocs.store(0);
    g_counting.store(true);
    {
        System sys(cfg);
        g_counting.store(false);
    }
    return g_allocs.load();
}

/** Zeroes the host-time leaves so snapshots compare exactly. */
struct CanonicalGuard
{
    CanonicalGuard() { setenv("BBB_REPORT_CANONICAL", "1", 1); }
    ~CanonicalGuard() { unsetenv("BBB_REPORT_CANONICAL"); }
};

struct Outcome
{
    MetricSnapshot metrics;
    std::array<std::uint64_t, 4> image{};
};

/**
 * Run a small racy program on a fresh litmus machine and crash it: every
 * core stores @p seed-derived values to four persistent blocks, reads
 * them back, flushes and fences.
 */
Outcome
runMachine(litmus::Mode mode, std::uint64_t seed)
{
    System sys(litmus::litmusConfig(mode, 1));
    std::array<Addr, 4> var{};
    for (unsigned v = 0; v < var.size(); ++v)
        var[v] = litmus::litmusVarAddr(sys.addrMap(), int(v));
    for (CoreId c = 0; c < sys.numCores(); ++c) {
        sys.onThread(c, [&var, c, seed](ThreadContext &tc) {
            std::uint64_t sum = 0;
            for (unsigned i = 0; i < 6; ++i) {
                Addr a = var[(c + i + seed) % var.size()];
                tc.store64(a, seed * 1000 + c * 10 + i + sum % 7);
                sum += tc.load64(var[(i + seed) % var.size()]);
                tc.writeBack(a);
            }
            tc.fullFence();
        });
    }
    sys.run();
    sys.crashNow();
    Outcome out;
    out.metrics = sys.snapshotMetrics(true);
    PmemImage img = sys.pmemImage();
    for (unsigned v = 0; v < var.size(); ++v)
        out.image[v] = img.read64(var[v]);
    return out;
}

} // namespace

TEST(SystemBuild, LitmusMachineBuildAllocationsArePinned)
{
    for (litmus::Mode mode : litmus::allModes()) {
        std::size_t allocs = buildAllocs(litmus::litmusConfig(mode, 1));
        EXPECT_GT(allocs, 0u);
        EXPECT_LE(allocs, kBuildAllocBudget)
            << "mode " << litmus::modeName(mode);
    }
}

TEST(SystemBuild, MachineAfterThousandCyclesMatchesTheFirst)
{
    CanonicalGuard canonical;
    const std::vector<litmus::Mode> &modes = litmus::allModes();
    std::vector<Outcome> first;
    for (litmus::Mode mode : modes)
        first.push_back(runMachine(mode, 1));

    // Other programs on every mode leave other bytes behind in the
    // memory the next machines' stacks and cache lines are carved from.
    for (unsigned i = 0; i < 1000; ++i)
        runMachine(modes[i % modes.size()], 2 + i % 13);

    for (std::size_t m = 0; m < modes.size(); ++m) {
        Outcome again = runMachine(modes[m], 1);
        EXPECT_EQ(again.metrics.toJson(), first[m].metrics.toJson())
            << "mode " << litmus::modeName(modes[m]);
        EXPECT_EQ(again.image, first[m].image)
            << "mode " << litmus::modeName(modes[m]);
        EXPECT_GT(again.metrics.count("sim.ops"), 0u);
    }
}
