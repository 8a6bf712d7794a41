/**
 * @file
 * Unit tests for the fiber (stackful coroutine) support.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/fiber.hh"

using namespace bbb;

namespace
{

/**
 * Recurse @p depth more frames, each holding a 1 KiB buffer it fills with
 * a pattern of (@p seed, depth) before the call and checks after it, and
 * yield once at the bottom with every frame live. Returns how many frames
 * found their buffer intact. Fiber stacks are not zeroed, so this also
 * shows that a body only ever reads what it wrote.
 */
unsigned
intactFrames(unsigned depth, unsigned seed)
{
    volatile unsigned char frame[1024];
    const auto mark = static_cast<unsigned char>(depth * 31 + seed);
    for (auto &b : frame)
        b = mark;
    unsigned below = 0;
    if (depth == 0)
        Fiber::yield();
    else
        below = intactFrames(depth - 1, seed);
    for (auto &b : frame) {
        if (b != mark)
            return below;
    }
    return below + 1;
}

} // namespace

TEST(Fiber, RunsToCompletionWithoutYield)
{
    int x = 0;
    Fiber f([&]() { x = 42; });
    EXPECT_FALSE(f.finished());
    f.resume();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(x, 42);
}

TEST(Fiber, YieldSuspendsAndResumes)
{
    std::vector<int> trace;
    Fiber f([&]() {
        trace.push_back(1);
        Fiber::yield();
        trace.push_back(3);
        Fiber::yield();
        trace.push_back(5);
    });
    f.resume();
    trace.push_back(2);
    f.resume();
    trace.push_back(4);
    EXPECT_FALSE(f.finished());
    f.resume();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, MultipleFibersInterleave)
{
    std::vector<int> trace;
    Fiber a([&]() {
        trace.push_back(10);
        Fiber::yield();
        trace.push_back(11);
    });
    Fiber b([&]() {
        trace.push_back(20);
        Fiber::yield();
        trace.push_back(21);
    });
    a.resume();
    b.resume();
    a.resume();
    b.resume();
    EXPECT_EQ(trace, (std::vector<int>{10, 20, 11, 21}));
    EXPECT_TRUE(a.finished() && b.finished());
}

TEST(Fiber, InFiberReflectsContext)
{
    EXPECT_FALSE(Fiber::inFiber());
    bool inside = false;
    Fiber f([&]() { inside = Fiber::inFiber(); });
    f.resume();
    EXPECT_TRUE(inside);
    EXPECT_FALSE(Fiber::inFiber());
}

TEST(Fiber, DeepCallStackSurvives)
{
    // Recursion exercises the private stack.
    std::function<std::uint64_t(unsigned)> fib = [&](unsigned n) {
        return n < 2 ? n : fib(n - 1) + fib(n - 2);
    };
    std::uint64_t result = 0;
    Fiber f([&]() { result = fib(20); });
    f.resume();
    EXPECT_EQ(result, 6765u);
}

TEST(Fiber, DeepFramesFillMostOfTheStack)
{
    // 160 frames of ~1 KiB reach well past half of the default 256 KiB
    // stack; a second deep fiber runs while the first is suspended at its
    // bottom, so the two stacks must be disjoint and fully usable.
    constexpr unsigned kDepth = 160;
    unsigned a_intact = 0;
    unsigned b_intact = 0;
    Fiber a([&]() { a_intact = intactFrames(kDepth - 1, 1); });
    Fiber b([&]() { b_intact = intactFrames(kDepth - 1, 2); });
    a.resume();
    b.resume();
    EXPECT_FALSE(a.finished() || b.finished());
    a.resume();
    b.resume();
    EXPECT_TRUE(a.finished() && b.finished());
    EXPECT_EQ(a_intact, kDepth);
    EXPECT_EQ(b_intact, kDepth);
}

TEST(Fiber, BackToBackLifecycles)
{
    // A new stack usually reuses the memory of the one just freed; each
    // fiber must still run correctly on whatever bytes it inherits.
    constexpr unsigned kCycles = 300;
    constexpr unsigned kDepth = 24;
    unsigned ok = 0;
    for (unsigned i = 0; i < kCycles; ++i) {
        unsigned intact = 0;
        Fiber f([&intact, i]() { intact = intactFrames(kDepth - 1, i); });
        f.resume();
        f.resume();
        ok += f.finished() && intact == kDepth;
    }
    EXPECT_EQ(ok, kCycles);
}

TEST(Fiber, YieldInsideNestedCalls)
{
    int stage = 0;
    std::function<void(int)> descend = [&](int depth) {
        if (depth == 0) {
            stage = 1;
            Fiber::yield();
            stage = 2;
            return;
        }
        descend(depth - 1);
    };
    Fiber f([&]() { descend(30); });
    f.resume();
    EXPECT_EQ(stage, 1);
    f.resume();
    EXPECT_EQ(stage, 2);
    EXPECT_TRUE(f.finished());
}

TEST(FiberDeath, ResumingFinishedFiberPanics)
{
    Fiber f([]() {});
    f.resume();
    EXPECT_DEATH(f.resume(), "finished");
}

TEST(FiberDeath, YieldOutsideFiberPanics)
{
    EXPECT_DEATH(Fiber::yield(), "outside");
}
