// Unit tests for the utility substrate: RNG, statistics, thread pool,
// table printer, flags, aligned vectors, and the serving-metrics
// histogram (percentile edge cases).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/aligned.h"
#include "util/flags.h"
#include "util/histogram.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace sofa {
namespace {

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += (a.Next() == b.Next());
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.5, 12.25);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 12.25);
  }
}

TEST(RngTest, UniformMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Uniform();
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, BelowStaysInBound) {
  Rng rng(3);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 100ULL, 1000003ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.Below(bound), bound);
    }
  }
}

TEST(RngTest, BelowCoversAllResidues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    seen.insert(rng.Below(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, GaussianMomentsMatchStandardNormal) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, GaussianWithParamsShiftsAndScales) {
  Rng rng(17);
  const int n = 100000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian(5.0, 2.0);
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(RngTest, ForkedStreamsAreIndependent) {
  Rng parent(99);
  Rng child = parent.Fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += (parent.Next() == child.Next());
  }
  EXPECT_LT(equal, 3);
}

// ---------------------------------------------------------------- stats

TEST(StatsTest, MeanOfKnownValues) {
  EXPECT_DOUBLE_EQ(stats::Mean({1.0, 2.0, 3.0, 4.0}), 2.5);
  EXPECT_DOUBLE_EQ(stats::Mean({}), 0.0);
}

TEST(StatsTest, VarianceOfKnownValues) {
  // Sample variance of {2,4,4,4,5,5,7,9} = 32/7.
  EXPECT_NEAR(stats::Variance({2, 4, 4, 4, 5, 5, 7, 9}), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats::Variance({5.0}), 0.0);
}

TEST(StatsTest, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(stats::Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(stats::Median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> v = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(stats::Percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(stats::Percentile(v, 100), 50.0);
  EXPECT_DOUBLE_EQ(stats::Percentile(v, 50), 30.0);
  EXPECT_DOUBLE_EQ(stats::Percentile(v, 25), 20.0);
  EXPECT_DOUBLE_EQ(stats::Percentile(v, 12.5), 15.0);
}

TEST(StatsTest, MinMax) {
  EXPECT_DOUBLE_EQ(stats::Min({3.0, -1.0, 2.0}), -1.0);
  EXPECT_DOUBLE_EQ(stats::Max({3.0, -1.0, 2.0}), 3.0);
}

TEST(StatsTest, SkewnessOfSymmetricDataIsZero) {
  EXPECT_NEAR(stats::Skewness({-2, -1, 0, 1, 2}), 0.0, 1e-12);
}

TEST(StatsTest, SkewnessSignDetectsAsymmetry) {
  EXPECT_GT(stats::Skewness({0, 0, 0, 0, 10}), 1.0);
  EXPECT_LT(stats::Skewness({0, 0, 0, 0, -10}), -1.0);
}

TEST(StatsTest, KurtosisOfGaussianSampleNearZero) {
  Rng rng(21);
  std::vector<double> v(50000);
  for (auto& x : v) {
    x = rng.Gaussian();
  }
  EXPECT_NEAR(stats::ExcessKurtosis(v), 0.0, 0.15);
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(stats::PearsonCorrelation(x, y), 1.0, 1e-12);
  std::vector<double> z = {10, 8, 6, 4, 2};
  EXPECT_NEAR(stats::PearsonCorrelation(x, z), -1.0, 1e-12);
}

TEST(StatsTest, PearsonUncorrelatedNearZero) {
  Rng rng(23);
  std::vector<double> x(20000);
  std::vector<double> y(20000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.Gaussian();
    y[i] = rng.Gaussian();
  }
  EXPECT_NEAR(stats::PearsonCorrelation(x, y), 0.0, 0.03);
}

TEST(StatsTest, KsStatisticSmallForNormalSample) {
  Rng rng(29);
  std::vector<double> v(20000);
  for (auto& x : v) {
    x = rng.Gaussian();
  }
  EXPECT_LT(stats::KsStatisticVsStdNormal(v), 0.02);
}

TEST(StatsTest, KsStatisticLargeForShiftedSample) {
  Rng rng(29);
  std::vector<double> v(20000);
  for (auto& x : v) {
    x = rng.Gaussian() + 2.0;
  }
  EXPECT_GT(stats::KsStatisticVsStdNormal(v), 0.5);
}

TEST(StatsTest, StdNormalCdfKnownPoints) {
  EXPECT_NEAR(stats::StdNormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(stats::StdNormalCdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(stats::StdNormalCdf(-1.959963985), 0.025, 1e-6);
}

TEST(StatsTest, FractionalRanksWithTies) {
  const std::vector<double> ranks = stats::FractionalRanks({10, 20, 20, 30});
  ASSERT_EQ(ranks.size(), 4u);
  EXPECT_DOUBLE_EQ(ranks[0], 1.0);
  EXPECT_DOUBLE_EQ(ranks[1], 2.5);
  EXPECT_DOUBLE_EQ(ranks[2], 2.5);
  EXPECT_DOUBLE_EQ(ranks[3], 4.0);
}

TEST(StatsTest, AverageRanksLowerIsBetter) {
  // Method 0 always best, method 2 always worst.
  const std::vector<std::vector<double>> scores = {
      {1.0, 1.0, 1.0}, {2.0, 2.0, 2.0}, {3.0, 3.0, 3.0}};
  const std::vector<double> ranks = stats::AverageRanks(scores);
  EXPECT_DOUBLE_EQ(ranks[0], 1.0);
  EXPECT_DOUBLE_EQ(ranks[1], 2.0);
  EXPECT_DOUBLE_EQ(ranks[2], 3.0);
}

TEST(StatsTest, WilcoxonIdenticalSamplesGiveP1) {
  const std::vector<double> a = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(stats::WilcoxonSignedRankP(a, a), 1.0);
}

TEST(StatsTest, WilcoxonDetectsConsistentDifference) {
  std::vector<double> a(30);
  std::vector<double> b(30);
  Rng rng(31);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.Gaussian();
    b[i] = a[i] + 1.0 + 0.1 * rng.Gaussian();  // b consistently larger
  }
  EXPECT_LT(stats::WilcoxonSignedRankP(a, b), 0.001);
}

TEST(StatsTest, WilcoxonSymmetricNoiseNotSignificant) {
  std::vector<double> a(30);
  std::vector<double> b(30);
  Rng rng(37);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.Gaussian();
    b[i] = a[i] + 0.01 * rng.Gaussian();
  }
  EXPECT_GT(stats::WilcoxonSignedRankP(a, b), 0.05);
}

TEST(StatsTest, HolmAdjustMonotoneAndClipped) {
  const std::vector<double> adj = stats::HolmAdjust({0.01, 0.04, 0.03, 0.5});
  ASSERT_EQ(adj.size(), 4u);
  EXPECT_NEAR(adj[0], 0.04, 1e-12);   // 0.01 * 4
  EXPECT_NEAR(adj[2], 0.09, 1e-12);   // 0.03 * 3
  EXPECT_NEAR(adj[1], 0.09, 1e-12);   // max(0.04*2, previous) step-down
  EXPECT_NEAR(adj[3], 0.5, 1e-12);
  for (double p : adj) {
    EXPECT_LE(p, 1.0);
  }
}

TEST(StatsTest, CriticalDifferenceSeparatesClearWinner) {
  // Method 0 beats 1 and 2 on every observation; 1 and 2 are a coin flip.
  Rng rng(41);
  std::vector<std::vector<double>> scores(3, std::vector<double>(40));
  for (std::size_t i = 0; i < 40; ++i) {
    scores[0][i] = 1.0 + 0.01 * rng.Gaussian();
    scores[1][i] = 2.0 + 0.5 * rng.Gaussian();
    scores[2][i] = 2.0 + 0.5 * rng.Gaussian();
  }
  const auto cd = stats::CriticalDifference(scores);
  EXPECT_LT(cd.mean_ranks[0], cd.mean_ranks[1]);
  EXPECT_LT(cd.mean_ranks[0], cd.mean_ranks[2]);
  EXPECT_LT(cd.pairwise_p[0][1], 0.05);
  EXPECT_LT(cd.pairwise_p[0][2], 0.05);
  EXPECT_GT(cd.pairwise_p[1][2], 0.05);
  // The only clique should pair methods 1 and 2.
  ASSERT_EQ(cd.cliques.size(), 1u);
  std::set<std::size_t> clique(cd.cliques[0].begin(), cd.cliques[0].end());
  EXPECT_EQ(clique, (std::set<std::size_t>{1, 2}));
}

// ---------------------------------------------------------------- threading

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter(0);
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter(0);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, TasksMaySubmitTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter(0);
  pool.Submit([&] {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  });
  pool.Wait();
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, ParallelRunInvokesEveryWorkerOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(8);
  ParallelRun(&pool, 8, [&](std::size_t w) { hits[w].fetch_add(1); });
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 10001;
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(&pool, n, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1);
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(4);
  ParallelFor(&pool, 0, [](std::size_t, std::size_t, std::size_t) {
    FAIL() << "must not be called";
  });
}

TEST(ThreadPoolTest, DynamicParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 5003;
  std::vector<std::atomic<int>> hits(n);
  DynamicParallelFor(&pool, n, 17,
                     [&](std::size_t begin, std::size_t end, std::size_t) {
                       for (std::size_t i = begin; i < end; ++i) {
                         hits[i].fetch_add(1);
                       }
                     });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, HardwareThreadsAtLeastOne) {
  EXPECT_GE(HardwareThreads(), 1u);
}

// Work whose Join() holds its worker until released (or, with
// leave_for_tasks, until a task is queued), counting who is inside.
class GatedWork : public Joinable {
 public:
  explicit GatedWork(bool exhausted_on_release, bool leave_for_tasks = false)
      : exhausted_on_release_(exhausted_on_release),
        leave_for_tasks_(leave_for_tasks) {}

  bool Join(const ThreadPool& pool) override {
    joins.fetch_add(1);
    const int now = inside.fetch_add(1) + 1;
    int seen = max_inside.load();
    while (now > seen && !max_inside.compare_exchange_weak(seen, now)) {
    }
    while (!released.load() && !(leave_for_tasks_ && pool.HasQueuedTask())) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    inside.fetch_sub(1);
    return exhausted_on_release_ && released.load();
  }

  std::atomic<int> joins{0};
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  std::atomic<bool> released{false};

 private:
  const bool exhausted_on_release_;
  const bool leave_for_tasks_;
};

// Polls `done` for up to 10 s.
template <typename Pred>
bool EventuallyTrue(Pred done) {
  for (int i = 0; i < 10000 && !done(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

TEST(ThreadPoolJoinTest, IdleWorkersJoinAtMostMaxHelpers) {
  ThreadPool pool(4);
  const auto work = std::make_shared<GatedWork>(/*exhausted_on_release=*/true);
  pool.Offer(work, 2);
  ASSERT_TRUE(EventuallyTrue([&] { return work->inside.load() == 2; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(work->inside.load(), 2);  // the other two idle workers stay out
  EXPECT_EQ(work->max_inside.load(), 2);
  work->released = true;
  ASSERT_TRUE(EventuallyTrue([&] { return work->inside.load() == 0; }));
  // The first helper out reported the work exhausted: the pool dropped the
  // offer, so nobody joined again.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(work->joins.load(), 2);
}

TEST(ThreadPoolJoinTest, QueuedTaskStartsBeforeTheWorkIsExhausted) {
  ThreadPool pool(2);
  const auto work = std::make_shared<GatedWork>(
      /*exhausted_on_release=*/true, /*leave_for_tasks=*/true);
  pool.Offer(work, 2);
  ASSERT_TRUE(EventuallyTrue([&] { return work->inside.load() == 2; }));
  const auto ran = std::make_shared<std::promise<void>>();
  std::future<void> task_done = ran->get_future();
  pool.Submit([ran] { ran->set_value(); });
  // Both workers are inside Join(); one leaves for the task while the
  // work is still far from exhausted.
  EXPECT_EQ(task_done.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_FALSE(work->released.load());
  EXPECT_GE(work->joins.load(), 2);
  work->released = true;
  pool.Withdraw(work.get());
}

TEST(ThreadPoolJoinTest, NothingJoinsAfterWithdraw) {
  ThreadPool pool(1);
  // Join() reports work left, so without the withdrawal the worker would
  // join again as soon as it returned.
  const auto work = std::make_shared<GatedWork>(/*exhausted_on_release=*/false);
  pool.Offer(work, 1);
  ASSERT_TRUE(EventuallyTrue([&] { return work->inside.load() == 1; }));
  pool.Withdraw(work.get());
  work->released = true;
  ASSERT_TRUE(EventuallyTrue([&] { return work->inside.load() == 0; }));
  const auto ran = std::make_shared<std::promise<void>>();
  std::future<void> task_done = ran->get_future();
  pool.Submit([ran] { ran->set_value(); });
  EXPECT_EQ(task_done.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(work->joins.load(), 1);
}

// ---------------------------------------------------------------- timer

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 1000000; ++i) {
    sink = sink + 1.0;
  }
  EXPECT_GE(timer.Seconds(), 0.0);
  EXPECT_GE(timer.Millis(), timer.Seconds());  // ms value >= s value
}

TEST(TimerTest, TimeItReturnsNonNegative) {
  const double s = TimeIt([] {});
  EXPECT_GE(s, 0.0);
}

// ---------------------------------------------------------------- printer

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"long-name", "22"});
  const std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("| name"), std::string::npos);
  EXPECT_NE(rendered.find("| long-name"), std::string::npos);
  // Header separator present.
  EXPECT_NE(rendered.find("|---"), std::string::npos);
}

TEST(TablePrinterTest, FormatDoublePrecision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

TEST(TablePrinterTest, FormatSecondsScales) {
  EXPECT_EQ(FormatSeconds(0.5), "500.0 ms");
  EXPECT_EQ(FormatSeconds(2.5), "2.50 s");
  EXPECT_EQ(FormatSeconds(0.0000005), "0.5 us");
}

TEST(TablePrinterTest, FormatCountSeparators) {
  EXPECT_EQ(FormatCount(1), "1");
  EXPECT_EQ(FormatCount(1234), "1,234");
  EXPECT_EQ(FormatCount(1017586504ULL), "1,017,586,504");
}

// ---------------------------------------------------------------- flags

TEST(FlagsTest, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--n=100", "--name", "astro", "positional",
                        "--verbose"};
  Flags flags(6, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("n", 0), 100);
  EXPECT_EQ(flags.GetString("name", ""), "astro");
  EXPECT_TRUE(flags.GetBool("verbose", false));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
  EXPECT_EQ(flags.names(),
            (std::vector<std::string>{"n", "name", "verbose"}));
}

TEST(FlagsTest, DefaultsApplyWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags flags(1, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("n", 42), 42);
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0.01), 0.01);
  EXPECT_FALSE(flags.Has("n"));
}

TEST(FlagsTest, ParsesLists) {
  const char* argv[] = {"prog", "--datasets=astro,lendb,sift1b"};
  Flags flags(2, const_cast<char**>(argv));
  const auto items = flags.GetList("datasets");
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0], "astro");
  EXPECT_EQ(items[2], "sift1b");
}

TEST(FlagsTest, BoolFalseSpellings) {
  const char* argv[] = {"prog", "--a=false", "--b=0", "--c=no"};
  Flags flags(4, const_cast<char**>(argv));
  EXPECT_FALSE(flags.GetBool("a", true));
  EXPECT_FALSE(flags.GetBool("b", true));
  EXPECT_FALSE(flags.GetBool("c", true));
}

// ---------------------------------------------------------------- aligned

TEST(AlignedVectorTest, DataIsAligned) {
  AlignedVector<float> v(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kBufferAlignment, 0u);
}

TEST(AlignedVectorTest, ResizeZeroInitializesNewTail) {
  AlignedVector<float> v(4);
  for (std::size_t i = 0; i < 4; ++i) {
    v[i] = 1.0f;
  }
  v.resize(8);
  for (std::size_t i = 4; i < 8; ++i) {
    EXPECT_EQ(v[i], 0.0f);
  }
  EXPECT_EQ(v[0], 1.0f);
}

TEST(AlignedVectorTest, CopyAndMoveSemantics) {
  AlignedVector<int> v(3);
  v[0] = 1;
  v[1] = 2;
  v[2] = 3;
  AlignedVector<int> copy = v;
  EXPECT_EQ(copy[1], 2);
  copy[1] = 99;
  EXPECT_EQ(v[1], 2);  // deep copy
  AlignedVector<int> moved = std::move(copy);
  EXPECT_EQ(moved[1], 99);
  EXPECT_EQ(copy.size(), 0u);  // NOLINT(bugprone-use-after-move)
}

TEST(AlignedVectorTest, PushBackGrows) {
  AlignedVector<int> v;
  for (int i = 0; i < 1000; ++i) {
    v.push_back(i);
  }
  ASSERT_EQ(v.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(v[static_cast<std::size_t>(i)], i);
  }
}

TEST(AlignedVectorTest, AssignFills) {
  AlignedVector<float> v;
  v.assign(10, 3.5f);
  ASSERT_EQ(v.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(v[i], 3.5f);
  }
}

// ------------------------------------------------------- LogHistogram

TEST(LogHistogramTest, EmptyHistogramReportsZeros) {
  LogHistogram h(1e-3, 1e5);
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_EQ(h.Sum(), 0.0);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.MaxValue(), 0.0);
  EXPECT_EQ(h.Percentile(0.0), 0.0);
  EXPECT_EQ(h.Percentile(50.0), 0.0);
  EXPECT_EQ(h.Percentile(100.0), 0.0);
}

TEST(LogHistogramTest, SingleSampleAtEveryPercentile) {
  LogHistogram h(1e-3, 1e5);
  h.Record(7.5);
  EXPECT_EQ(h.TotalCount(), 1u);
  EXPECT_EQ(h.Mean(), 7.5);
  EXPECT_EQ(h.MaxValue(), 7.5);
  // Every percentile lands in the sample's bucket: at most one bucket of
  // relative error below (~12% at 20 buckets/decade), capped at the
  // observed maximum above.
  for (const double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_GE(h.Percentile(p), 7.5 / 1.13) << "p" << p;
    EXPECT_LE(h.Percentile(p), 7.5) << "p" << p;
  }
}

TEST(LogHistogramTest, OutOfRangePercentilesAreClamped) {
  LogHistogram h(1e-3, 1e5);
  h.Record(2.0);
  h.Record(4.0);
  EXPECT_EQ(h.Percentile(-10.0), h.Percentile(0.0));
  EXPECT_EQ(h.Percentile(250.0), h.Percentile(100.0));
}

TEST(LogHistogramTest, SaturatingBucketsClampNotDrop) {
  LogHistogram h(1.0, 100.0);
  // Above the range: counted in the last bucket, percentile capped at the
  // true observed maximum (not at the bucket edge).
  h.Record(1e9);
  EXPECT_EQ(h.TotalCount(), 1u);
  EXPECT_EQ(h.MaxValue(), 1e9);
  EXPECT_LE(h.Percentile(99.0), 1e9);
  EXPECT_GE(h.Percentile(99.0), 100.0 / 1.13);  // at least the last edge
  // Below the range (and zero): clamped into the first bucket; the cap by
  // MaxValue keeps the reported percentile at the tiny observed value.
  LogHistogram low(1.0, 100.0);
  low.Record(1e-9);
  EXPECT_EQ(low.TotalCount(), 1u);
  EXPECT_EQ(low.Percentile(50.0), 1e-9);
  low.Record(0.0);
  EXPECT_EQ(low.TotalCount(), 2u);
}

TEST(LogHistogramTest, PercentilesAreMonotoneAndBounded) {
  LogHistogram h(1e-3, 1e4, /*buckets_per_decade=*/20);
  Rng rng(9);
  double max_seen = 0.0;
  double sum = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const double v = std::exp(rng.Gaussian());  // log-normal latencies
    h.Record(v);
    max_seen = std::max(max_seen, v);
    sum += v;
  }
  EXPECT_EQ(h.TotalCount(), 2000u);
  EXPECT_NEAR(h.Mean(), sum / 2000.0, 1e-9);
  EXPECT_EQ(h.MaxValue(), max_seen);
  double previous = 0.0;
  for (const double p : {1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    const double value = h.Percentile(p);
    EXPECT_GE(value, previous) << "p" << p;
    EXPECT_LE(value, max_seen) << "p" << p;
    previous = value;
  }
  EXPECT_EQ(h.Percentile(100.0), max_seen);
}

TEST(LogHistogramTest, ResetReturnsToEmpty) {
  LogHistogram h(1e-3, 1e5);
  h.Record(1.0);
  h.Record(10.0);
  ASSERT_EQ(h.TotalCount(), 2u);
  h.Reset();
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.MaxValue(), 0.0);
  EXPECT_EQ(h.Percentile(99.0), 0.0);
  // Recording after a reset starts a fresh population.
  h.Record(5.0);
  EXPECT_EQ(h.TotalCount(), 1u);
  EXPECT_EQ(h.Mean(), 5.0);
}

TEST(LogHistogramTest, ConcurrentRecordingLosesNothing) {
  LogHistogram h(1e-3, 1e5);
  ThreadPool pool(4);
  constexpr std::size_t kPerWorker = 5000;
  ParallelRun(&pool, 4, [&](std::size_t worker) {
    for (std::size_t i = 0; i < kPerWorker; ++i) {
      h.Record(static_cast<double>(worker + 1));
    }
  });
  EXPECT_EQ(h.TotalCount(), 4 * kPerWorker);
  EXPECT_EQ(h.MaxValue(), 4.0);
  EXPECT_NEAR(h.Sum(), kPerWorker * (1.0 + 2.0 + 3.0 + 4.0), 1e-6);
}

TEST(LogHistogramTest, MergeOfEmptyIsANoop) {
  LogHistogram h(1e-3, 1e5);
  h.Record(2.0);
  h.Record(8.0);
  const double p50 = h.Percentile(50.0);
  LogHistogram empty(1e-3, 1e5);
  h.Merge(empty);
  EXPECT_EQ(h.TotalCount(), 2u);
  EXPECT_NEAR(h.Sum(), 10.0, 1e-9);
  EXPECT_EQ(h.MaxValue(), 8.0);
  EXPECT_EQ(h.Percentile(50.0), p50);
  // Merging into an empty histogram copies the population.
  empty.Merge(h);
  EXPECT_EQ(empty.TotalCount(), 2u);
  EXPECT_NEAR(empty.Sum(), 10.0, 1e-9);
  EXPECT_EQ(empty.MaxValue(), 8.0);
  EXPECT_EQ(empty.Percentile(50.0), p50);
}

TEST(LogHistogramTest, MergeSingleSampleMatchesDirectRecord) {
  LogHistogram a(1e-3, 1e5);
  a.Record(3.25);
  LogHistogram b(1e-3, 1e5);
  b.Merge(a);
  LogHistogram direct(1e-3, 1e5);
  direct.Record(3.25);
  EXPECT_EQ(b.TotalCount(), direct.TotalCount());
  EXPECT_EQ(b.Sum(), direct.Sum());
  EXPECT_EQ(b.MaxValue(), direct.MaxValue());
  for (const double p : {1.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(b.Percentile(p), direct.Percentile(p)) << "p" << p;
  }
}

TEST(LogHistogramTest, MergeAcrossBucketsEqualsCombinedPopulation) {
  // Two disjoint populations decades apart: the merge must be
  // indistinguishable from recording both populations into one
  // histogram — same counts per bucket, sum, max, and percentiles.
  LogHistogram fast(1e-3, 1e5);
  LogHistogram slow(1e-3, 1e5);
  LogHistogram combined(1e-3, 1e5);
  Rng rng(31);
  for (int i = 0; i < 500; ++i) {
    const double f = 0.1 + rng.Uniform();        // ~1e-1 decade
    const double s = 100.0 + 900.0 * rng.Uniform();  // ~1e2..1e3
    fast.Record(f);
    slow.Record(s);
    combined.Record(f);
    combined.Record(s);
  }
  fast.Merge(slow);
  EXPECT_EQ(fast.TotalCount(), combined.TotalCount());
  EXPECT_NEAR(fast.Sum(), combined.Sum(), 1e-6);
  EXPECT_EQ(fast.MaxValue(), combined.MaxValue());
  ASSERT_EQ(fast.NumBuckets(), combined.NumBuckets());
  for (std::size_t b = 0; b < fast.NumBuckets(); ++b) {
    EXPECT_EQ(fast.BucketCount(b), combined.BucketCount(b)) << "bucket " << b;
  }
  for (const double p : {5.0, 50.0, 95.0, 99.0}) {
    EXPECT_EQ(fast.Percentile(p), combined.Percentile(p)) << "p" << p;
  }
  // The bimodal split is visible: the median sits in the fast mode, the
  // upper tail in the slow mode.
  EXPECT_LT(fast.Percentile(45.0), 2.0);
  EXPECT_GT(fast.Percentile(95.0), 100.0 / 1.13);
}

TEST(LogHistogramTest, TerminalBucketInterpolatesTowardObservedMax) {
  // All mass beyond the histogram range: percentiles interpolate between
  // the terminal bucket's lower edge and the observed maximum instead of
  // collapsing to a meaningless finite edge.
  LogHistogram h(1.0, 10.0);
  h.Record(50.0);
  h.Record(100.0);
  h.Record(200.0);
  const double last_edge = h.BucketUpperEdge(h.NumBuckets() - 2);
  for (const double p : {10.0, 50.0, 99.0}) {
    EXPECT_GE(h.Percentile(p), std::min(last_edge, 200.0)) << "p" << p;
    EXPECT_LE(h.Percentile(p), 200.0) << "p" << p;
  }
  EXPECT_EQ(h.Percentile(100.0), 200.0);
  // Percentiles stay monotone inside the terminal bucket.
  EXPECT_LE(h.Percentile(10.0), h.Percentile(50.0));
  EXPECT_LE(h.Percentile(50.0), h.Percentile(99.0));
}

TEST(RoundUpTest, RoundsToMultiples) {
  EXPECT_EQ(RoundUp(0, 64), 0u);
  EXPECT_EQ(RoundUp(1, 64), 64u);
  EXPECT_EQ(RoundUp(64, 64), 64u);
  EXPECT_EQ(RoundUp(65, 64), 128u);
}

}  // namespace
}  // namespace sofa
