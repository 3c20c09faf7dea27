// Tests for the task-parallel substrate, including the determinism
// property (D5): parallel sweeps produce identical results regardless of
// thread count.
#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/rng.hpp"

namespace rbb {
namespace {

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.for_each(1000, [&](std::uint64_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroTasksIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.for_each(0, [&](std::uint64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SingleThreadPoolWorks) {
  ThreadPool pool(1);
  std::atomic<std::uint64_t> sum{0};
  pool.for_each(100, [&](std::uint64_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPool, MoreTasksThanThreads) {
  ThreadPool pool(2);
  std::vector<int> results(10000, 0);
  pool.for_each(10000, [&](std::uint64_t i) {
    results[i] = static_cast<int>(i * 2);
  });
  for (std::size_t i = 0; i < 10000; ++i) EXPECT_EQ(results[i], static_cast<int>(i) * 2);
}

TEST(ThreadPool, FewerTasksThanThreads) {
  ThreadPool pool(8);
  std::vector<int> results(3, 0);
  pool.for_each(3, [&](std::uint64_t i) { results[i] = 1; });
  EXPECT_EQ(std::accumulate(results.begin(), results.end(), 0), 3);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.for_each(100,
                                 [&](std::uint64_t i) {
                                   if (i == 57) {
                                     throw std::runtime_error("task failed");
                                   }
                                 }),
               std::runtime_error);
  // Pool remains usable after an exception.
  std::atomic<int> count{0};
  pool.for_each(10, [&](std::uint64_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int batch = 0; batch < 20; ++batch) {
    std::atomic<int> count{0};
    pool.for_each(50, [&](std::uint64_t) { ++count; });
    EXPECT_EQ(count.load(), 50);
  }
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.for_each(4, [&](std::uint64_t) {
    pool.for_each(10, [&](std::uint64_t) {
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(), 40);
}

TEST(ThreadPool, NestedSubmissionToAnotherPoolRunsInlineToo) {
  // The anti-oversubscription rule: a for_each issued from inside any
  // pool task runs sequentially on the calling thread, even when it
  // targets a different, idle pool (trial-level fan-out around a
  // sharded round must not multiply thread counts).
  ThreadPool outer(2);
  ThreadPool inner(4);
  std::atomic<int> inner_total{0};
  std::atomic<int> off_thread{0};
  outer.for_each(4, [&](std::uint64_t) {
    const std::thread::id submitter = std::this_thread::get_id();
    inner.for_each(10, [&](std::uint64_t) {
      inner_total.fetch_add(1, std::memory_order_relaxed);
      if (std::this_thread::get_id() != submitter) {
        off_thread.fetch_add(1, std::memory_order_relaxed);
      }
    });
  });
  EXPECT_EQ(inner_total.load(), 40);
  EXPECT_EQ(off_thread.load(), 0)
      << "nested batch escaped the submitting thread";
}

TEST(ThreadPool, InsideTaskReflectsNesting) {
  EXPECT_FALSE(ThreadPool::inside_task());
  ThreadPool pool(2);
  std::atomic<int> inside{0};
  pool.for_each(8, [&](std::uint64_t) {
    if (ThreadPool::inside_task()) {
      inside.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(inside.load(), 8);
  EXPECT_FALSE(ThreadPool::inside_task());
}

TEST(ThreadPool, GlobalPoolHasAtLeastOneWorker) {
  EXPECT_GE(ThreadPool::global().thread_count(), 1u);
  // The submitter participates in batches, so the worker set stays at
  // or below the default target.
  EXPECT_LE(ThreadPool::global().thread_count(),
            ThreadPool::default_thread_count());
}

TEST(ThreadPool, ResultsIndependentOfThreadCount) {
  // The determinism contract: per-task RNG substreams make the collected
  // results identical for 1 and 4 threads.
  auto sweep = [](unsigned threads) {
    ThreadPool pool(threads);
    std::vector<std::uint64_t> results(64);
    pool.for_each(64, [&](std::uint64_t i) {
      Rng rng(99, i);
      std::uint64_t acc = 0;
      for (int k = 0; k < 1000; ++k) acc ^= rng();
      results[i] = acc;
    });
    return results;
  };
  EXPECT_EQ(sweep(1), sweep(4));
}

TEST(ThreadPool, GlobalPoolIsUsable) {
  std::atomic<int> count{0};
  ThreadPool::global().for_each(25, [&](std::uint64_t) { ++count; });
  EXPECT_EQ(count.load(), 25);
}

TEST(ThreadPool, DefaultThreadCountPositive) {
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

// --- resident teams (run_team) and the nesting grant ------------------------

TEST(ThreadPool, RunTeamPlacesEveryTaskOnItsOwnThread) {
  // The team contract: all `count` tasks are concurrently resident, so
  // a full-team rendezvous inside the bodies cannot deadlock.
  ThreadPool pool(3);
  constexpr std::uint64_t kWidth = 4;  // 3 workers + the submitter
  std::atomic<std::uint64_t> arrived{0};
  std::array<std::thread::id, kWidth> ids{};
  const bool ran = pool.run_team(kWidth, [&](std::uint64_t w) {
    ids[w] = std::this_thread::get_id();
    arrived.fetch_add(1, std::memory_order_acq_rel);
    while (arrived.load(std::memory_order_acquire) < kWidth) {
      std::this_thread::yield();
    }
  });
  EXPECT_TRUE(ran);
  const std::set<std::thread::id> distinct(ids.begin(), ids.end());
  EXPECT_EQ(distinct.size(), kWidth);
}

TEST(ThreadPool, RunTeamRefusesWhatItCannotGuarantee) {
  ThreadPool pool(1);
  bool ran_any = false;
  // Wider than workers + submitter: refused without running anything.
  EXPECT_FALSE(pool.run_team(3, [&](std::uint64_t) { ran_any = true; }));
  EXPECT_FALSE(ran_any);
  // Zero tasks is a trivially satisfied team.
  EXPECT_TRUE(pool.run_team(0, [&](std::uint64_t) { ran_any = true; }));
  EXPECT_FALSE(ran_any);
  // From inside a task of the same pool the team would deadlock on the
  // calling thread; refused, caller falls back.
  bool nested_result = true;
  pool.for_each(1, [&](std::uint64_t) {
    nested_result = pool.run_team(2, [](std::uint64_t) {});
  });
  EXPECT_FALSE(nested_result);
}

TEST(ThreadPool, RunTeamPropagatesExceptionsAndStaysUsable) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.run_team(2,
                             [](std::uint64_t w) {
                               if (w == 1) {
                                 throw std::runtime_error("team task failed");
                               }
                             }),
               std::runtime_error);
  std::atomic<int> count{0};
  EXPECT_TRUE(pool.run_team(3, [&](std::uint64_t) { ++count; }));
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, GrantOptsNestedSubmissionsBackIntoParallelism) {
  // The --trial-parallelism contract: a trial fan-out that deliberately
  // split the hardware budget holds a NestedParallelismGrant, so the
  // sharded round INSIDE each trial may still host a team on its own
  // pool.  Without the grant (the default) the nested team is refused;
  // with it, a team on a DIFFERENT pool runs, while the submitting
  // pool's own team is still refused (that inline rule is what makes
  // same-pool nesting deadlock-free).
  ThreadPool outer(1);
  ThreadPool inner(2);
  bool no_grant = true;
  bool with_grant_other_pool = false;
  bool with_grant_same_pool = true;
  outer.for_each(1, [&](std::uint64_t) {
    no_grant = inner.run_team(2, [](std::uint64_t) {});
    const NestedParallelismGrant grant;
    with_grant_other_pool = inner.run_team(2, [](std::uint64_t) {});
    with_grant_same_pool = outer.run_team(1, [](std::uint64_t) {});
  });
  EXPECT_FALSE(no_grant);
  EXPECT_TRUE(with_grant_other_pool);
  EXPECT_FALSE(with_grant_same_pool);
}

TEST(ThreadPool, GrantUnInlinesNestedForEachOnAnotherPool) {
  // for_each obeys the same rule: granted nested submissions to a
  // different pool take the parallel path (observable through
  // inside_task() staying true on worker threads and the batch simply
  // completing; thread placement is scheduling-dependent).
  ThreadPool outer(1);
  ThreadPool inner(2);
  std::atomic<int> total{0};
  outer.for_each(2, [&](std::uint64_t) {
    const NestedParallelismGrant grant;
    inner.for_each(16, [&](std::uint64_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 32);
}

// Regression for a lost-wakeup race: with near-empty tasks the final
// worker-side completion notification could fire between the submitter's
// predicate check and its entry into wait(), hanging for_each forever.
// Tens of thousands of tiny batches reliably hit the window pre-fix.
TEST(ThreadPool, RapidTinyBatchesDoNotHang) {
  ThreadPool pool(2);
  std::atomic<std::uint64_t> total{0};
  for (int batch = 0; batch < 20000; ++batch) {
    pool.for_each(3, [&](std::uint64_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 60000u);
}

}  // namespace
}  // namespace rbb
