// Inter-rank communication tests: the all-to-all exchange (including the
// deadline/poison fault-tolerance protocol) and the combining remote
// message buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <numeric>
#include <thread>
#include <vector>

#include "src/comm/exchange.hpp"
#include "src/comm/remote_buffer.hpp"
#include "src/common/rng.hpp"
#include "src/fault/fault.hpp"
#include "tests/watchdog.hpp"

namespace {

using namespace phigraph;

// ---- the all-to-all rendezvous at N = 2 (the paper's CPU+MIC pair) and
// N = 3 ----------------------------------------------------------------------

using comm::ExchangeStatus;
using std::chrono::milliseconds;

constexpr milliseconds kLong(60000);
constexpr int kRankCounts[] = {2, 3};

/// Value rank `src` sends to rank `dst` in round `round`.
int payload(int src, int dst, int round = 0) {
  return 1000 * round + 10 * src + dst + 1;
}

std::vector<int> outgoing(int src, int n, int round = 0) {
  std::vector<int> out(static_cast<std::size_t>(n));
  for (int dst = 0; dst < n; ++dst) out[dst] = payload(src, dst, round);
  return out;
}

/// One round over every rank of `x` (rank 0 on the calling thread), rank r
/// sending outgoing(r, n, round).
std::vector<comm::AllToAll<int>::Result> full_round(
    comm::AllToAll<int>& x, int round = 0, milliseconds deadline = kLong) {
  const int n = x.num_ranks();
  std::vector<comm::AllToAll<int>::Result> out(static_cast<std::size_t>(n));
  std::vector<std::jthread> peers;
  for (int r = 1; r < n; ++r)
    peers.emplace_back([&, r] {
      out[r] = x.exchange_for(r, outgoing(r, n, round), deadline);
    });
  out[0] = x.exchange_for(0, outgoing(0, n, round), deadline);
  peers.clear();  // joins
  return out;
}

/// Every rank received exactly the values its peers sent it in `round`.
void expect_delivered(const std::vector<comm::AllToAll<int>::Result>& got,
                      int round = 0) {
  const int n = static_cast<int>(got.size());
  for (int dst = 0; dst < n; ++dst) {
    ASSERT_EQ(got[dst].status, ExchangeStatus::kOk) << "rank " << dst;
    for (int src = 0; src < n; ++src) {
      if (src == dst) continue;
      EXPECT_EQ(got[dst].values[src], payload(src, dst, round))
          << "slot " << src << " -> " << dst << " round " << round;
    }
  }
}

fault::FaultReport test_report(int rank) {
  fault::FaultReport r;
  r.rank = rank;
  r.superstep = 3;
  r.phase = "generate";
  r.what = "boom";
  return r;
}

TEST(Exchange, SwapsValuesBothWays) {
  for (int n : kRankCounts) {
    SCOPED_TRACE("ranks " + std::to_string(n));
    comm::AllToAll<int> x(n);
    expect_delivered(full_round(x));
  }
}

TEST(Exchange, ManyRoundsStayPaired) {
  phigraph::testing::Watchdog dog(std::chrono::seconds(120));
  constexpr int kRounds = 2000;
  for (int n : kRankCounts) {
    SCOPED_TRACE("ranks " + std::to_string(n));
    comm::AllToAll<int> x(n);
    std::atomic<int> mismatches{0};
    const auto rank_loop = [&](int r) {
      for (int round = 0; round < kRounds; ++round) {
        const auto got = x.exchange_for(r, outgoing(r, n, round), kLong);
        bool ok = got.status == ExchangeStatus::kOk;
        for (int src = 0; ok && src < n; ++src)
          ok = src == r || got.values[src] == payload(src, r, round);
        if (!ok) mismatches.fetch_add(1);
      }
    };
    {
      std::vector<std::jthread> peers;
      for (int r = 1; r < n; ++r) peers.emplace_back(rank_loop, r);
      rank_loop(0);
    }
    EXPECT_EQ(mismatches.load(), 0);
  }
}

TEST(Exchange, MovesLargePayloadsWithoutLoss) {
  for (int n : kRankCounts) {
    SCOPED_TRACE("ranks " + std::to_string(n));
    comm::AllToAll<std::vector<int>> x(n);
    // Rank src sends 10000 / (src + 1) consecutive ints starting at
    // 100000 * src + 1000 * dst to every dst.
    const auto send = [n](int src) {
      std::vector<std::vector<int>> out(static_cast<std::size_t>(n));
      for (int dst = 0; dst < n; ++dst) {
        out[dst].resize(static_cast<std::size_t>(10000 / (src + 1)));
        std::iota(out[dst].begin(), out[dst].end(), 100000 * src + 1000 * dst);
      }
      return out;
    };
    std::vector<comm::AllToAll<std::vector<int>>::Result> got(
        static_cast<std::size_t>(n));
    {
      std::vector<std::jthread> peers;
      for (int r = 1; r < n; ++r)
        peers.emplace_back(
            [&, r] { got[r] = x.exchange_for(r, send(r), kLong); });
      got[0] = x.exchange_for(0, send(0), kLong);
    }
    for (int dst = 0; dst < n; ++dst) {
      ASSERT_EQ(got[dst].status, ExchangeStatus::kOk);
      for (int src = 0; src < n; ++src) {
        if (src == dst) continue;
        const auto& v = got[dst].values[src];
        ASSERT_EQ(v.size(), static_cast<std::size_t>(10000 / (src + 1)));
        EXPECT_EQ(v.front(), 100000 * src + 1000 * dst);
        EXPECT_EQ(v.back(), 100000 * src + 1000 * dst +
                                static_cast<int>(v.size()) - 1);
      }
    }
  }
}

// ---- deadline + poison protocol ---------------------------------------------

TEST(ExchangeFault, PoisonBeforeDepositFailsImmediately) {
  for (int n : kRankCounts) {
    SCOPED_TRACE("ranks " + std::to_string(n));
    comm::AllToAll<int> x(n);
    x.poison(n - 1, test_report(n - 1));
    // A long deadline must not matter: the poison check precedes the
    // deposit, so each rank returns at once even with nobody else present.
    for (int r = 0; r < n; ++r) {
      const auto got = x.exchange_for(r, outgoing(r, n), kLong);
      EXPECT_EQ(got.status, ExchangeStatus::kPeerFailed) << "rank " << r;
      EXPECT_EQ(got.fault.rank, n - 1);
      EXPECT_EQ(got.fault.superstep, 3);
      EXPECT_EQ(got.fault.what, "boom");
    }
  }
}

TEST(ExchangeFault, PoisonWakesARankWaitingForItsPeer) {
  phigraph::testing::Watchdog dog(std::chrono::seconds(120));
  for (int n : kRankCounts) {
    SCOPED_TRACE("ranks " + std::to_string(n));
    comm::AllToAll<int> x(n);
    // Ranks 0..n-2 deposit, then block waiting for rank n-1 — which dies
    // instead of arriving. Every waiter must wake on the poison, well before
    // the deadline.
    std::vector<comm::AllToAll<int>::Result> got(static_cast<std::size_t>(n));
    {
      std::jthread failer([&] {
        std::this_thread::sleep_for(milliseconds(50));
        x.poison(n - 1, test_report(n - 1));
      });
      std::vector<std::jthread> waiters;
      for (int r = 1; r < n - 1; ++r)
        waiters.emplace_back(
            [&, r] { got[r] = x.exchange_for(r, outgoing(r, n), kLong); });
      got[0] = x.exchange_for(0, outgoing(0, n), kLong);
    }
    for (int r = 0; r < n - 1; ++r) {
      EXPECT_EQ(got[r].status, ExchangeStatus::kPeerFailed) << "rank " << r;
      EXPECT_EQ(got[r].fault.rank, n - 1) << "rank " << r;
    }
  }
}

TEST(ExchangeFault, PoisonAfterConsumedRoundNeverReArms) {
  for (int n : kRankCounts) {
    SCOPED_TRACE("ranks " + std::to_string(n));
    comm::AllToAll<int> x(n);
    // One healthy round completes...
    expect_delivered(full_round(x));
    // ...then rank 0 dies. Every later call, from any rank, fails fast —
    // retries cannot resurrect the channel.
    x.poison(0, test_report(0));
    for (int round = 1; round <= 3; ++round)
      for (int r = 0; r < n; ++r) {
        const auto got = x.exchange_for(r, outgoing(r, n, round), kLong);
        EXPECT_EQ(got.status, ExchangeStatus::kPeerFailed) << "rank " << r;
        EXPECT_EQ(got.fault.rank, 0) << "rank " << r;
      }
  }
}

TEST(ExchangeFault, FirstPoisonReportWins) {
  for (int n : kRankCounts) {
    SCOPED_TRACE("ranks " + std::to_string(n));
    comm::AllToAll<int> x(n);
    for (int r = 0; r < n; ++r) x.poison(r, test_report(r));
    EXPECT_TRUE(x.poisoned());
    EXPECT_EQ(x.fault().rank, 0);
  }
}

TEST(ExchangeFault, TimeoutRetractsTheDepositAndTheChannelStaysUsable) {
  for (int n : kRankCounts) {
    SCOPED_TRACE("ranks " + std::to_string(n));
    comm::AllToAll<int> x(n);
    // Nobody shows up: rank 0 times out and its deposits are retracted.
    const auto lone = x.exchange_for(0, outgoing(0, n, /*round=*/7),
                                     milliseconds(20));
    EXPECT_EQ(lone.status, ExchangeStatus::kTimeout);
    EXPECT_FALSE(x.poisoned());
    // A later healthy round pairs the fresh values, not the stale deposit.
    expect_delivered(full_round(x, /*round=*/1), /*round=*/1);
  }
}

TEST(RemoteBuffer, CombinesPerDestination) {
  comm::RemoteBuffer<float> buf(100);
  auto min_combine = [](float a, float b) { return std::min(a, b); };
  buf.deposit(7, 3.0f, min_combine);
  buf.deposit(7, 1.0f, min_combine);
  buf.deposit(7, 2.0f, min_combine);
  buf.deposit(42, 9.0f, min_combine);
  EXPECT_EQ(buf.touched_count(), 2u);

  std::map<vid_t, float> got;
  buf.drain([&](vid_t dst, float v) { got[dst] = v; });
  EXPECT_EQ(got.size(), 2u);
  EXPECT_FLOAT_EQ(got[7], 1.0f);
  EXPECT_FLOAT_EQ(got[42], 9.0f);

  // Drained: buffer is empty and reusable.
  EXPECT_EQ(buf.touched_count(), 0u);
  buf.deposit(7, 5.0f, min_combine);
  buf.drain([&](vid_t dst, float v) {
    EXPECT_EQ(dst, 7u);
    EXPECT_FLOAT_EQ(v, 5.0f);  // no stale combine with the previous round
  });
}

TEST(RemoteBuffer, ConcurrentDepositsAreExact) {
  constexpr vid_t kVerts = 64;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  comm::RemoteBuffer<std::uint64_t> buf(kVerts);
  auto sum = [](std::uint64_t a, std::uint64_t b) { return a + b; };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kPerThread; ++i)
        buf.deposit(static_cast<vid_t>(rng.below(kVerts)), 1u, sum);
    });
  for (auto& th : threads) th.join();

  std::uint64_t total = 0;
  buf.drain([&](vid_t, std::uint64_t v) { total += v; });
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(RemoteBuffer, ConcurrentOverlappingDepositsAreExactPerDestination) {
  // Stress the sharded touched lists: many threads hammer a small hot set of
  // overlapping destinations plus a cold tail. Per-destination combined sums
  // and the distinct-destination count must both be exact.
  constexpr vid_t kVerts = 4096;
  constexpr vid_t kHot = 16;  // every thread hits all of these
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  comm::RemoteBuffer<std::uint64_t> buf(kVerts, /*shards=*/8);
  auto sum = [](std::uint64_t a, std::uint64_t b) { return a + b; };

  std::vector<std::map<vid_t, std::uint64_t>> expected(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) * 97 + 13);
      for (int i = 0; i < kPerThread; ++i) {
        // 50% of traffic funnels into the hot set (overlapping across all
        // threads); the rest scatters — both shard-list paths get exercised.
        const vid_t dst = (i % 2 == 0)
                              ? static_cast<vid_t>(rng.below(kHot))
                              : static_cast<vid_t>(rng.below(kVerts));
        const std::uint64_t val = rng.below(1000) + 1;
        buf.deposit(dst, val, sum);
        expected[t][dst] += val;
      }
    });
  for (auto& th : threads) th.join();

  std::map<vid_t, std::uint64_t> want;
  for (const auto& m : expected)
    for (const auto& [dst, v] : m) want[dst] += v;

  // touched_count is exact: one entry per distinct destination, no dupes.
  EXPECT_EQ(buf.touched_count(), want.size());
  std::size_t per_shard_total = 0;
  for (std::size_t s = 0; s < buf.num_shards(); ++s)
    per_shard_total += buf.shard_touched_count(s);
  EXPECT_EQ(per_shard_total, want.size());

  std::map<vid_t, std::uint64_t> got;
  buf.drain([&](vid_t dst, std::uint64_t v) {
    EXPECT_TRUE(got.emplace(dst, v).second) << "duplicate drain of " << dst;
  });
  EXPECT_EQ(got, want);

  // Fully drained and reusable.
  EXPECT_EQ(buf.touched_count(), 0u);
  buf.deposit(3, 7u, sum);
  buf.drain([&](vid_t dst, std::uint64_t v) {
    EXPECT_EQ(dst, 3u);
    EXPECT_EQ(v, 7u);
  });
}

// ---- AllToAll timeout / retraction ------------------------------------------

namespace {
// One rank (the laggard) sits out while the others run a deadline-bounded
// round. The laggard only moves once both prompt ranks have observed their
// timeout, so the scenario is deterministic: at the moment a prompt rank
// times out, the laggard's deposit round is provably behind and the timeout
// must blame it — not a peer whose deposit was merely retracted.
struct LaggardRound {
  static constexpr int kRanks = 3;
  static constexpr int kLaggard = 2;

  comm::AllToAll<int> x{kRanks};
  std::atomic<int> prompt_timeouts{0};
  std::array<comm::AllToAll<int>::Result, kRanks> results;

  static std::vector<int> payload(int rank, int salt) {
    std::vector<int> out(kRanks, 0);
    for (int dst = 0; dst < kRanks; ++dst) out[dst] = salt + 10 * rank + dst;
    return out;
  }

  void run(std::uint64_t seed) {
    Rng rng(seed);
    const auto jitter0 = std::chrono::milliseconds(rng.below(8));
    const auto jitter1 = std::chrono::milliseconds(rng.below(8));
    std::vector<std::thread> threads;
    for (int rank = 0; rank < kRanks - 1; ++rank) {
      const auto jitter = rank == 0 ? jitter0 : jitter1;
      threads.emplace_back([this, rank, jitter] {
        std::this_thread::sleep_for(jitter);
        results[rank] = x.exchange_for(rank, payload(rank, 100),
                                       std::chrono::milliseconds(300));
        prompt_timeouts.fetch_add(1, std::memory_order_release);
      });
    }
    threads.emplace_back([this] {
      while (prompt_timeouts.load(std::memory_order_acquire) <
             kRanks - 1)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      // Every prompt deposit was retracted by now; this late round finds an
      // empty matrix and must itself time out rather than hang.
      results[kLaggard] = x.exchange_for(kLaggard, payload(kLaggard, 100),
                                         std::chrono::milliseconds(50));
    });
    for (auto& th : threads) th.join();
  }
};
}  // namespace

TEST(AllToAllTimeout, RetractionLeavesMatrixReusableAndBlamesTheLaggard) {
  phigraph::testing::Watchdog dog(std::chrono::seconds(120));
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    LaggardRound round;
    round.run(seed);

    // Both prompt ranks timed out and named the laggard — not each other,
    // even though each other's deposits were retracted and look absent.
    for (int rank = 0; rank < LaggardRound::kRanks - 1; ++rank) {
      EXPECT_EQ(round.results[rank].status, comm::ExchangeStatus::kTimeout)
          << "rank " << rank;
      EXPECT_EQ(round.results[rank].fault.rank, LaggardRound::kLaggard)
          << "rank " << rank << " blamed the wrong peer";
    }
    EXPECT_EQ(round.results[LaggardRound::kLaggard].status,
              comm::ExchangeStatus::kTimeout);

    // The retracted matrix is fully reusable: a clean round with every rank
    // present must succeed and deliver exactly the fresh values.
    std::vector<std::thread> threads;
    std::array<comm::AllToAll<int>::Result, LaggardRound::kRanks> clean;
    for (int rank = 0; rank < LaggardRound::kRanks; ++rank)
      threads.emplace_back([&, rank] {
        clean[rank] = round.x.exchange_for(rank,
                                           LaggardRound::payload(rank, 500),
                                           std::chrono::seconds(30));
      });
    for (auto& th : threads) th.join();
    for (int rank = 0; rank < LaggardRound::kRanks; ++rank) {
      ASSERT_EQ(clean[rank].status, comm::ExchangeStatus::kOk)
          << "rank " << rank << " after retraction";
      for (int src = 0; src < LaggardRound::kRanks; ++src) {
        if (src == rank) continue;
        EXPECT_EQ(clean[rank].values[src], 500 + 10 * src + rank)
            << "stale or lost slot " << src << " -> " << rank;
      }
    }
  }
}

TEST(AllToAllTimeout, PoisonAfterTimeoutNamesTheLaggardEverywhere) {
  phigraph::testing::Watchdog dog(std::chrono::seconds(120));
  for (std::uint64_t seed = 21; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    LaggardRound round;
    round.run(seed);
    ASSERT_EQ(round.results[0].status, comm::ExchangeStatus::kTimeout);

    // Rank 0 escalates its timeout verdict into poison. The report carries
    // the culprit its own timeout_result named — the laggard.
    fault::FaultReport report;
    report.rank = round.results[0].fault.rank;
    report.superstep = 7;
    report.phase = "exchange";
    report.what = "peer missed the all-to-all deadline";
    round.x.poison(0, report);
    EXPECT_TRUE(round.x.poisoned());

    // Every later call from any rank — including the laggard itself — fails
    // fast with the same diagnosis; the channel never re-arms.
    for (int rank = 0; rank < LaggardRound::kRanks; ++rank) {
      auto r = round.x.exchange_for(rank, LaggardRound::payload(rank, 900),
                                    std::chrono::seconds(30));
      EXPECT_EQ(r.status, comm::ExchangeStatus::kPeerFailed) << "rank " << rank;
      EXPECT_EQ(r.fault.rank, LaggardRound::kLaggard) << "rank " << rank;
      EXPECT_EQ(r.fault.superstep, 7) << "rank " << rank;
    }
  }
}

TEST(RemoteBuffer, ParallelShardDrainsPartitionTheDestinations) {
  // drain_shard is safe to run concurrently for different shards: drain all
  // shards from distinct threads and verify the union is exact and disjoint.
  constexpr vid_t kVerts = 2048;
  comm::RemoteBuffer<std::uint64_t> buf(kVerts, /*shards=*/16);
  auto sum = [](std::uint64_t a, std::uint64_t b) { return a + b; };
  std::uint64_t want_total = 0;
  for (vid_t v = 0; v < kVerts; v += 3) {
    buf.deposit(v, v + 1, sum);
    buf.deposit(v, 1, sum);
    want_total += v + 2;
  }

  std::vector<std::vector<std::pair<vid_t, std::uint64_t>>> per_shard(
      buf.num_shards());
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < buf.num_shards(); ++s)
    threads.emplace_back([&, s] {
      buf.drain_shard(s, [&](vid_t dst, std::uint64_t v) {
        per_shard[s].emplace_back(dst, v);
      });
    });
  for (auto& th : threads) th.join();

  std::map<vid_t, std::uint64_t> got;
  for (const auto& shard : per_shard)
    for (const auto& [dst, v] : shard)
      EXPECT_TRUE(got.emplace(dst, v).second) << "dst in two shards: " << dst;
  std::uint64_t got_total = 0;
  for (const auto& [dst, v] : got) {
    EXPECT_EQ(v, static_cast<std::uint64_t>(dst) + 2);
    got_total += v;
  }
  EXPECT_EQ(got.size(), (kVerts + 2) / 3);
  EXPECT_EQ(got_total, want_total);
}

}  // namespace
