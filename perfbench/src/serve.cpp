// serve: QueryEngine over the traversal graph, kLocking with 2 threads and
// the default serving knobs. One client thread sends an open-loop stream:
// Poisson arrivals at a fixed offered rate, 75% BFS and 25% component
// queries, sources from a seeded pool whose answers are memoised
// references. Loads admission, group-commit batching and the 64-lane MsBfs;
// mixing two kinds of one program shows how batch formation splits lanes.
// Each job is timed from its due time until the client sees its ticket
// fulfilled.
//
// The rate is 50 jobs/s: a batch costs nearly the same whatever its lane
// count, so the engine is busy at any rate above a few jobs per second, and
// the more lanes a batch carries the more a slower host stretches it. At
// 80 jobs/s one seed's median latency varied by 20% from run to run on a
// 4-core host; at 40 jobs/s by 2%. At 50 jobs/s a 20 s run still holds the
// 1000 jobs that put ten samples beyond p99.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "common.hpp"
#include "src/apps/reference.hpp"
#include "src/common/rng.hpp"
#include "src/core/query_engine.hpp"
#include "src/gen/generators.hpp"

namespace perfbench {
namespace {

using namespace phigraph;

constexpr double kRate = 50;          // offered jobs per second
constexpr double kBfsShare = 0.75;    // the rest are component queries
constexpr std::size_t kPool = 64;     // distinct query sources
constexpr double kMaxLateMs = 20;     // generator p99 lateness that voids a run
constexpr auto kPoll = std::chrono::microseconds(100);

core::EngineConfig config() {
  core::EngineConfig c;
  c.mode = core::ExecMode::kLocking;
  c.threads = 2;
  c.simd_bytes = simd::kCpuSimdBytes;
  return c;
}

struct Inputs {
  graph::Csr g;
  std::vector<vid_t> pool;
  std::vector<std::vector<std::int32_t>> level_ref;  // classic_bfs per source
};

struct Job {
  double due_s = 0;  // offset from the stream start
  core::QueryJob job;
  std::size_t pool_index = 0;
};

/// `n` jobs due at the order statistics of n uniform draws over
/// [0, seconds): a Poisson process conditioned on its count, so every
/// stream offers exactly the same load.
std::vector<Job> schedule(const Inputs& in, std::size_t n, double seconds,
                          std::uint64_t arrivals_seed,
                          std::uint64_t kinds_seed) {
  Rng at(arrivals_seed), pick(kinds_seed);
  std::vector<double> due(n);
  for (double& d : due) d = seconds * at.uniform();
  std::sort(due.begin(), due.end());
  std::vector<Job> jobs(n);
  for (std::size_t i = 0; i < n; ++i) {
    jobs[i].due_s = due[i];
    jobs[i].job.kind = pick.uniform() < kBfsShare ? core::QueryKind::kBfs
                                                  : core::QueryKind::kComponent;
    jobs[i].pool_index = pick.below(in.pool.size());
    jobs[i].job.source = in.pool[jobs[i].pool_index];
  }
  return jobs;
}

bool answer_matches(const core::QueryResult& r, const Job& j,
                    const Inputs& in) {
  const auto& ref = in.level_ref[j.pool_index];
  if (r.kind != j.job.kind || r.source != j.job.source) return false;
  if (j.job.kind == core::QueryKind::kBfs)
    return exactly_equal(std::span<const std::int32_t>(r.level), ref);
  if (r.member.size() != ref.size()) return false;
  for (std::size_t v = 0; v < ref.size(); ++v)
    if (r.member[v] != (ref[v] >= 0 ? 1 : 0)) return false;
  return true;
}

struct StreamResult {
  std::vector<double> latency_ms;  // due -> fulfilment seen, per job
  std::vector<double> late_ms;     // due -> submit() called, per job
  std::vector<double> submit_ms;   // time inside submit(), per job
  double makespan_s = 0;           // first due -> last fulfilment
  double lane_supersteps = 0;      // sum over jobs of supersteps / lanes
};

/// Drive one open-loop stream through `qe` and check every answer. Polling
/// first stamps every fulfilled ticket, then checks answers only while no
/// job is due soon, so checking delays neither a stamp nor a submission.
StreamResult run_stream(core::QueryEngine& qe, const Inputs& in,
                        const std::vector<Job>& jobs, Tracer& tr,
                        Report& rep) {
  struct Outstanding {
    std::size_t i;
    std::shared_ptr<core::QueryTicket> ticket;
    int job_span, wait_span;
  };
  StreamResult out;
  std::vector<Outstanding> waiting, unchecked;
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  auto last_done = start;
  const auto due_at = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(jobs[i].due_s));
  };
  const auto poll = [&] {
    for (std::size_t k = 0; k < waiting.size();) {
      if (!waiting[k].ticket->ready()) {
        ++k;
        continue;
      }
      const auto done = Clock::now();
      last_done = done;
      tr.close(waiting[k].wait_span, done);
      tr.close(waiting[k].job_span, done);
      out.latency_ms.push_back(
          1e3 * seconds_between(due_at(waiting[k].i), done));
      unchecked.push_back(std::move(waiting[k]));
      waiting[k] = std::move(waiting.back());
      waiting.pop_back();
    }
  };
  const auto check_until = [&](Clock::time_point until) {
    while (!unchecked.empty() && Clock::now() < until) {
      Tracer::Scope s(tr, "check");
      const Outstanding& o = unchecked.back();
      const core::QueryResult& r = o.ticket->get();
      if (!answer_matches(r, jobs[o.i], in)) ++rep.failed;
      if (r.batch_lanes > 0)
        out.lane_supersteps +=
            static_cast<double>(r.supersteps) / r.batch_lanes;
      unchecked.pop_back();
    }
  };

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto due = due_at(i);
    for (auto now = Clock::now(); now < due; now = Clock::now()) {
      poll();
      check_until(due - std::chrono::milliseconds(1));
      std::this_thread::sleep_until(std::min(due, Clock::now() + kPoll));
    }
    const int span = tr.open("job", -1, due);
    const auto t0 = Clock::now();
    const int sub = tr.open("serve.submit", span, t0);
    auto ticket = qe.submit(jobs[i].job);
    const auto t1 = Clock::now();
    tr.close(sub, t1);
    ++rep.attempted;
    out.late_ms.push_back(1e3 * seconds_between(due, t0));
    out.submit_ms.push_back(1e3 * seconds_between(t0, t1));
    if (!ticket) {
      ++rep.failed;
      tr.close(span, t1);
      continue;
    }
    waiting.push_back(
        {i, std::move(ticket), span, tr.open("serve.wait", span, t1)});
  }
  while (!waiting.empty()) {
    poll();
    std::this_thread::sleep_for(kPoll);
  }
  check_until(Clock::time_point::max());
  out.makespan_s = seconds_between(start, last_done);
  return out;
}

/// The stream of one measured phase: rate x seconds jobs.
StreamResult phase(core::QueryEngine& qe, const Inputs& in, double seconds,
                   std::uint64_t seed, std::uint64_t salt, Tracer& tr,
                   Report& rep) {
  const auto n = static_cast<std::size_t>(kRate * seconds + 0.5);
  const auto jobs =
      schedule(in, n, seconds, derive_seed(seed, Stream::kArrivals) + salt,
               derive_seed(seed, Stream::kKinds) + salt);
  return run_stream(qe, in, jobs, tr, rep);
}

/// A stream whose generator fell behind measured the client, not the
/// system: its run is void.
bool generator_kept_up(const StreamResult& s) {
  const double late = quantile(s.late_ms, 0.99);
  if (late <= kMaxLateMs) return true;
  std::fprintf(stderr,
               "serve: generator fell behind (p99 lateness %.3f ms > %.0f ms); "
               "run rejected\n",
               late, kMaxLateMs);
  return false;
}

}  // namespace

int run_serve(const Options& o, Report& rep, Tracer& tr) {
  Inputs in;
  std::unique_ptr<core::QueryEngine> qe;
  const Setup setup = timed_setup(tr, [&] {
    qe.reset();  // it serves the graph about to be replaced
    graph::Csr d;
    {
      Tracer::Scope s(tr, "gen");
      d = gen::pokec_like(kVertices, kEdges,
                          derive_seed(o.seed, Stream::kGraph));
    }
    {
      Tracer::Scope s(tr, "symmetrize");
      in.g = symmetrize(d);
      gen::add_random_weights(in.g, derive_seed(o.seed, Stream::kWeights));
    }
    Tracer::Scope s(tr, "serve.construct");
    qe = std::make_unique<core::QueryEngine>(in.g, config());
  });
  in.pool = pick_sources(in.g, kPool, derive_seed(o.seed, Stream::kSources));
  for (const vid_t s : in.pool)
    in.level_ref.push_back(apps::classic_bfs(in.g, s));

  const bool traced = tr.on();
  tr.set_on(false);
  phase(*qe, in, 1.0, o.seed, 0x3a3a, tr, rep);  // warm-up
  const double rss_mb = peak_rss_mb();
  if (!traced) {
    const StreamResult s = phase(*qe, in, o.seconds, o.seed, 0, tr, rep);
    if (!generator_kept_up(s)) return 3;
    Measured m;
    for (const double ms : s.latency_ms) m.unit_s.push_back(ms / 1e3);
    m.ops = s.latency_ms.size();
    m.busy_s = s.makespan_s;
    end_to_end_from(rep, setup, rss_mb, m);
    rep.note("open loop at " + std::to_string(static_cast<int>(kRate)) +
             " jobs/s; run_s is the median job latency");
    rep.note("generator p99 lateness " +
             std::to_string(quantile(s.late_ms, 0.99)) + " ms");
    return 0;
  }

  const StreamResult plain = phase(*qe, in, o.seconds / 2, o.seed, 0, tr, rep);
  if (!generator_kept_up(plain)) return 3;
  const core::ServingStats before = qe->stats();
  tr.set_on(true);
  const StreamResult s = phase(*qe, in, o.seconds / 2, o.seed, 1, tr, rep);
  if (!generator_kept_up(s)) return 3;
  const core::ServingStats after = qe->stats();
  const double jobs = static_cast<double>(after.jobs - before.jobs);
  const double batches = static_cast<double>(after.batches - before.batches);
  rep.layer("gen.s", tr.self_seconds("gen") / setup.reps, "s");
  rep.layer("serve.submit_ms", quantile(s.submit_ms, 0.99), "ms");
  rep.layer("serve.queue_depth_max",
            static_cast<double>(after.max_queue_depth), "count");
  rep.note("serve.queue_depth_max covers every stream of the run");
  rep.layer("serve.batches", batches, "count");
  rep.layer("serve.batch_fill", jobs / batches / apps::kMaxQueryLanes, "frac");
  rep.layer("serve.scans_per_job",
            static_cast<double>(after.edges_scanned - before.edges_scanned) /
                jobs,
            "count");
  rep.layer("serve.supersteps_per_batch", s.lane_supersteps / batches, "count");
  rep.layer("serve.gen_late_ms", quantile(s.late_ms, 0.99), "ms");
  rep.layer("trace.overhead",
            median(s.latency_ms) / median(plain.latency_ms) - 1, "frac");
  rep.note("core.*: QueryEngine builds and runs its engines internally, out "
           "of reach of the public API; traversal's core.build_s stands in");
  apps::SourceBatch full;
  full.count = apps::kMaxQueryLanes;
  for (int l = 0; l < full.count; ++l)
    full.source[static_cast<std::size_t>(l)] =
        in.pool[static_cast<std::size_t>(l) % in.pool.size()];
  const core::DeviceEngine<apps::MsBfs> e(core::LocalGraph::whole(in.g),
                                          apps::MsBfs(full), config());
  note_working_set(rep, csr_bytes(in.g),
                   static_cast<double>(e.csb().storage_slots() *
                                       sizeof(apps::MsBfs::message_t)),
                   csr_bytes(in.g));
  rep.note("serve.batches counts the batches of the traced stream of " +
           std::to_string(s.latency_ms.size()) + " jobs");
  return 0;
}

}  // namespace perfbench
