// cluster: 15-superstep PageRank on the pagerank graph over two ranks, the
// paper's CPU+MIC shape. Rank 0 runs kLocking with 2 threads (CPU SIMD
// profile); rank 1 runs kPipelining with 1 worker and 1 mover (MIC SIMD
// profile). The owner map is hybrid_partition_k over 256 min-cut blocks,
// weighted by each rank's thread budget, computed once in set-up. The only
// workload that exercises comm, partition and pipeline.
//
// Run time follows the slower rank, and which rank straggles depends on
// how many edges the partition cuts, which varies from graph to graph. So
// set-up makes kGraphs seeded graphs and one unit of user work is a pass
// over all of them: per graph, a ClusterEngine build plus run().
#include "common.hpp"
#include "src/apps/pagerank.hpp"
#include "src/apps/reference.hpp"
#include "src/core/hetero_engine.hpp"
#include "src/gen/generators.hpp"
#include "src/partition/partition.hpp"

namespace perfbench {
namespace {

using namespace phigraph;

constexpr int kSupersteps = 15;
constexpr int kRanks = 2;
constexpr std::size_t kGraphs = 4;

std::vector<core::EngineConfig> configs() {
  core::EngineConfig cpu;
  cpu.mode = core::ExecMode::kLocking;
  cpu.threads = 2;
  cpu.simd_bytes = simd::kCpuSimdBytes;
  cpu.max_supersteps = kSupersteps;
  core::EngineConfig mic;
  mic.mode = core::ExecMode::kPipelining;
  mic.threads = 1;
  mic.movers = 1;
  mic.simd_bytes = simd::kMicSimdBytes;
  mic.max_supersteps = kSupersteps;
  return {cpu, mic};
}

struct Input {
  graph::Csr g;
  std::vector<int> owner;
  std::vector<float> ref;
};
using Inputs = std::vector<Input>;

struct RankTotals {
  CoreTotals all;                    // summed over ranks
  CoreTotals rank[kRanks];
};

/// One run on one graph: a ClusterEngine build plus run(), checked
/// against the reference on the gathered global values.
double run_one(const Input& in, Tracer& tr, Report& rep, RankTotals* totals) {
  using Engine = core::ClusterEngine<apps::PageRank>;
  return engine_unit<Engine>(
      tr, "run",
      [&](std::optional<Engine>& e) {
        e.emplace(in.g, in.owner, apps::PageRank(), configs());
      },
      [&](const Engine& e, const Engine::Result& r) {
        ++rep.attempted;
        bool ok = r.completed && r.failover.failed_over == 0 &&
                  r.ranks.size() == kRanks &&
                  pagerank_matches(r.global_values, in.ref);
        for (const auto& rr : r.ranks) ok = ok && !rr.failed;
        if (!ok) ++rep.failed;
        if (totals && r.ranks.size() == kRanks)
          for (int k = 0; k < kRanks; ++k) {
            const auto& rr = r.ranks[static_cast<std::size_t>(k)];
            totals->all.add(rr, e.engine(k).lanes());
            totals->rank[k].add(rr, e.engine(k).lanes());
          }
      });
}

Measured measure(double seconds, const Inputs& in, Tracer& tr, Report& rep,
                 RankTotals* totals) {
  Measured m;
  repeat_for(seconds, [&] {
    Tracer::Scope span(tr, "unit");
    double pass = 0;
    for (const Input& one : in) {
      const double s = run_one(one, tr, rep, totals);
      ++m.ops;
      m.busy_s += s;
      pass += s;
    }
    m.unit_s.push_back(pass);
  });
  return m;
}

}  // namespace

int run_cluster(const Options& o, Report& rep, Tracer& tr) {
  Inputs in(kGraphs);
  partition::RankWeights w;
  for (const auto& c : configs()) w.push_back(c.total_threads());
  const partition::BlockedOptions bo;  // 256 blocks, the paper's setting
  const Setup setup = timed_setup(tr, [&] {
    for (std::size_t i = 0; i < kGraphs; ++i) {
      {
        Tracer::Scope s(tr, "gen");
        in[i].g = gen::pokec_like(kVertices, kEdges,
                                  derive_seed(o.seed, Stream::kGraph) + i);
      }
      Tracer::Scope s(tr, "partition");
      in[i].owner = partition::hybrid_partition_k(in[i].g, w, bo);
    }
  });
  for (Input& one : in) one.ref = apps::classic_pagerank(one.g, kSupersteps);

  const bool traced = tr.on();
  tr.set_on(false);
  run_one(in[0], tr, rep, nullptr);  // warm-up
  const double rss_mb = peak_rss_mb();
  if (!traced) {
    end_to_end_from(rep, setup, rss_mb,
                    measure(o.seconds, in, tr, rep, nullptr));
    return 0;
  }

  const Measured plain = measure(o.seconds / 2, in, tr, rep, nullptr);
  tr.set_on(true);
  RankTotals t;
  const Measured m = measure(o.seconds / 2, in, tr, rep, &t);
  const double units = static_cast<double>(m.unit_s.size());
  double cut = 0, imbalance = 0;
  for (const Input& one : in) {
    const auto ps = partition::evaluate_partition_k(one.g, one.owner, kRanks);
    cut += static_cast<double>(ps.cross_edges) / kGraphs;
    imbalance += ps.load_imbalance / kGraphs;
  }
  rep.layer("gen.s", tr.self_seconds("gen") / setup.reps, "s");
  rep.layer("partition.s", tr.self_seconds("partition") / setup.reps, "s");
  rep.layer("partition.cut_edges", cut, "count");
  rep.layer("partition.load_imbalance", imbalance, "ratio");
  rep.note("gen.s and partition.s cover one set-up of " +
           std::to_string(kGraphs) +
           " graphs; partition.* are means over the graphs");
  rep.layer("core.build_s", tr.self_seconds("core.build") / units, "s");
  rep.core_layers(t.all, units);
  rep.note("core.* phase times and counters are summed over both ranks");
  for (int k = 0; k < kRanks; ++k) {
    const std::string r = ".r" + std::to_string(k);
    rep.layer("core.generate_s" + r, t.rank[k].p.generate / units, "s");
    rep.layer("comm.exchange_s" + r, t.rank[k].p.exchange / units, "s");
  }
  rep.layer("trace.overhead", median(m.unit_s) / median(plain.unit_s) - 1,
            "frac");
  const core::ClusterEngine<apps::PageRank> e(in[0].g, in[0].owner,
                                              apps::PageRank(), configs());
  double csr = 0, csb = 0;
  for (int k = 0; k < kRanks; ++k) {
    csr += csr_bytes(e.engine(k).local_graph().local);
    csb += static_cast<double>(e.engine(k).csb().storage_slots() *
                               sizeof(float));
  }
  note_working_set(rep, csr, csb, 0);
  return 0;
}

}  // namespace perfbench
