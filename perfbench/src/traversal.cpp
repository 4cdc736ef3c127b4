// traversal: BFS and SSSP from K seeded sources (the same sources for both)
// on the symmetrized, weighted Pokec-like graph. One rank, kLocking with 3
// threads, direction auto. Every query builds its engine and then runs —
// the run_single path — so engine build, the pull kernel, sparse frontiers
// and dirty-group tracking carry the work; CSB insertion is light. One unit
// of user work is a pass over all 2K queries; each query is one operation.
#include "common.hpp"
#include "src/apps/bfs.hpp"
#include "src/apps/reference.hpp"
#include "src/apps/sssp.hpp"
#include "src/gen/generators.hpp"

namespace perfbench {
namespace {

using namespace phigraph;

constexpr std::size_t kSources = 16;

core::EngineConfig config() {
  core::EngineConfig c;
  c.mode = core::ExecMode::kLocking;
  c.threads = 3;
  c.simd_bytes = simd::kCpuSimdBytes;
  c.direction_mode = core::DirectionMode::kAuto;
  return c;
}

struct Inputs {
  graph::Csr g;
  std::vector<vid_t> sources;
  std::vector<std::vector<std::int32_t>> bfs_ref;
  std::vector<std::vector<float>> sssp_ref;
};

/// One query: an engine build plus run(), checked exactly against the
/// classical algorithm's answer.
template <typename Program, typename Value>
double query(const graph::Csr& g, Program prog, const std::vector<Value>& ref,
             Tracer& tr, Report& rep, CoreTotals* totals) {
  using Engine = core::DeviceEngine<Program>;
  return engine_unit<Engine>(
      tr, "query",
      [&](std::optional<Engine>& e) {
        e.emplace(core::LocalGraph::whole(g), std::move(prog), config());
      },
      [&](const Engine& e, const core::RunResult& r) {
        ++rep.attempted;
        if (r.failed || !exactly_equal(e.values(), ref)) ++rep.failed;
        if (totals) totals->add(r, e.lanes());
      });
}

Measured measure(double seconds, const Inputs& in, Tracer& tr, Report& rep,
                 CoreTotals* totals, std::vector<double>* query_ms = nullptr) {
  Measured m;
  repeat_for(seconds, [&] {
    Tracer::Scope span(tr, "unit");
    double pass = 0;
    for (std::size_t k = 0; k < in.sources.size(); ++k) {
      for (const double s :
           {query(in.g, apps::Bfs(in.sources[k]), in.bfs_ref[k], tr, rep,
                  totals),
            query(in.g, apps::Sssp(in.sources[k]), in.sssp_ref[k], tr, rep,
                  totals)}) {
        if (query_ms) query_ms->push_back(1e3 * s);
        ++m.ops;
        m.busy_s += s;
        pass += s;
      }
    }
    m.unit_s.push_back(pass);
  });
  return m;
}

}  // namespace

int run_traversal(const Options& o, Report& rep, Tracer& tr) {
  Inputs in;
  const Setup setup = timed_setup(tr, [&] {
    graph::Csr d;
    {
      Tracer::Scope s(tr, "gen");
      d = gen::pokec_like(kVertices, kEdges,
                          derive_seed(o.seed, Stream::kGraph));
    }
    Tracer::Scope s(tr, "symmetrize");
    in.g = symmetrize(d);
    gen::add_random_weights(in.g, derive_seed(o.seed, Stream::kWeights));
  });
  in.sources =
      pick_sources(in.g, kSources, derive_seed(o.seed, Stream::kSources));
  for (const vid_t s : in.sources) {
    in.bfs_ref.push_back(apps::classic_bfs(in.g, s));
    in.sssp_ref.push_back(apps::classic_dijkstra(in.g, s));
  }

  const bool traced = tr.on();
  tr.set_on(false);
  query(in.g, apps::Bfs(in.sources[0]), in.bfs_ref[0], tr, rep, nullptr);
  query(in.g, apps::Sssp(in.sources[0]), in.sssp_ref[0], tr, rep, nullptr);
  const double rss_mb = peak_rss_mb();
  if (!traced) {
    std::vector<double> q;
    end_to_end_from(rep, setup, rss_mb,
                    measure(o.seconds, in, tr, rep, nullptr, &q));
    rep.note("per query: p50 " + std::to_string(quantile(q, 0.5)) +
             " ms, p99 " + std::to_string(quantile(q, 0.99)) + " ms over " +
             std::to_string(q.size()) + " queries");
    return 0;
  }

  const Measured plain = measure(o.seconds / 2, in, tr, rep, nullptr);
  tr.set_on(true);
  CoreTotals t;
  const Measured m = measure(o.seconds / 2, in, tr, rep, &t);
  const double units = static_cast<double>(m.unit_s.size());
  rep.layer("gen.s", tr.self_seconds("gen") / setup.reps, "s");
  rep.layer("core.build_s", tr.self_seconds("core.build") / units, "s");
  rep.core_layers(t, units);
  rep.layer("trace.overhead", median(m.unit_s) / median(plain.unit_s) - 1,
            "frac");
  // The pull path keeps a transpose of the graph; on a symmetric graph it
  // has the graph's own size.
  const core::DeviceEngine<apps::Sssp> e(core::LocalGraph::whole(in.g),
                                         apps::Sssp(in.sources[0]), config());
  note_working_set(rep, csr_bytes(in.g),
                   static_cast<double>(e.csb().storage_slots() * sizeof(float)),
                   csr_bytes(in.g));
  return 0;
}

}  // namespace perfbench
