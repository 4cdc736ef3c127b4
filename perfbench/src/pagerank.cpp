// pagerank: 15-superstep PageRank on the directed Pokec-like graph, one
// rank, kLocking with 3 threads. All-active and dense: CSB insertion and
// generate carry almost all the work; no direction switching, no exchange,
// no serving. One unit of user work is an engine build plus run().
#include "common.hpp"
#include "src/apps/pagerank.hpp"
#include "src/apps/reference.hpp"
#include "src/gen/generators.hpp"

namespace perfbench {
namespace {

using namespace phigraph;

constexpr int kSupersteps = 15;

core::EngineConfig config(core::ExecMode mode, int threads) {
  core::EngineConfig c;
  c.mode = mode;
  c.threads = threads;
  c.simd_bytes = simd::kCpuSimdBytes;
  c.use_simd = mode != core::ExecMode::kOmpStyle;
  c.max_supersteps = kSupersteps;
  return c;
}

/// One unit: an engine build plus run(), checked against the reference.
double unit(const graph::Csr& g, const std::vector<float>& ref,
            const core::EngineConfig& cfg, Tracer& tr, Report& rep,
            CoreTotals* totals) {
  using Engine = core::DeviceEngine<apps::PageRank>;
  return engine_unit<Engine>(
      tr, "unit",
      [&](std::optional<Engine>& e) {
        e.emplace(core::LocalGraph::whole(g), apps::PageRank(), cfg);
      },
      [&](const Engine& e, const core::RunResult& r) {
        ++rep.attempted;
        if (r.failed || !pagerank_matches(e.values(), ref)) ++rep.failed;
        if (totals) totals->add(r, e.lanes());
      });
}

Measured measure(double seconds, const graph::Csr& g,
                 const std::vector<float>& ref, Tracer& tr, Report& rep,
                 CoreTotals* totals) {
  const auto cfg = config(core::ExecMode::kLocking, 3);
  Measured m;
  repeat_for(seconds, [&] {
    const double s = unit(g, ref, cfg, tr, rep, totals);
    m.unit_s.push_back(s);
    ++m.ops;
    m.busy_s += s;
  });
  return m;
}

/// generate ns per message of one single-thread run in `mode`.
double single_thread_ns_per_msg(core::ExecMode mode, const graph::Csr& g,
                                const std::vector<float>& ref, Tracer& tr,
                                Report& rep) {
  CoreTotals t;
  unit(g, ref, config(mode, 1), tr, rep, &t);
  return 1e9 * t.p.generate / static_cast<double>(t.c.msgs_local);
}

}  // namespace

int run_pagerank(const Options& o, Report& rep, Tracer& tr) {
  graph::Csr g;
  const Setup setup = timed_setup(tr, [&] {
    Tracer::Scope s(tr, "gen");
    g = gen::pokec_like(kVertices, kEdges, derive_seed(o.seed, Stream::kGraph));
  });
  const auto ref = apps::classic_pagerank(g, kSupersteps);

  const bool traced = tr.on();
  tr.set_on(false);
  // Warm-up.
  unit(g, ref, config(core::ExecMode::kLocking, 3), tr, rep, nullptr);
  const double rss_mb = peak_rss_mb();
  if (!traced) {
    end_to_end_from(rep, setup, rss_mb,
                    measure(o.seconds, g, ref, tr, rep, nullptr));
    return 0;
  }

  const Measured plain = measure(o.seconds / 2, g, ref, tr, rep, nullptr);
  tr.set_on(true);
  CoreTotals t;
  const Measured m = measure(o.seconds / 2, g, ref, tr, rep, &t);
  const double units = static_cast<double>(m.unit_s.size());
  rep.layer("gen.s", tr.self_seconds("gen") / setup.reps, "s");
  rep.layer("core.build_s", tr.self_seconds("core.build") / units, "s");
  rep.core_layers(t, units);
  rep.layer("core.generate_ns_per_msg.omp1",
            single_thread_ns_per_msg(core::ExecMode::kOmpStyle, g, ref, tr,
                                     rep),
            "ns/msg");
  rep.layer("core.generate_ns_per_msg.lock1",
            single_thread_ns_per_msg(core::ExecMode::kLocking, g, ref, tr, rep),
            "ns/msg");
  rep.layer("trace.overhead", median(m.unit_s) / median(plain.unit_s) - 1,
            "frac");
  const core::DeviceEngine<apps::PageRank> e(
      core::LocalGraph::whole(g), apps::PageRank(),
      config(core::ExecMode::kLocking, 3));
  note_working_set(rep, csr_bytes(g),
                   static_cast<double>(e.csb().storage_slots() * sizeof(float)),
                   0);
  return 0;
}

}  // namespace perfbench
