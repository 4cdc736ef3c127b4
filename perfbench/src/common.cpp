#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

#include "src/common/rng.hpp"

namespace perfbench {

using phigraph::graph::Csr;

std::uint64_t derive_seed(std::uint64_t seed, Stream s) {
  phigraph::SplitMix64 sm(seed * 0x9e3779b97f4a7c15ull +
                          static_cast<std::uint64_t>(s));
  return sm.next();
}

Csr symmetrize(const Csr& d) {
  std::vector<std::pair<vid_t, vid_t>> edges;
  edges.reserve(2 * d.num_edges());
  for (vid_t u = 0; u < d.num_vertices(); ++u)
    for (vid_t v : d.out_neighbors(u)) {
      edges.emplace_back(u, v);
      edges.emplace_back(v, u);
    }
  return Csr::from_edges(d.num_vertices(), edges);
}

std::vector<vid_t> pick_sources(const Csr& g, std::size_t k,
                                std::uint64_t seed) {
  phigraph::Rng rng(seed);
  std::vector<vid_t> out;
  while (out.size() < k) {
    const auto v = static_cast<vid_t>(rng.below(g.num_vertices()));
    if (g.out_degree(v) > 0 &&
        std::find(out.begin(), out.end(), v) == out.end())
      out.push_back(v);
  }
  return out;
}

double csr_bytes(const Csr& g) {
  return static_cast<double>(g.offsets().size() * sizeof(eid_t) +
                             g.targets().size() * sizeof(vid_t) +
                             g.edge_values().size() * sizeof(float));
}

// ---- tracing ----------------------------------------------------------------

int Tracer::open(const char* name, int parent, Clock::time_point t0) {
  if (!on_) return -1;
  spans_.push_back(Span{name, parent, t0, t0});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int id, Clock::time_point t1) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].t1 = t1;
}

Tracer::Scope::Scope(Tracer& t, const char* name)
    : t_(t),
      id_(t.open(name, t.stack_.empty() ? -1 : t.stack_.back(), Clock::now())) {
  if (id_ >= 0) t_.stack_.push_back(id_);
}

Tracer::Scope::~Scope() {
  if (id_ < 0) return;
  t_.close(id_, Clock::now());
  t_.stack_.pop_back();
}

double Tracer::self_seconds(const std::string& name) const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = seconds_between(spans_[i].t0, spans_[i].t1);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= seconds_between(s.t0, s.t1);
  double sum = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (name == spans_[i].name) sum += std::max(0.0, self[i]);
  return sum;
}

void Tracer::write(const std::string& path) const {
  if (!on_ || path.empty()) return;
  std::ofstream out(path);
  out.precision(9);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\":\"" << s.name << "\",\"id\":" << i
        << ",\"parent\":" << s.parent
        << ",\"start_s\":" << seconds_between(epoch_, s.t0)
        << ",\"end_s\":" << seconds_between(epoch_, s.t1) << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

// ---- statistics -------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool pagerank_matches(std::span<const float> got,
                      const std::vector<float>& ref) {
  if (got.size() != ref.size()) return false;
  for (std::size_t v = 0; v < ref.size(); ++v)
    if (!(std::fabs(got[v] - ref[v]) <= 1e-3f * (1.0f + ref[v]))) return false;
  return true;
}

void CoreTotals::add(const phigraph::core::RunResult& r, int lanes) {
  for (std::size_t s = 0; s < r.trace.size(); ++s) {
    c += r.trace[s];
    lane_cells += static_cast<double>(r.trace[s].vector_rows) * lanes;
    if (s < r.phases.size() && r.trace[s].pull_supersteps)
      pull_generate_s += r.phases[s].generate;
  }
  p += phigraph::metrics::phase_totals(r.phases);
  supersteps += r.supersteps;
}

// ---- report -----------------------------------------------------------------

namespace {

struct LayerSpec {
  const char* name;
  const char* unit;
};

// Every per-layer metric of the traced run. A workload that does not
// exercise a layer reports 0 for it, and the report says so.
constexpr LayerSpec kLayers[] = {
    {"gen.s", "s"},
    {"partition.s", "s"},
    {"partition.cut_edges", "count"},
    {"partition.load_imbalance", "ratio"},
    {"core.build_s", "s"},
    {"core.prepare_s", "s"},
    {"core.generate_s", "s"},
    {"core.process_s", "s"},
    {"core.update_s", "s"},
    {"core.supersteps", "count"},
    {"core.pull_s", "s"},
    {"core.generate_s.r0", "s"},
    {"core.generate_s.r1", "s"},
    {"core.generate_ns_per_msg", "ns/msg"},
    {"core.generate_ns_per_msg.omp1", "ns/msg"},
    {"core.generate_ns_per_msg.lock1", "ns/msg"},
    {"core.pull_ns_per_edge", "ns/edge"},
    {"core.push_edges", "count"},
    {"core.pull_edges", "count"},
    {"core.pull_early_exits", "count"},
    {"core.pull_supersteps", "count"},
    {"core.direction_flips", "count"},
    {"core.sparse_supersteps", "count"},
    {"core.groups_skipped_frac", "frac"},
    {"buffer.msgs", "count"},
    {"buffer.lock_acquisitions", "count"},
    {"buffer.column_conflicts", "count"},
    {"buffer.columns_allocated", "count"},
    {"simd.vector_rows", "count"},
    {"simd.lane_fill", "frac"},
    {"simd.process_ns_per_row", "ns/row"},
    {"sched.retrievals", "count"},
    {"pipeline.queue_pushes", "count"},
    {"pipeline.full_spins", "count"},
    {"pipeline.spins_per_push", "ratio"},
    {"comm.exchange_s.r0", "s"},
    {"comm.exchange_s.r1", "s"},
    {"comm.terminate_s", "s"},
    {"comm.bytes", "bytes"},
    {"comm.msgs_remote", "count"},
    {"comm.bytes_per_msg", "bytes/msg"},
    {"serve.submit_ms", "ms"},
    {"serve.queue_depth_max", "count"},
    {"serve.batches", "count"},
    {"serve.batch_fill", "frac"},
    {"serve.scans_per_job", "count"},
    {"serve.supersteps_per_batch", "count"},
    {"serve.gen_late_ms", "ms"},
    {"trace.overhead", "frac"},
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void Report::end_to_end(const std::string& name, double value,
                        const std::string& unit) {
  e2e_[name] = Metric{value, unit};
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  layer_[name] = Metric{value, unit};
}

void Report::printed(const std::string& name, double value,
                     const std::string& unit) {
  printed_[name] = Metric{value, unit};
}

void Report::note(const std::string& text) { notes_.push_back(text); }

void Report::core_layers(const CoreTotals& t, double units) {
  const auto& c = t.c;
  const auto per = [&](double x) { return ratio(x, units); };
  const double msgs = static_cast<double>(c.msgs_local + c.msgs_remote);
  layer("core.prepare_s", per(t.p.prepare), "s");
  layer("core.generate_s", per(t.p.generate), "s");
  layer("core.process_s", per(t.p.process), "s");
  layer("core.update_s", per(t.p.update), "s");
  layer("core.supersteps", per(t.supersteps), "count");
  layer("core.pull_s", per(t.pull_generate_s), "s");
  layer("core.generate_ns_per_msg",
        ratio(1e9 * (t.p.generate - t.pull_generate_s), msgs), "ns/msg");
  layer("core.pull_ns_per_edge",
        ratio(1e9 * t.pull_generate_s,
              static_cast<double>(c.pull_edges_scanned)),
        "ns/edge");
  layer("core.push_edges", per(static_cast<double>(c.edges_scanned)), "count");
  layer("core.pull_edges", per(static_cast<double>(c.pull_edges_scanned)),
        "count");
  layer("core.pull_early_exits", per(static_cast<double>(c.pull_early_exits)),
        "count");
  layer("core.pull_supersteps", per(static_cast<double>(c.pull_supersteps)),
        "count");
  layer("core.direction_flips", per(static_cast<double>(c.direction_flips)),
        "count");
  layer("core.sparse_supersteps", per(static_cast<double>(c.sparse_supersteps)),
        "count");
  layer("core.groups_skipped_frac",
        ratio(static_cast<double>(c.groups_skipped),
              static_cast<double>(c.groups_skipped + c.groups_dirty)),
        "frac");
  layer("buffer.msgs", per(static_cast<double>(c.msgs_local)), "count");
  layer("buffer.lock_acquisitions",
        per(static_cast<double>(c.lock_acquisitions)), "count");
  layer("buffer.column_conflicts", per(static_cast<double>(c.column_conflicts)),
        "count");
  layer("buffer.columns_allocated",
        per(static_cast<double>(c.columns_allocated)), "count");
  layer("simd.vector_rows", per(static_cast<double>(c.vector_rows)), "count");
  layer("simd.lane_fill",
        t.lane_cells > 0
            ? 1.0 - static_cast<double>(c.padded_cells) / t.lane_cells
            : 0,
        "frac");
  layer("simd.process_ns_per_row",
        ratio(1e9 * t.p.process, static_cast<double>(c.vector_rows)), "ns/row");
  layer("sched.retrievals", per(static_cast<double>(c.sched_retrievals)),
        "count");
  layer("pipeline.queue_pushes", per(static_cast<double>(c.queue_pushes)),
        "count");
  layer("pipeline.full_spins", per(static_cast<double>(c.queue_full_spins)),
        "count");
  layer("pipeline.spins_per_push",
        ratio(static_cast<double>(c.queue_full_spins),
              static_cast<double>(c.queue_pushes)),
        "ratio");
  layer("comm.terminate_s", per(t.p.terminate), "s");
  layer("comm.bytes", per(static_cast<double>(c.bytes_sent)), "bytes");
  layer("comm.msgs_remote", per(static_cast<double>(c.msgs_remote)), "count");
  layer("comm.bytes_per_msg",
        ratio(static_cast<double>(c.bytes_sent),
              static_cast<double>(c.msgs_remote)),
        "bytes/msg");
}

void end_to_end_from(Report& rep, const Setup& setup, double rss_mb,
                     const Measured& m) {
  std::vector<double> ms;
  for (const double s : m.unit_s) ms.push_back(1e3 * s);
  rep.end_to_end("setup_s", setup.median_s, "s");
  rep.end_to_end("run_s", median(m.unit_s), "s");
  rep.printed("latency_p50_ms", quantile(ms, 0.50), "ms");
  rep.printed("latency_p99_ms", quantile(ms, 0.99), "ms");
  rep.end_to_end("throughput_jobs_s",
                 ratio(static_cast<double>(m.ops), m.busy_s), "1/s");
  rep.end_to_end("peak_rss_mb", rss_mb, "MB");
  rep.note("peak resident set at exit: " + std::to_string(peak_rss_mb()) +
           " MB");
  rep.note("setup_s is the median of " + std::to_string(setup.reps) +
           " set-ups; run_s and the latencies come from " +
           std::to_string(m.unit_s.size()) + " units" +
           (m.unit_s.size() < 1000
                ? " (fewer than 1000: p99 reads as the slowest units)"
                : ""));
}

void note_working_set(Report& rep, double csr, double csb, double transpose) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "working set: CSR %.2f MiB + CSB %.2f MiB + transpose %.2f MiB "
                "= %.0f bytes (%.2f MiB)",
                csr / (1 << 20), csb / (1 << 20), transpose / (1 << 20),
                csr + csb + transpose, (csr + csb + transpose) / (1 << 20));
  rep.note(buf);
}

int Report::print(const std::string& workload) const {
  const bool correct = failed == 0 && attempted > 0;
  std::printf("workload = %s\n", workload.c_str());
  for (const std::string& n : notes_) std::printf("# %s\n", n.c_str());
  std::printf("# %llu of %llu operations failed\n",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::map<std::string, Metric> shown = printed_;
  shown["failed_frac"] = Metric{
      ratio(static_cast<double>(failed), static_cast<double>(attempted)),
      "frac"};
  for (const auto& [name, m] : shown)
    std::printf("%s = %s %s\n", name.c_str(), json_number(m.value).c_str(),
                m.unit.c_str());

  shown.clear();
  for (const auto& [name, m] : layer_)
    if (std::none_of(std::begin(kLayers), std::end(kLayers),
                     [&](const LayerSpec& s) { return name == s.name; }))
      std::fprintf(stderr, "perfbench: %s is not a listed per-layer metric\n",
                   name.c_str());
  if (traced_) {
    for (const LayerSpec& s : kLayers) {
      const auto it = layer_.find(s.name);
      if (it == layer_.end()) {
        std::printf("# %s: not exercised by the %s workload (reported as 0)\n",
                    s.name, workload.c_str());
        shown[s.name] = Metric{0, s.unit};
      } else {
        shown[s.name] = it->second;
      }
    }
  } else {
    shown = e2e_;
  }
  for (const auto& [name, m] : shown)
    std::printf("%s = %s %s\n", name.c_str(), json_number(m.value).c_str(),
                m.unit.c_str());

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : shown) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench
