// Shared pieces of the host wall-clock benchmark: options, seeded inputs,
// an in-memory span tracer, exact percentiles, reference checks and the
// report that prints every metric by name and ends with one JSON line.
//
// Every timed region wraps calls into PhiGraph's public API only. Reference
// answers (apps/reference.hpp) are computed and compared outside the timed
// regions.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/types.hpp"
#include "src/core/engine.hpp"
#include "src/graph/csr.hpp"

namespace perfbench {

using phigraph::eid_t;
using phigraph::vid_t;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) noexcept {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  // where the traced run writes its spans ("" = none)
};

// ---- seeded inputs ----------------------------------------------------------

/// Independent input streams derived from the one command-line seed.
enum class Stream : std::uint64_t {
  kGraph = 1,
  kWeights,
  kSources,
  kArrivals,
  kKinds,
};

[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, Stream s);

/// The Pokec-like graph every workload runs on (`small` scale: 100k
/// vertices, 1.8M directed edges).
inline constexpr vid_t kVertices = 100'000;
inline constexpr eid_t kEdges = 1'800'000;

/// Every edge in both directions (traversal and serving run on the
/// undirected social graph, where component membership is meaningful).
[[nodiscard]] phigraph::graph::Csr symmetrize(const phigraph::graph::Csr& d);

/// `k` distinct vertices with at least one out-edge, drawn uniformly.
[[nodiscard]] std::vector<vid_t> pick_sources(const phigraph::graph::Csr& g,
                                              std::size_t k,
                                              std::uint64_t seed);

/// Bytes of a CSR: offsets, targets and edge values.
[[nodiscard]] double csr_bytes(const phigraph::graph::Csr& g);

// ---- tracing ----------------------------------------------------------------

/// Spans kept in memory and written out at exit. Only the thread that
/// drives the benchmark records spans; a disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  [[nodiscard]] bool on() const noexcept { return on_; }
  /// Switch recording off for an untraced phase of a traced run and back.
  void set_on(bool on) noexcept { on_ = on; }

  /// Open a span under `parent` (-1 = root); returns its id (-1 when off).
  int open(const char* name, int parent, Clock::time_point t0);
  void close(int id, Clock::time_point t1);

  /// Nested span around one synchronous call; its parent is the innermost
  /// open Scope.
  class Scope {
   public:
    Scope(Tracer& t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_;
  };

  /// Self time of all spans named `name`: each span's duration minus the
  /// part its children cover.
  [[nodiscard]] double self_seconds(const std::string& name) const;

  /// One JSON object per span: name, id, parent, start/end in seconds.
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int parent;
    Clock::time_point t0, t1;
  };
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  Clock::time_point epoch_ = Clock::now();
};

// ---- statistics -------------------------------------------------------------

/// Exact percentile (linear interpolation between order statistics).
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mb();

// ---- reference checks -------------------------------------------------------

/// PageRank within the engine tests' tolerance: |got - ref| <= 1e-3 (1 + ref).
[[nodiscard]] bool pagerank_matches(std::span<const float> got,
                                    const std::vector<float>& ref);

template <typename T>
[[nodiscard]] bool exactly_equal(std::span<const T> got,
                                 const std::vector<T>& ref) {
  return got.size() == ref.size() &&
         std::equal(got.begin(), got.end(), ref.begin());
}

// ---- engine counters --------------------------------------------------------

/// Counter and phase sums over the runs of one measured phase.
struct CoreTotals {
  phigraph::metrics::SuperstepCounters c;
  phigraph::metrics::PhaseSeconds p;
  double pull_generate_s = 0;  // generate time of pull supersteps
  double supersteps = 0;
  double lane_cells = 0;  // SIMD rows x lanes of the rank that ran them

  void add(const phigraph::core::RunResult& r, int lanes);
};

// ---- report -----------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

/// Every metric by name with its unit, printed as `name = value unit` lines
/// and then, as the last line, one JSON object holding the end-to-end
/// metrics (untraced run) or the per-layer metrics (traced run).
class Report {
 public:
  explicit Report(bool traced) : traced_(traced) {}

  void end_to_end(const std::string& name, double value,
                  const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  /// A metric printed by name on every run but left out of the JSON line:
  /// failed_frac, and the latency percentiles, which repeat run_s at p50
  /// and rest on a handful of units at p99 outside `serve`.
  void printed(const std::string& name, double value, const std::string& unit);
  void note(const std::string& text);

  /// The per-layer metrics a workload's spans and counters produce from one
  /// traced phase. `units` is the number of units of user work (the unit
  /// run_s times) the totals cover; times and counts are per unit.
  void core_layers(const CoreTotals& t, double units);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Prints the report; returns the process exit code (0 iff every checked
  /// output was correct).
  int print(const std::string& workload) const;

 private:
  bool traced_;
  std::map<std::string, Metric> e2e_, layer_, printed_;
  std::vector<std::string> notes_;
};

/// Note the working set (graph CSR, CSB storage, transpose) in bytes and
/// MiB.
void note_working_set(Report& rep, double csr, double csb, double transpose);

/// Set-up as measured: the median of `reps` timed repetitions.
struct Setup {
  double median_s = 0;
  int reps = 0;
};

/// Result of a timed loop of units of user work.
struct Measured {
  std::vector<double> unit_s;  // wall time of each unit of user work
  std::size_t ops = 0;         // operations completed (runs, queries, jobs)
  double busy_s = 0;           // wall time those operations took
};

/// Fill setup_s, run_s (median unit), throughput_jobs_s (ops / busy_s) and
/// peak_rss_mb, and print latency_p50_ms / latency_p99_ms (exact percentiles
/// of the unit times). `rss_mb` is the peak resident set through set-up and the
/// warm-up unit: a process that has done one unit of every kind holds its
/// working memory, and later units add only allocator retention, which
/// varies from run to run. The peak at exit is printed beside it.
void end_to_end_from(Report& rep, const Setup& setup, double rss_mb,
                     const Measured& m);

/// Repeat `make` at least 3 times and until 1.5 s have passed (at most 15
/// times), keeping the last result: short set-ups are noisy, so they get
/// more repetitions. The spans of each call hang under one "setup" span.
template <typename Make>
Setup timed_setup(Tracer& tr, Make&& make) {
  std::vector<double> s;
  double total = 0;
  while (s.size() < 3 || (total < 1.5 && s.size() < 15)) {
    Tracer::Scope span(tr, "setup");
    const auto t0 = Clock::now();
    make();
    s.push_back(seconds_between(t0, Clock::now()));
    total += s.back();
  }
  return {median(s), static_cast<int>(s.size())};
}

/// One engine run as a user pays for it: `build(e)` emplaces the engine,
/// then run(), then `check(engine, result)` outside the timed region, then
/// teardown. Returns the timed seconds (build + run + teardown).
template <typename Engine, typename Build, typename Check>
double engine_unit(Tracer& tr, const char* name, Build&& build,
                   Check&& check) {
  Tracer::Scope span(tr, name);
  auto t0 = Clock::now();
  std::optional<Engine> e;
  {
    Tracer::Scope s(tr, "core.build");
    build(e);
  }
  const auto r = [&] {
    Tracer::Scope s(tr, "core.run");
    return e->run();
  }();
  const double secs = seconds_between(t0, Clock::now());
  {
    Tracer::Scope s(tr, "check");
    check(*e, r);
  }
  t0 = Clock::now();
  {
    Tracer::Scope s(tr, "core.teardown");
    e.reset();
  }
  return secs + seconds_between(t0, Clock::now());
}

/// Call `unit` until `seconds` have passed; at least once.
template <typename Unit>
void repeat_for(double seconds, Unit&& unit) {
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  do unit();
  while (Clock::now() < end);
}

/// Workload entry points. Each fills the report and returns 0, or returns
/// non-zero when the run is invalid and must print no result.
int run_pagerank(const Options& o, Report& rep, Tracer& tr);
int run_traversal(const Options& o, Report& rep, Tracer& tr);
int run_serve(const Options& o, Report& rep, Tracer& tr);
int run_cluster(const Options& o, Report& rep, Tracer& tr);

}  // namespace perfbench
