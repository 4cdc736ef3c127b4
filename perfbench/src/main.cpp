// Host wall-clock benchmark of PhiGraph: one workload per process.
//
//   perfbench_run --workload pagerank|traversal|serve|cluster --seed N
//                 --seconds S --trace 0|1 [--spans FILE]
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures half the
// time untraced and half with spans around every layer call, and reports
// the per-layer metrics plus the tracing overhead. Every metric is printed
// as `name = value unit`; the last line is one JSON object. The exit code
// is non-zero when an output is wrong or the run is void.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_run: %s\nusage: perfbench_run --workload "
               "pagerank|traversal|serve|cluster --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*v < '0' || *v > '9' || *end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o.seconds > 0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        usage("bad --trace");
      o.trace = v[0] == '1';
    } else if (flag == "--spans") {
      o.spans_path = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }

  using Run = int (*)(const perfbench::Options&, perfbench::Report&,
                      perfbench::Tracer&);
  Run run = nullptr;
  if (o.workload == "pagerank") run = perfbench::run_pagerank;
  if (o.workload == "traversal") run = perfbench::run_traversal;
  if (o.workload == "serve") run = perfbench::run_serve;
  if (o.workload == "cluster") run = perfbench::run_cluster;
  if (!run) usage("unknown --workload");

  perfbench::Report rep(o.trace);
  perfbench::Tracer tr(o.trace);
  if (const int rc = run(o, rep, tr); rc != 0) return rc;
  tr.set_on(o.trace);
  tr.write(o.spans_path);
  return rep.print(o.workload);
}
