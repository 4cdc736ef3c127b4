#!/usr/bin/env python3
"""Diff two PhiGraph bench JSON files and fail on perf regressions.

Compares the per-version modeled times (exec_s, comm_s) of a candidate
BENCH_*.json against a baseline, plus — when both files carry per-superstep
"phases" tables (emitted by every bench) — the per-phase host-seconds totals.
Exits non-zero when any version regressed by more than the threshold, so CI
can gate on it; use --warn-only while baselines are still host-dependent.

Usage:
    bench_compare.py baseline.json candidate.json [--threshold PCT]
                     [--phase-threshold PCT] [--min-seconds S] [--warn-only]

Semantics:
  * versions are matched by name; versions present on only one side are
    reported but never fail the comparison (the benches, not this tool,
    decide the version set),
  * a regression is candidate > baseline * (1 + threshold/100),
  * times below --min-seconds are skipped (pure noise at tiny scales),
  * counter totals (msgs_local, edges_scanned, ...) are compared exactly:
    the engines are deterministic given a scale, so a drifting counter means
    the workload changed and the timing comparison is meaningless — that is
    reported as an error, not a regression,
  * a workload counter present on only one side is an error too ("renamed or
    dropped"): silently skipping it would let a counter rename disarm the
    drift check without anyone noticing.
"""

from __future__ import annotations

import argparse
import json
import sys

# Counters that must match exactly for the timing diff to mean anything.
WORKLOAD_COUNTERS = ("active_vertices", "edges_scanned", "msgs_local")

# Host-phase fields totalled per version from the "phases" table.
PHASE_FIELDS = (
    "prepare",
    "generate",
    "exchange",
    "process",
    "update",
    "terminate",
    "checkpoint",
)

# Top-level schema sections every bench JSON carries (all-zero when a bench
# does not exercise the subsystem) and the numeric fields each must hold. A
# missing or renamed field is a schema error, not a silent skip: the emitter
# and this gate move in lockstep, or a rename would silently disarm a check.
# Only the schema is gated; values are not compared across files (recovery
# wall time, serving throughput/latency and partition quality are host noise
# or gated by the benches' own acceptance checks).
SECTIONS = {
    # The recovery ladder's outcome: attempts/epochs/rung/lost supersteps
    # plus wall time.
    "failover": (
        "failed_over",
        "attempts",
        "epochs",
        "rung",
        "lost_supersteps",
        "recovery_ms",
    ),
    # The multi-query serving layer: batching effectiveness, the edge-scan
    # savings of the shared run, and tail latency.
    "serving": (
        "jobs",
        "batches",
        "lanes",
        "jobs_per_sec",
        "edge_scans_sequential",
        "edge_scans_batched",
        "scan_reduction",
        "p50_latency_ms",
        "p99_latency_ms",
        "max_queue_depth",
    ),
    # The k-way streaming vertex-cut comparison: HDRF's replication factor,
    # load imbalance and measured cut bytes against round-robin.
    "partition": (
        "ranks",
        "replication_factor",
        "load_imbalance",
        "cut_bytes",
        "round_robin_replication_factor",
        "round_robin_cut_bytes",
    ),
}


def is_number(x: object) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_compare: cannot load {path}: {e}")


def versions_by_name(doc: dict, path: str) -> dict[str, dict]:
    versions = doc.get("versions")
    if not isinstance(versions, list):
        sys.exit(f"bench_compare: {path} has no 'versions' array")
    out = {}
    for v in versions:
        name = v.get("name")
        if not isinstance(name, str):
            sys.exit(f"bench_compare: {path} has a version without a name")
        out[name] = v
    return out


def check_sections(doc: dict, path: str, rep: "Report") -> None:
    """Validate every top-level schema section against SECTIONS.

    Every bench emits each section, so a missing object or a
    missing/non-numeric field is a hard schema error.
    """
    for section, fields in SECTIONS.items():
        obj = doc.get(section)
        if not isinstance(obj, dict):
            rep.errors.append(
                f"{path}: top-level '{section}' object is missing or not an "
                f"object (the bench emitter always writes one)"
            )
            continue
        for field in fields:
            if field not in obj:
                rep.errors.append(
                    f"{path}: {section} field '{field}' is missing — renamed "
                    f"or dropped? The {section}-schema gate cannot run "
                    f"without it."
                )
            elif not is_number(obj[field]):
                rep.errors.append(
                    f"{path}: {section} field '{field}' is {obj[field]!r}, "
                    f"not a number"
                )
        if section == "failover":
            erm = obj.get("epoch_recovery_ms")
            if not isinstance(erm, list) or not all(map(is_number, erm)):
                rep.errors.append(
                    f"{path}: failover field 'epoch_recovery_ms' must be a "
                    f"list of numbers (got {erm!r})"
                )


def phase_totals(version: dict) -> dict[str, float] | None:
    rows = version.get("phases")
    if not isinstance(rows, list) or not rows:
        return None
    return {f: sum(float(r.get(f, 0.0)) for r in rows) for f in PHASE_FIELDS}


class Report:
    def __init__(self) -> None:
        self.regressions: list[str] = []
        self.errors: list[str] = []
        self.notes: list[str] = []

    def compare_time(
        self,
        label: str,
        base: float,
        cand: float,
        threshold_pct: float,
        min_seconds: float,
    ) -> None:
        if base < min_seconds and cand < min_seconds:
            return
        limit = base * (1.0 + threshold_pct / 100.0)
        delta_pct = 100.0 * (cand - base) / base if base > 0 else float("inf")
        line = f"{label}: {base:.6f}s -> {cand:.6f}s ({delta_pct:+.1f}%)"
        if cand > limit:
            self.regressions.append(line + f"  [> +{threshold_pct:g}% limit]")
        elif cand < base:
            self.notes.append(line + "  [improved]")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument(
        "--threshold",
        type=float,
        default=10.0,
        metavar="PCT",
        help="max allowed exec_s/comm_s growth in percent (default 10)",
    )
    ap.add_argument(
        "--phase-threshold",
        type=float,
        default=25.0,
        metavar="PCT",
        help="max allowed per-phase host-seconds growth in percent "
        "(default 25; host phase times are noisier than modeled times)",
    )
    ap.add_argument(
        "--min-seconds",
        type=float,
        default=1e-4,
        metavar="S",
        help="ignore times where both sides are below S (default 1e-4)",
    )
    ap.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but exit 0 (for noisy/shared CI hosts)",
    )
    args = ap.parse_args()

    base_doc = load(args.baseline)
    cand_doc = load(args.candidate)
    base_vs = versions_by_name(base_doc, args.baseline)
    cand_vs = versions_by_name(cand_doc, args.candidate)

    rep = Report()
    check_sections(base_doc, args.baseline, rep)
    check_sections(cand_doc, args.candidate, rep)
    for key in ("figure", "app", "scale"):
        if base_doc.get(key) != cand_doc.get(key):
            rep.errors.append(
                f"{key} mismatch: baseline={base_doc.get(key)!r} "
                f"candidate={cand_doc.get(key)!r}"
            )

    for name in base_vs:
        if name not in cand_vs:
            rep.notes.append(f"version only in baseline: {name}")
    for name in cand_vs:
        if name not in base_vs:
            rep.notes.append(f"version only in candidate: {name}")

    for name in sorted(set(base_vs) & set(cand_vs)):
        b, c = base_vs[name], cand_vs[name]

        bt, ct = b.get("totals", {}), c.get("totals", {})
        for side, totals, path in (
            ("baseline", bt, args.baseline),
            ("candidate", ct, args.candidate),
        ):
            if not isinstance(totals, dict):
                rep.errors.append(
                    f"{name}: 'totals' in the {side} ({path}) is "
                    f"{type(totals).__name__}, not an object"
                )
        if isinstance(bt, dict) and isinstance(ct, dict):
            for counter in WORKLOAD_COUNTERS:
                in_b, in_c = counter in bt, counter in ct
                if in_b != in_c:
                    present = "baseline" if in_b else "candidate"
                    absent = "candidate" if in_b else "baseline"
                    rep.errors.append(
                        f"{name}: counter '{counter}' exists in the {present} "
                        f"but not the {absent} — renamed or dropped? The "
                        f"workload-drift check cannot run without it."
                    )
                elif in_b and bt[counter] != ct[counter]:
                    rep.errors.append(
                        f"{name}: workload drift — {counter} "
                        f"{bt[counter]} -> {ct[counter]} (same scale should "
                        f"give identical counters; timings are not comparable)"
                    )

        def time_field(version: dict, side: str, field: str) -> float:
            raw = version.get(field, 0.0)
            try:
                return float(raw)
            except (TypeError, ValueError):
                rep.errors.append(
                    f"{name}: '{field}' in the {side} is {raw!r}, not a number"
                )
                return 0.0

        rep.compare_time(
            f"{name} exec_s",
            time_field(b, "baseline", "exec_s"),
            time_field(c, "candidate", "exec_s"),
            args.threshold,
            args.min_seconds,
        )
        rep.compare_time(
            f"{name} comm_s",
            time_field(b, "baseline", "comm_s"),
            time_field(c, "candidate", "comm_s"),
            args.threshold,
            args.min_seconds,
        )

        bp, cp = phase_totals(b), phase_totals(c)
        if bp is not None and cp is not None:
            for field in PHASE_FIELDS:
                rep.compare_time(
                    f"{name} phase:{field}",
                    bp[field],
                    cp[field],
                    args.phase_threshold,
                    args.min_seconds,
                )

    for line in rep.notes:
        print(f"  note: {line}")
    for line in rep.errors:
        print(f"  ERROR: {line}")
    for line in rep.regressions:
        print(f"  REGRESSION: {line}")

    if rep.errors:
        print(f"bench_compare: {len(rep.errors)} error(s)")
        return 2
    if rep.regressions:
        print(f"bench_compare: {len(rep.regressions)} regression(s)")
        if args.warn_only:
            print("bench_compare: --warn-only set; exiting 0")
            return 0
        return 1
    print("bench_compare: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
