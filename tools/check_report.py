#!/usr/bin/env python3
"""Validate feio's machine-readable output in CI.

usage:
  check_report.py report FILE [--kind KIND]   validate a feio.report/1 doc
  check_report.py trace FILE                  validate a Chrome trace JSON

`report` checks the shared envelope (schema/kind/tool_version/generated_by)
plus the kind-specific required keys. `trace` checks the trace-event shape
chrome://tracing and Perfetto load: a traceEvents array of B/E events with
balanced begin/end per thread. Exits non-zero with a message on the first
violation. Stdlib only.
"""
import json
import sys

REPORT_SCHEMA = "feio.report/1"
REQUIRED_KEYS = {
    "diag": ["ok", "errors", "warnings", "notes", "capped", "diagnostics"],
    "lint": ["ok", "errors", "warnings", "notes", "capped", "diagnostics"],
    "bench": ["payload_schema"],
    "metrics": ["counters", "histograms"],
    "job": ["id", "tenant", "seq", "status", "elapsed_ms", "errors",
            "warnings", "diagnostics"],
}

# Required keys per bench payload_schema (the "bench" kind is a family of
# payloads; see docs/BENCHMARKS.md and docs/ROBUSTNESS.md).
BENCH_KEYS = {
    "feio.bench.solver/4": ["hardware_threads", "repetitions", "all_identical",
                            "cases", "metrics"],
    "feio.bench.serve/1": ["jobs", "ok", "rejected", "timed_out", "faulted",
                           "errors", "wall_ms", "jobs_per_sec", "p50_ms",
                           "p99_ms", "max_ms", "connections",
                           "connections_failed", "cache", "tenants",
                           "window_jobs", "windows"],
}

# Additive extensions of feio.bench.serve/1 (docs/ROBUSTNESS.md): the cache
# totals object (with enabled flags — a disabled cache must report zero
# traffic), the per-tenant array, each rolling-window object (with per-window
# tenant shares), and the optional --ablate-caches block.
SERVE_CACHE_KEYS = ("format_enabled", "format_hits", "format_misses",
                    "format_hit_rate", "factor_enabled", "factor_hits",
                    "factor_misses", "factor_load_reuses",
                    "factor_ttl_evictions", "factor_hit_rate")

# Per-case keys of the feio.bench.solver/4 ordering payload
# (docs/BENCHMARKS.md). A `skipped` case (its envelope over the harness
# byte or flop cap) must carry a zero timing; a run case must be
# `identical` (every timed run byte-equal to its warm-up run).
SOLVER_CASE_KEYS = ("name", "stage", "mesh", "ordering", "n",
                    "half_bandwidth", "node_bw", "band_bytes",
                    "skyline_bytes", "work", "ms", "identical", "skipped")
SOLVER_ORDERINGS = ("none", "rcm")
SERVE_TENANT_KEYS = ("tenant", "weight", "jobs", "ok", "rejected",
                     "timed_out", "faulted", "errors", "share")
SERVE_WINDOW_KEYS = ("jobs", "wall_ms", "jobs_per_sec", "p50_ms", "p99_ms",
                     "format_hit_rate", "factor_hit_rate", "tenant_shares")
SERVE_ABLATION_KEYS = ("wall_ms", "jobs_per_sec", "speedup")

JOB_STATUSES = ("ok", "rejected", "timeout", "faulted", "error")


def fail(msg):
    print(f"check_report: {msg}", file=sys.stderr)
    sys.exit(1)


def check_report(path, want_kind=None):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != REPORT_SCHEMA:
        fail(f"{path}: schema is {doc.get('schema')!r}, want {REPORT_SCHEMA!r}")
    kind = doc.get("kind")
    if kind not in REQUIRED_KEYS:
        fail(f"{path}: unknown kind {kind!r}")
    if want_kind is not None and kind != want_kind:
        fail(f"{path}: kind is {kind!r}, want {want_kind!r}")
    if not doc.get("tool_version"):
        fail(f"{path}: missing tool_version")
    if doc.get("generated_by") != "feio":
        fail(f"{path}: generated_by is {doc.get('generated_by')!r}")
    for key in REQUIRED_KEYS[kind]:
        if key not in doc:
            fail(f"{path}: kind {kind} is missing required key {key!r}")
    if kind == "bench":
        payload = doc["payload_schema"]
        if payload not in BENCH_KEYS:
            fail(f"{path}: payload_schema is {payload!r}, "
                 f"want one of {tuple(BENCH_KEYS)}")
        for key in BENCH_KEYS[payload]:
            if key not in doc:
                fail(f"{path}: {payload} is missing required key {key!r}")
        if payload == "feio.bench.serve/1":
            buckets = (doc["ok"] + doc["rejected"] + doc["timed_out"]
                       + doc["faulted"] + doc["errors"])
            if buckets != doc["jobs"]:
                fail(f"{path}: serve buckets sum to {buckets}, "
                     f"want jobs={doc['jobs']}")
            check_serve_extensions(path, doc)
        else:
            check_solver_cases(path, doc)
    if kind == "job":
        if doc["status"] not in JOB_STATUSES:
            fail(f"{path}: job status {doc['status']!r}, "
                 f"want one of {JOB_STATUSES}")
        if not isinstance(doc["diagnostics"], list):
            fail(f"{path}: job diagnostics is not a list")
    if kind == "metrics":
        for name, value in doc["counters"].items():
            if not isinstance(value, int):
                fail(f"{path}: counter {name!r} is not an integer")
        for name, hist in doc["histograms"].items():
            if hist["count"] < 1 or sum(hist["buckets"]) != hist["count"]:
                fail(f"{path}: histogram {name!r} buckets do not sum to count")
    print(f"{path}: valid feio.report/1 kind={kind}")


def check_solver_cases(path, doc):
    """Per-case shape of the feio.bench.solver/4 payload."""
    for case in doc["cases"]:
        name = case.get("name")
        for key in SOLVER_CASE_KEYS:
            if key not in case:
                fail(f"{path}: solver case {name!r} is missing {key!r}")
        if case["ordering"] not in SOLVER_ORDERINGS:
            fail(f"{path}: solver case {name!r} ordering "
                 f"{case['ordering']!r}, want one of {SOLVER_ORDERINGS}")
        if case["band_bytes"] < 0 or case["skyline_bytes"] < 0:
            fail(f"{path}: solver case {name!r} has negative byte counts")
        if case["skipped"]:
            if case["ms"] != 0:
                fail(f"{path}: skipped solver case {name!r} carries a timing")
        elif not case["identical"]:
            fail(f"{path}: solver case {name!r} not identical")


def check_serve_extensions(path, doc):
    """Cache/window/ablation extensions of feio.bench.serve/1."""
    cache = doc["cache"]
    if not isinstance(cache, dict):
        fail(f"{path}: serve 'cache' is not an object")
    for key in SERVE_CACHE_KEYS:
        if key not in cache:
            fail(f"{path}: serve cache block is missing {key!r}")
    for key in ("format_hit_rate", "factor_hit_rate"):
        if not 0.0 <= cache[key] <= 1.0:
            fail(f"{path}: serve cache {key}={cache[key]} outside [0, 1]")
    for side in ("format", "factor"):
        if not isinstance(cache[f"{side}_enabled"], bool):
            fail(f"{path}: serve cache {side}_enabled is not a boolean")
        if not cache[f"{side}_enabled"]:
            busy = (cache[f"{side}_hits"] + cache[f"{side}_misses"]
                    + cache[f"{side}_hit_rate"])
            if side == "factor":
                busy += cache["factor_load_reuses"]
                busy += cache["factor_ttl_evictions"]
            if busy != 0:
                fail(f"{path}: serve {side} cache is disabled but reports "
                     "non-zero traffic")
    if cache["factor_load_reuses"] > cache["factor_hits"]:
        fail(f"{path}: factor_load_reuses={cache['factor_load_reuses']} "
             f"exceeds factor_hits={cache['factor_hits']}")
    tenants = doc["tenants"]
    if not isinstance(tenants, list):
        fail(f"{path}: serve 'tenants' is not a list")
    if doc["jobs"] > 0 and not tenants:
        fail(f"{path}: serve ran {doc['jobs']} jobs but lists no tenants")
    for t in tenants:
        for key in SERVE_TENANT_KEYS:
            if key not in t:
                fail(f"{path}: serve tenant entry is missing {key!r}: {t}")
        buckets = (t["ok"] + t["rejected"] + t["timed_out"] + t["faulted"]
                   + t["errors"])
        if buckets != t["jobs"]:
            fail(f"{path}: tenant {t['tenant']!r} buckets sum to {buckets}, "
                 f"want jobs={t['jobs']}")
        if not 0.0 <= t["share"] <= 1.0:
            fail(f"{path}: tenant {t['tenant']!r} share={t['share']} "
                 "outside [0, 1]")
        if t["weight"] < 1:
            fail(f"{path}: tenant {t['tenant']!r} weight={t['weight']} < 1")
    tenant_total = sum(t["jobs"] for t in tenants)
    if tenant_total != doc["jobs"]:
        fail(f"{path}: tenant jobs sum to {tenant_total}, "
             f"want jobs={doc['jobs']} (every job lands in one tenant)")
    windows = doc["windows"]
    if not isinstance(windows, list):
        fail(f"{path}: serve 'windows' is not a list")
    for i, win in enumerate(windows):
        for key in SERVE_WINDOW_KEYS:
            if key not in win:
                fail(f"{path}: serve window {i} is missing {key!r}")
        if win["jobs"] < 1:
            fail(f"{path}: serve window {i} has jobs={win['jobs']}")
        shares = win["tenant_shares"]
        if not isinstance(shares, dict):
            fail(f"{path}: serve window {i} tenant_shares is not an object")
        for name, share in shares.items():
            if not 0.0 <= share <= 1.0:
                fail(f"{path}: serve window {i} tenant {name!r} "
                     f"share={share} outside [0, 1]")
    if windows:
        total = sum(w["jobs"] for w in windows)
        if total != doc["jobs"]:
            fail(f"{path}: serve windows cover {total} jobs, "
                 f"want jobs={doc['jobs']}")
    if "ablation" in doc:
        ablation = doc["ablation"]
        for key in SERVE_ABLATION_KEYS:
            if key not in ablation:
                fail(f"{path}: serve ablation block is missing {key!r}")
        if ablation["jobs_per_sec"] > 0:
            want = doc["jobs_per_sec"] / ablation["jobs_per_sec"]
            if abs(ablation["speedup"] - want) > 0.05 * max(want, 1.0):
                fail(f"{path}: ablation speedup {ablation['speedup']} "
                     f"inconsistent with throughputs (want ~{want:.3f})")


def check_trace(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: no traceEvents")
    stacks = {}
    for e in events:
        for key in ("name", "ph", "pid", "tid", "ts"):
            if key not in e:
                fail(f"{path}: event missing {key!r}: {e}")
        if e["ph"] == "B":
            stacks.setdefault(e["tid"], []).append(e["name"])
        elif e["ph"] == "E":
            stack = stacks.get(e["tid"], [])
            if not stack or stack.pop() != e["name"]:
                fail(f"{path}: unbalanced E event {e['name']!r} "
                     f"on tid {e['tid']}")
        else:
            fail(f"{path}: unexpected phase {e['ph']!r}")
    for tid, stack in stacks.items():
        if stack:
            fail(f"{path}: {len(stack)} unclosed span(s) on tid {tid}: "
                 f"{stack}")
    print(f"{path}: valid trace, {len(events)} events, "
          f"{len(stacks)} thread(s)")


def main(argv):
    if len(argv) < 3:
        fail(__doc__.strip())
    mode, path = argv[1], argv[2]
    if mode == "report":
        want_kind = None
        if len(argv) >= 5 and argv[3] == "--kind":
            want_kind = argv[4]
        check_report(path, want_kind)
    elif mode == "trace":
        check_trace(path)
    else:
        fail(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv)
