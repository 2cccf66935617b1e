#!/usr/bin/env python3
"""Build and run the dramstress benchmark (benchmark/README.md).

    python3 benchmark/run.py [--workload W] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke] [--out FILE]

Builds the repository's libraries (Release) and both benchmark binaries
under build-bench/, runs one workload (or all three) in its own process,
checks the outputs, prints one `metric workload value unit` line per
metric and, last, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured by the
untraced dsbench; with --trace 1 the per-layer ones, measured by
dsbench_traced.  Every run also writes its raw samples and checks to a
results file, which compare.py reads.  The exit code is non-zero when any
check fails.

Runs never delete what they write (benchmark/README.md): remove
build-bench/work/ between benchmark sessions.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-bench")
WORKLOADS = ["fig2_planes", "campaign_cold", "daemon_warm"]
RUN_TIMEOUT_S = 170
# Compilers and the library keep temporary files under TMPDIR: point it
# inside the checkout, where everything a run writes belongs.
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))

# (name, unit) of every end-to-end metric, each computed from one run.
END_TO_END = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metrics: (name, unit).  The layer tables of the traced run
# group boundaries under the metric prefix (boundaries.def).
LAYER_GROUPS = [
    "numeric.lu_factor", "numeric.lu_refactor", "numeric.tri_solve",
    "circuit.newton", "circuit.transient", "dram.column_run",
    "analysis.planes", "analysis.vsa", "analysis.br_search",
    "stress.probe", "stress.optimize", "campaign.plan",
    "campaign.unit_compute", "campaign.cache_lookup", "campaign.cache_store",
    "campaign.journal_append", "service.parse", "service.submit",
]
NO_CALLS = {"campaign.plan"}  # self time only
PER_LAYER = []
for _g in LAYER_GROUPS:
    if _g not in NO_CALLS:
        PER_LAYER.append((_g + ".calls", "count"))
    PER_LAYER.append((_g + ".self_s", "s"))
PER_LAYER += [
    ("circuit.newton_iters", "count"),
    ("circuit.newton_nonconverged", "count"),
    ("circuit.step_accept_ratio", "ratio"),
    ("dram.transients", "count"),
    ("analysis.vsa_cache_hit_ratio", "ratio"),
    ("analysis.br_search.transients", "count"),
    ("analysis.surrogate_fallback_ratio", "ratio"),
    ("campaign.cache_hit_ratio", "ratio"),
    ("campaign.retries", "count"),
    ("service.polls_per_request", "polls/req"),
    ("service.dedup", "count"),
    ("util.pool_idle_s", "s"),
    ("bench.unattributed_s", "s"),
    ("bench.capacity_s", "s"),
]

# The workload where each layer does the most work: a traced run that
# reads calls = 0 there flags the boundary as not reached.
EXPECTED_BUSY = {
    "fig2_planes": ["numeric.lu_factor", "numeric.lu_refactor",
                    "numeric.tri_solve", "circuit.newton",
                    "circuit.transient", "dram.column_run",
                    "analysis.planes", "analysis.vsa"],
    "campaign_cold": ["analysis.br_search", "stress.probe",
                      "stress.optimize", "campaign.unit_compute",
                      "campaign.cache_store", "campaign.journal_append"],
    "daemon_warm": ["campaign.cache_lookup", "service.parse",
                    "service.submit"],
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_logged(cmd, logfile):
    with open(logfile, "a") as f:
        f.write("$ " + " ".join(cmd) + "\n")
        f.flush()
        return subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              env=ENV).returncode


def build():
    """Configure (once) and build the libraries and both binaries."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError("no dramstress sources next to benchmark/ in "
                           + ROOT)
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    repo, bench = os.path.join(BUILD, "repo"), os.path.join(BUILD, "bench")
    steps = []
    if not os.path.isfile(os.path.join(repo, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", repo,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", repo, "-j", jobs, "--target",
                  "ds_service", "ds_core", "ds_memtest"])
    if not os.path.isfile(os.path.join(bench, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bench,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DDRAMSTRESS_SOURCE_DIR=" + ROOT,
                      "-DDRAMSTRESS_BUILD_DIR=" + repo])
    steps.append(["cmake", "--build", bench, "-j", jobs])
    for cmd in steps:
        if run_logged(cmd, logfile) != 0:
            with open(logfile) as f:
                tail = f.read()[-4000:]
            raise RuntimeError("build step failed: " + " ".join(cmd)
                               + "\n" + tail)
    return bench


def run_dsbench(binary, workload, args):
    """Run one workload in its own process; returns its parsed JSON.

    The work directory is left in place.  Deleting a daemon run's tens of
    thousands of files slowed the file operations of the next daemon runs
    two to four times for minutes on an ext4 mounted with `discard`, which
    made daemon_warm measure the previous run's clean-up."""
    work = os.path.join(BUILD, "work", "%s-%d-%d" % (
        workload, os.getpid(), time.time_ns()))
    os.makedirs(work)
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    cmd = [binary, "--workload=" + workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds,
           "--specs=" + os.path.join(HERE, "specs")]
    if args.smoke:
        cmd.append("--smoke")
    p = subprocess.run(cmd, cwd=work, capture_output=True, text=True,
                       timeout=RUN_TIMEOUT_S, env=ENV)
    if p.returncode != 0 or not p.stdout.strip():
        raise RuntimeError("%s exited %d: %s" % (os.path.basename(binary),
                                                 p.returncode,
                                                 p.stderr.strip()[-2000:]))
    return json.loads(p.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 100])."""
    s = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(s)))
    return s[rank - 1]


def tail(values):
    """The 99th percentile when at least 10 samples lie beyond it; with
    fewer operations, the highest percentile that keeps 10 beyond it, and
    the median below 20 operations.  The maximum of a handful of runs
    would measure the noisiest sample, not the workload."""
    q = min(99.0, 100.0 * (1.0 - 10.0 / len(values)))
    return percentile(values, q) if q > 50.0 else statistics.median(values)


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(raw):
    ops = raw["op_ms"]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "p50_ms": statistics.median(ops),
        "p99_ms": tail(ops),
        "ops_per_s": len(ops) / raw["measure_s"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def merge_layers(tables):
    """One layer table out of the tables of several measured phases."""
    merged = {"phase_s": 0.0, "present_s": 0.0, "wait_s": 0.0,
              "skipped_frames": max(t["skipped_frames"] for t in tables)}
    boundaries = {}
    for t in tables:
        for k in ("phase_s", "present_s", "wait_s"):
            merged[k] += t[k]
        for b in t["boundaries"]:
            mb = boundaries.setdefault(b["name"], dict(b, parents={}))
            for p in b["parents"]:
                mp = mb["parents"].setdefault(p["parent"], {
                    "parent": p["parent"], "calls": 0, "incl_s": 0.0,
                    "self_s": 0.0, "transients": 0})
                for k in ("calls", "incl_s", "self_s", "transients"):
                    mp[k] += p[k]
    merged["boundaries"] = [dict(b, parents=list(b["parents"].values()))
                            for b in boundaries.values()]
    return merged


def per_layer(layers, counters, polls_per_request, threads):
    group_of = {b["name"]: b["group"] for b in layers["boundaries"]}
    m = {}
    for g in LAYER_GROUPS:
        m[g + ".calls"] = 0
        m[g + ".self_s"] = 0.0
    m["analysis.br_search.transients"] = 0
    for b in layers["boundaries"]:
        if b["wait"]:
            continue
        g = b["group"]
        for p in b["parents"]:
            m[g + ".self_s"] += p["self_s"]
            # A call counts once per entry into the layer, not again for
            # each nested boundary of the same layer.
            if group_of.get(p["parent"]) != g:
                m[g + ".calls"] += int(p["calls"])
                if g == "analysis.br_search":
                    m[g + ".transients"] += int(p["transients"])
    for g in NO_CALLS:
        del m[g + ".calls"]
    c = counters.get
    steps = c("step.accepted", 0) + c("step.rejected_lte", 0) + \
        c("step.rejected_newton", 0)
    cached = c("campaign.unit_cached", 0) + c("scheduler.unit_cached", 0)
    done = c("campaign.unit_done", 0) + c("scheduler.unit_done", 0)
    m.update({
        "circuit.newton_iters": c("newton.iterations", 0),
        "circuit.newton_nonconverged": c("newton.nonconverged", 0),
        "circuit.step_accept_ratio": ratio(c("step.accepted", 0), steps),
        "dram.transients": c("sim.transients", 0),
        "analysis.vsa_cache_hit_ratio": ratio(
            c("vsa_cache.hit", 0),
            c("vsa_cache.hit", 0) + c("vsa_cache.miss", 0)),
        "analysis.surrogate_fallback_ratio": ratio(
            c("surrogate.fallback", 0), m["analysis.br_search.calls"]),
        "campaign.cache_hit_ratio": ratio(cached, cached + done),
        "campaign.retries": c("campaign.unit_retried", 0),
        "service.polls_per_request": polls_per_request,
        "service.dedup": c("scheduler.unit_deduped", 0),
    })
    capacity = threads * layers["phase_s"]
    busy = layers["present_s"] - layers["wait_s"]
    layer_self = sum(m[g + ".self_s"] for g in LAYER_GROUPS)
    m["bench.capacity_s"] = capacity
    m["util.pool_idle_s"] = capacity - busy
    m["bench.unattributed_s"] = busy - layer_self
    return m


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)


def reference_failures(raw, ref):
    """Border resistances against the seed code."""
    section = ref["smoke" if raw["smoke"] else "full"]
    tol = ref["br_tolerance_decades"]
    out = []
    for key, br in raw["brs"].items():
        if key not in section["brs"]:
            out.append("%s: no reference value" % key)
            continue
        want = section["brs"][key]
        if (br is None) != (want is None):
            out.append("%s: border %s, reference %s" % (key, br, want))
        elif br is not None:
            drift = abs(math.log10(br / want))
            if drift > tol:
                out.append("%s: border drifted %.4f decades (%g vs %g)"
                           % (key, drift, br, want))
    return out


def results_path(workload, args, trace):
    name = "%s-seed%d-trace%d%s.json" % (workload, args.seed, trace,
                                         "-smoke" if args.smoke else "")
    return os.path.join(BUILD, "results", name)


def run_workload(binaries, workload, args, trace, ref):
    """One workload in one process; returns the results record."""
    started = time.time()
    raw = run_dsbench(binaries[trace], workload, args)
    failures = list(raw["failures"])
    failed = raw["failed"]
    drift = reference_failures(raw, ref)
    failures += drift
    failed += len(drift)
    if raw["env"]["batch"] != 0:
        failures.append("engine batch %d: the scalar engine is the "
                        "benchmarked default" % raw["env"]["batch"])
        failed += 1
    rec = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "trace": trace, "started_at": started,
        "raw": raw, "end_to_end": end_to_end(raw), "flags": [],
    }
    if trace:
        layers = merge_layers(raw["layers"])
        rec["per_layer"] = per_layer(layers, raw["counters"],
                                     raw["polls_per_request"],
                                     raw["env"]["threads"])
        for g in EXPECTED_BUSY[workload]:
            if rec["per_layer"].get(g + ".calls", 1) == 0:
                rec["flags"].append("%s not reached on %s" % (g, workload))
        if layers["skipped_frames"]:
            rec["flags"].append("%d frames nested too deep to record"
                                % layers["skipped_frames"])
        # Same seed, untraced, same checkout: outputs must be identical.
        try:
            with open(results_path(workload, args, 0)) as f:
                plain = json.load(f)
        except (OSError, ValueError):
            plain = None
        if plain is not None:
            if plain["raw"]["digest"] != raw["digest"]:
                failures.append("traced outputs differ from the untraced "
                                "run of the same seed")
                failed += 1
            rec["trace_overhead"] = (rec["end_to_end"]["p50_ms"]
                                     / plain["end_to_end"]["p50_ms"])
    rec["failures"] = failures
    rec["attempted"] = raw["attempted"]
    # Several checks can fail on one operation; count it once.
    rec["failed"] = min(failed, raw["attempted"])
    rec["correct"] = failed == 0
    return rec


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="shrunk inputs; runs both binaries and checks that "
                         "every metric is emitted")
    ap.add_argument("--bin-dir", help="use binaries built here; skip the build")
    ap.add_argument("--out", help="also write the results file here (one "
                    "workload, not with --smoke)")
    args = ap.parse_args()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.out and (len(workloads) != 1 or args.smoke):
        ap.error("--out needs --workload and no --smoke")

    try:
        bin_dir = args.bin_dir or build()
        ref = load_reference()
    except (RuntimeError, OSError, ValueError) as e:
        log("run.py: " + str(e))
        return 2
    binaries = [os.path.join(bin_dir, "dsbench"),
                os.path.join(bin_dir, "dsbench_traced")]
    # Smoke runs both binaries, untraced first, so the traced run can be
    # checked against it.
    traces = [0, 1] if args.smoke else [args.trace]

    records = []
    try:
        for w in workloads:
            for t in traces:
                rec = run_workload(binaries, w, args, t, ref)
                # The default path always gets a copy: a traced run finds
                # the untraced run of its seed there.
                for path in filter(None, [results_path(w, args, t),
                                          args.out]):
                    os.makedirs(os.path.dirname(os.path.abspath(path)),
                                exist_ok=True)
                    with open(path, "w") as f:
                        json.dump(rec, f, indent=1)
                records.append(rec)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log("run.py: " + str(e))
        return 1

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for rec in records:
        names = PER_LAYER if rec["trace"] else END_TO_END
        values = rec["per_layer"] if rec["trace"] else rec["end_to_end"]
        for name, unit in names:
            print("%s %s %.6g %s" % (name, rec["workload"], values[name], unit))
            if len(records) == 1:
                summary["metrics"][name] = {"value": values[name],
                                            "unit": unit}
            else:
                summary["metrics"]["%s.%s.trace%d" % (
                    rec["workload"], name, rec["trace"])] = {
                        "value": values[name], "unit": unit}
        if "trace_overhead" in rec:
            print("trace_overhead %s %.4f ratio" % (rec["workload"],
                                                   rec["trace_overhead"]))
        for flag in rec["flags"]:
            log("FLAG: " + flag)
        for why in rec["failures"]:
            log("FAILED %s: %s" % (rec["workload"], why))
        summary["correct"] = summary["correct"] and rec["correct"]
        summary["attempted"] += rec["attempted"]
        summary["failed"] += rec["failed"]
    if args.smoke:
        missing = smoke_missing_metrics(records)
        for m in missing:
            log("FAILED smoke: %s" % m)
        if missing:
            summary["correct"] = False
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def smoke_missing_metrics(records):
    """Every metric BENCHMARK.json names must be emitted by each run."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        return ["cannot read BENCHMARK.json: %s" % e]
    missing = []
    for rec in records:
        want = spec["per_layer"] if rec["trace"] else spec["end_to_end"]
        have = rec["per_layer"] if rec["trace"] else rec["end_to_end"]
        for m in want:
            if m["name"] not in have:
                missing.append("%s (trace %d) does not emit %s"
                               % (rec["workload"], rec["trace"], m["name"]))
    return missing


if __name__ == "__main__":
    sys.exit(main())
