#!/usr/bin/env python3
"""Layer benchmark for the Sigil stack.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. It copies dune-project, lib/ and
perfbench/layerbench/ into .bench_build/src and builds layerbench.exe there
with dune, then runs one-pass processes of the workload in a closed loop for
about S seconds: one process at a time, one domain, no pool. It checks every
output and prints the metrics by name and unit. The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics from untraced passes. --trace 1
pairs untraced and traced passes and reports the per-layer metrics.
perfbench/README.md explains every metric and workload.

    python3 perfbench/run.py --write-references

reruns the fixed-input jobs once and rewrites perfbench/references.json.
Do that only for a change that is meant to alter the program's outputs.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("paper-paired", "events-critpath", "reuse-synth")
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
SRC_DIR = os.path.join(BUILD_DIR, "src")
PROGRAM = os.path.join("perfbench", "layerbench")
EXE = os.path.join(SRC_DIR, "_build", "default", PROGRAM, "layerbench.exe")
LEDGER = os.path.join(WORK_DIR, "counts.json")
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

MIN_PASSES = 3  # untraced passes per run, however short --seconds is
SETUP_PROBES_PER_PASS = 10  # processes that stop at the first guest event
RUN_LIMIT_S = 165  # a run ends within 180 s, its no-op build included

# The gate: end-to-end metrics in the JSON result, each with its bound in
# BENCHMARK.json. They hold steady across runs and seeds.
END_TO_END = [
    ("peak_rss_mb", "MB"),
    ("alloc_words_per_instr", "words/instr"),
    ("setup_s", "s"),
]

# Printed with the gate but kept out of the JSON result. On a shared host,
# pass times swing by a quarter within seconds and drift for minutes, so
# run medians of wall_s and guest_mips spread wider than any allowed bound.
# trace_bytes and failed_frac read 0 on most runs, and no bound can be a
# share of 0; failed_frac is the JSON's "failed" over "attempted".
END_TO_END_PRINTED_ONLY = [
    ("wall_s", "s"),
    ("guest_mips", "1/us"),
    ("trace_bytes", "B"),
]

# (name, unit, should move, json): per-layer metrics of a traced run. The
# JSON result carries the ones marked; a layer's time appears there as a
# share of the traced pass when the layer is absent from some workload, so
# no time in the result is a constant 0.
PER_LAYER = [
    ("dbi.instr", "count", "none: must be identical", True),
    ("dbi.events", "count", "none: must be identical", True),
    ("dbi.native_s", "s", "wall_s (small share)", True),
    ("dbi.self_s", "s", "wall_s", True),
    ("callgrind.self_s", "s", "wall_s, guest_mips", False),
    ("callgrind.self_frac", "frac", "wall_s, guest_mips", True),
    ("callgrind.calls", "count", "wall_s, guest_mips", True),
    ("callgrind.alloc_words", "words", "alloc_words_per_instr", True),
    ("callgrind.i1_miss", "count", "none: simulated stats stay identical", True),
    ("callgrind.d1_miss", "count", "none: simulated stats stay identical", True),
    ("callgrind.ll_miss", "count", "none: simulated stats stay identical", True),
    ("sigil.self_s", "s", "wall_s", True),
    ("sigil.calls", "count", "wall_s", True),
    ("sigil.alloc_words", "words", "alloc_words_per_instr", True),
    ("sigil.shadow_chunk_allocs", "count", "peak_rss_mb, wall_s", True),
    ("sigil.shadow_evictions", "count", "peak_rss_mb, wall_s", True),
    ("sigil.shadow_range_runs", "count", "peak_rss_mb, wall_s", True),
    ("sigil.shadow_footprint_peak_bytes", "B", "peak_rss_mb, wall_s", True),
    ("sigil.line_lines", "count", "peak_rss_mb, wall_s", True),
    ("sigil.shadow_evict_ratio", "frac", "peak_rss_mb against wall_s", True),
    ("tracefile.writer_self_s", "s", "trace_bytes, wall_s", False),
    ("tracefile.writer_self_frac", "frac", "trace_bytes, wall_s", True),
    ("tracefile.writer_entries", "count", "trace_bytes, wall_s", True),
    ("tracefile.writer_chunks", "count", "trace_bytes, wall_s", True),
    ("tracefile.writer_peak_buffer_bytes", "B", "trace_bytes, wall_s", True),
    ("tracefile.reader_s", "s", "wall_s", False),
    ("tracefile.reader_frac", "frac", "wall_s", True),
    ("tracefile.reader_entries_per_s", "1/s", "wall_s", True),
    ("analysis.critpath_s", "s", "wall_s, peak_rss_mb", False),
    ("analysis.critpath_frac", "frac", "wall_s, peak_rss_mb", True),
    ("analysis.critpath_nodes", "count", "wall_s, peak_rss_mb", True),
    ("analysis.critpath_rss_mb", "MB", "peak_rss_mb", True),
    ("analysis.partition_s", "s", "wall_s (expected about 0)", False),
    ("analysis.partition_frac", "frac", "wall_s (expected about 0)", True),
    ("analysis.reuse_report_s", "s", "wall_s", False),
    ("analysis.reuse_report_frac", "frac", "wall_s", True),
    ("trace.overhead_frac", "frac", "whether the traced numbers can be trusted", True),
]

# A layer is absent from a workload when its work count is 0 there.
ABSENT = [
    ("callgrind.", "callgrind.calls", "Callgrind is not attached: Sigil runs alone"),
    ("tracefile.writer", "tracefile.writer_entries", "no trace is written: events are off"),
    ("tracefile.reader", "tracefile.reader_entries", "no trace is read back"),
    ("analysis.critpath", "analysis.critpath_nodes", "no critical-path analysis runs"),
    ("analysis.partition", "partition_spans", "no partitioning runs"),
    ("analysis.reuse_report", "report_spans", "no reuse report runs"),
    ("sigil.line_lines", "sigil.line_lines", "no run is in line mode"),
]


def fail_setup(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Build layerbench.exe in a copy of the sources. lib/'s libraries are
    private to the root dune project, so the program builds inside a copy
    of that project; the root build itself never compiles it."""
    for need in ("dune-project", "lib", os.path.join(PROGRAM, "dune")):
        if not os.path.exists(need):
            fail_setup(f"{need} is missing: run from the root of a source checkout")
    os.makedirs(SRC_DIR, exist_ok=True)
    for tree in ("lib", PROGRAM):
        shutil.rmtree(os.path.join(SRC_DIR, tree), ignore_errors=True)
        shutil.copytree(tree, os.path.join(SRC_DIR, tree))
    shutil.copy2("dune-project", SRC_DIR)
    cmd = ["dune", "build", "--root", SRC_DIR, "./" + PROGRAM + "/layerbench.exe"]
    # dune's shared cache lives outside the checkout; the build stays inside
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                              env=env)
    except OSError as e:
        fail_setup(f"cannot run dune: {e}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail_setup("build failed")
    os.makedirs(WORK_DIR, exist_ok=True)


def median(xs):
    return statistics.median(xs) if xs else 0.0


class Run:
    """One benchmark run: its passes, operation counts and failure notes."""

    def __init__(self, workload, seed, refs):
        self.workload = workload
        self.seed = seed
        self.refs = refs
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def elapsed(self):
        return time.monotonic() - self.start

    def failure(self, msg):
        self.failed += 1
        self.notes.append(msg)

    def spawn(self, mode):
        """Run one pass in a fresh process and return its result, with the
        monotonic time of the spawn added; None when the process failed."""
        cmd = [EXE, "--workload", self.workload, "--seed", str(self.seed), "--mode", mode,
               "--work", WORK_DIR]
        spawn_ns = time.monotonic_ns()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            self.attempted += 1
            self.failure(f"{mode} pass did not finish within the run's time limit")
            return None
        if proc.returncode != 0:
            self.attempted += 1
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.failure(f"{mode} pass exited with code {proc.returncode}: {tail[0]}")
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["spawn_ns"] = spawn_ns
        return result

    def check(self, p):
        """Count the pass's jobs and fail each one that raised, failed its
        own check, or differs from the stored reference."""
        self.attempted += p["jobs"]
        bad = {}
        for msg in p["failures"]:
            bad.setdefault(msg.split(":")[0], msg)
        for job, out in p["outputs"].items():
            ref = self.refs.get(job)
            if ref is None:
                if not job.startswith("synth-"):
                    bad.setdefault(job, f"{job}: no stored reference")
                continue
            for key, want in ref.items():
                if out.get(key) != want:
                    bad.setdefault(job, f"{job}: {key} is {out.get(key)!r}, reference {want!r}")
                    break
        for msg in bad.values():
            self.failure(msg)

    def check_repeats(self, passes):
        """Deterministic counts must repeat exactly in every untraced pass
        of the run, and in every run made with the same build: the ledger
        in WORK_DIR keeps the first run's counts, keyed by seed only where
        the inputs depend on it. Any drift names the first count that
        differs."""
        self.attempted += 1
        first = det_counts(passes[0])
        for p in passes[1:]:
            diff = first_diff(first, det_counts(p))
            if diff:
                self.failure(f"untraced passes: {diff}")
                return
        with open(EXE, "rb") as f:
            build = hashlib.md5(f.read()).hexdigest()
        try:
            with open(LEDGER) as f:
                ledger = json.load(f)
        except (OSError, ValueError):
            ledger = {}
        if ledger.get("build") != build:
            ledger = {"build": build, "counts": {}}
        key = self.workload + (f" seed {self.seed}" if passes[0]["seeded"] else "")
        earlier = ledger["counts"].setdefault(key, first)
        diff = first_diff(earlier, first)
        if diff:
            self.failure(f"{key}, against an earlier run: {diff}")
            return
        with open(LEDGER + ".tmp", "w") as f:
            json.dump(ledger, f, indent=1)
        os.replace(LEDGER + ".tmp", LEDGER)

    def loop(self, seconds, body, minimum):
        """Call body() until the next call would end after `seconds`."""
        n = 0
        while True:
            if not body():
                break
            n += 1
            took = self.elapsed() / n
            if n >= minimum and self.elapsed() + took > seconds:
                break
            if self.elapsed() + took > RUN_LIMIT_S:
                break


def first_diff(a, b):
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            return f"{key} drifted from {a.get(key)} to {b.get(key)}"
    return None


def det_counts(p):
    d = dict(p["counters"])
    d["minor_words"] = p["minor_words"]
    d["guest_words"] = p["guest_words"]
    return d


def wall_s(p):
    return (p["end_ns"] - p["spawn_ns"]) / 1e9


def setup_s(p):
    return (p["first_event_ns"] - p["spawn_ns"]) / 1e9


def preconditions(run, passes):
    """What every result rests on, and whether it held."""
    pre = passes[0]["preconditions"] if passes else {}
    rec = {
        "host_cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "domains": pre.get("domains"),
        "pool": "none" if pre.get("pool") is False else "used",
        "collect_stats": "off" if all(p["preconditions"]["stats_off"] for p in passes) else "on",
        "per_byte_shadow":
            "off" if all(p["preconditions"]["per_byte_off"] for p in passes) else "on",
        "ocaml": pre.get("ocaml_version"),
        "flambda": pre.get("flambda"),
        "seed": run.seed,
    }
    failed = []
    if rec["domains"] != 1 or rec["pool"] != "none":
        failed.append("one domain, no pool")
    if rec["collect_stats"] != "off":
        failed.append("collect_stats off in untraced passes")
    if rec["per_byte_shadow"] != "off":
        failed.append("per_byte_shadow off in untraced passes")
    if not passes:
        failed.append("at least one untraced pass completed")
    return rec, failed


def fmt(x):
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def print_preconditions(rec, failed):
    print("preconditions: " + " ".join(f"{k}={v}" for k, v in rec.items()))
    print("preconditions held" if not failed else
          "precondition failed, numbers withheld: " + "; ".join(failed))


def untraced(run, seconds):
    passes = []
    probes = []

    def one():
        p = run.spawn("plain")
        if p is None:
            return False
        run.check(p)
        passes.append(p)
        # set-up probes after every pass, so they sample the whole run
        for _ in range(SETUP_PROBES_PER_PASS):
            probe = run.spawn("setup")
            if probe is None:
                return False
            probes.append(probe)
        return True

    run.loop(seconds, one, MIN_PASSES)
    if passes:
        run.check_repeats(passes)
    rec, failed = preconditions(run, passes)

    samples = {
        "wall_s": [wall_s(p) for p in passes],
        "guest_mips": [p["counters"]["dbi.instr"] / (p["guest_s"] * 1e6) for p in passes],
        "peak_rss_mb": [p["vmhwm_kb"] / 1024 for p in passes],
        "alloc_words_per_instr": [p["minor_words"] / p["counters"]["dbi.instr"] for p in passes],
        "setup_s": [setup_s(p) for p in passes + probes],
        "trace_bytes": [p["counters"].get("trace_bytes", 0) for p in passes],
    }
    print(f"perfbench: {run.workload}, seed {run.seed}: {len(passes)} untraced passes and "
          f"{len(probes)} set-up probes in {run.elapsed():.1f} s; closed loop, one process "
          "at a time, one domain, no pool")
    print_preconditions(rec, failed)
    print(f"{'metric':<24}{'median':>14}  {'unit':<12}samples  min .. max")
    for name, unit in END_TO_END_PRINTED_ONLY + END_TO_END:
        xs = samples[name]
        if failed:
            print(f"{name:<24}{'withheld':>14}  {unit}")
        elif xs:
            print(f"{name:<24}{fmt(median(xs)):>14}  {unit:<12}{len(xs):>7}  "
                  f"{fmt(min(xs))} .. {fmt(max(xs))}")
    frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"{'failed_frac':<24}{fmt(frac):>14}  {'frac':<12}{run.failed} of {run.attempted} "
          "operations")
    metrics = {} if failed or not passes else {
        name: {"value": median(samples[name]), "unit": unit} for name, unit in END_TO_END}
    return metrics, not failed


def layer_metrics(plain, traced, base):
    spans = traced["spans"]

    def span_s(stage):
        return sum(s["dur_s"] for s in spans if s["name"].startswith(stage + ":"))

    def spans_of(stage):
        return sum(1 for s in spans if s["name"].startswith(stage + ":"))

    c = traced["counters"]
    lay = traced["layers"]
    tw = wall_s(traced)
    has_cg = lay["callgrind"]["calls"] > 0
    above_sigil = plain["guest_words"] - base["measures"]["sigil_only_words"]
    reader_s = span_s("decode")
    m = {
        "dbi.instr": c["dbi.instr"],
        "dbi.events": c["dbi.events"],
        "dbi.native_s": base["measures"]["dbi.native_s"],
        "dbi.self_s": sum(s["self_s"] for s in spans if s["name"].startswith("guest_run:")),
        "callgrind.self_s": lay["callgrind"]["self_s"],
        "callgrind.calls": lay["callgrind"]["calls"],
        "callgrind.alloc_words": above_sigil if has_cg else 0.0,
        "sigil.self_s": lay["sigil"]["self_s"],
        "sigil.calls": lay["sigil"]["calls"],
        "sigil.alloc_words":
            base["measures"]["sigil_only_words"] - base["measures"]["native_words"],
        "tracefile.writer_self_s": lay["tracefile.writer"]["self_s"] + span_s("writer_close"),
        "tracefile.reader_s": reader_s,
        "tracefile.reader_entries": c.get("tracefile.reader_entries", 0),
        "tracefile.reader_entries_per_s":
            c.get("tracefile.reader_entries", 0) / reader_s if reader_s > 0 else 0.0,
        "analysis.critpath_s": span_s("analyse"),
        "analysis.critpath_rss_mb": traced["measures"].get("analysis.critpath_rss_mb", 0.0),
        "analysis.partition_s": span_s("partition"),
        "analysis.reuse_report_s": span_s("report"),
        "partition_spans": spans_of("partition"),
        "report_spans": spans_of("report"),
        "trace.overhead_frac": tw / wall_s(plain) - 1.0,
    }
    for key in ("callgrind.i1_miss", "callgrind.d1_miss", "callgrind.ll_miss",
                "sigil.shadow_chunk_allocs", "sigil.shadow_evictions", "sigil.shadow_range_runs",
                "sigil.shadow_footprint_peak_bytes", "sigil.line_lines",
                "tracefile.writer_entries", "tracefile.writer_chunks",
                "tracefile.writer_peak_buffer_bytes", "analysis.critpath_nodes"):
        m[key] = c.get(key, 0)
    allocs = m["sigil.shadow_chunk_allocs"]
    m["sigil.shadow_evict_ratio"] = m["sigil.shadow_evictions"] / allocs if allocs else 0.0
    for layer in ("callgrind.self", "tracefile.writer_self", "tracefile.reader",
                  "analysis.critpath", "analysis.partition", "analysis.reuse_report"):
        m[layer + "_frac"] = m[layer + "_s"] / tw
    return m


def traced_run(run, seconds):
    sets = []

    def one():
        order = ("plain", "traced") if len(sets) % 2 == 0 else ("traced", "plain")
        got = {mode: run.spawn(mode) for mode in order}
        base = run.spawn("baseline")
        if None in got.values() or base is None:
            return False
        plain, traced = got["plain"], got["traced"]
        run.check(plain)
        run.check(traced)
        run.attempted += 1
        if plain["outputs"] != traced["outputs"]:
            diff = sorted(k for k in plain["outputs"]
                          if plain["outputs"][k] != traced["outputs"].get(k))
            run.failure(f"traced outputs differ from untraced ones in {', '.join(diff)}")
        else:
            plain_c, traced_c = det_counts(plain), det_counts(traced)
            for key in sorted(plain["counters"]):
                if plain_c[key] != traced_c.get(key):
                    run.failure(f"traced run changed {key}: {plain_c[key]} vs {traced_c.get(key)}")
                    break
        sets.append((plain, traced, base))
        return True

    run.loop(seconds, one, 1)
    plains = [s[0] for s in sets]
    if plains:
        run.check_repeats(plains)
    rec, failed = preconditions(run, plains)
    print(f"perfbench: {run.workload}, seed {run.seed}: {len(sets)} set(s) of untraced, traced "
          f"and baseline passes in {run.elapsed():.1f} s; closed loop, one process at a time, "
          "one domain, no pool")
    print_preconditions(rec, failed)
    rows = [layer_metrics(*s) for s in sets]
    med = {k: median([r[k] for r in rows]) for k in rows[0]} if rows else {}
    absent = {}
    for prefix, work_key, why in ABSENT:
        if med and med.get(work_key, 0) == 0:
            absent[prefix] = why
    print(f"{'layer metric':<36}{'median':>14}  {'unit':<7}should move")
    for name, unit, moves, _ in PER_LAYER:
        why = next((w for p, w in absent.items() if name.startswith(p)), None)
        if failed:
            print(f"{name:<36}{'withheld':>14}")
        elif why:
            print(f"{name:<36}{'absent':>14}  {'':<7}{why}")
        elif med:
            print(f"{name:<36}{fmt(med[name]):>14}  {unit:<7}{moves}")
    print("wait time: none. One process, one domain and a closed loop: no layer waits on "
          "another, so no wait metric exists.")
    path = os.path.join(WORK_DIR, f"spans-{run.workload}-seed{run.seed}.json")
    with open(path, "w") as f:
        json.dump({"workload": run.workload, "preconditions": rec,
                   "sets": [{"untraced_wall_s": wall_s(p), "traced_wall_s": wall_s(t),
                             "spans": t["spans"], "layers": t["layers"]}
                            for p, t, _ in sets]}, f, indent=1)
    print(f"spans of the traced passes: {path}")
    metrics = {} if failed or not med else {
        name: {"value": med[name], "unit": unit}
        for name, unit, _, in_json in PER_LAYER if in_json}
    return metrics, not failed


def write_references():
    build()
    refs = {}
    for workload in WORKLOADS:
        run = Run(workload, 1, {})
        p = run.spawn("plain")
        if p is None or p["failures"]:
            fail_setup(f"{workload}: {run.notes or p['failures']}")
        refs[workload] = {job: out for job, out in p["outputs"].items()
                          if not job.startswith("synth-")}
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {REFERENCES}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-references", action="store_true")
    args = ap.parse_args()
    if args.write_references:
        write_references()
        return
    if args.workload is None:
        fail_setup("--workload is required")
    build()
    try:
        with open(REFERENCES) as f:
            refs = json.load(f)[args.workload]
    except (OSError, ValueError, KeyError) as e:
        fail_setup(f"cannot read the stored references: {e}")
    run = Run(args.workload, args.seed, refs)
    metrics, held = (traced_run if args.trace else untraced)(run, args.seconds)
    for note in run.notes:
        print("FAILED: " + note)
    print(json.dumps({
        "correct": held and run.failed == 0 and bool(metrics),
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
