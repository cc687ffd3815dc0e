#!/usr/bin/env python3
"""Host-time benchmark of the Penelope reproduction.

Runs one workload through the shipped ``penelope-bench`` binaries, checks
every output against pinned digests, and prints every metric by name and
unit; the last line of stdout is one JSON object::

    python3 perfbench/run.py --workload repro_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The script builds the binaries and the
in-process probe (``perfbench/probe``) into ``$CARGO_TARGET_DIR`` (default
``.bench_build``) and keeps its scratch files there.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` is the traced
run: it alternates untraced and traced repetitions (the traced ones add
``--stream`` and, where the workload has no report yet, ``--json``), runs
the probe, and reports the per-layer metrics. ``--pin`` re-records
``pins.json`` from the current build. See ``perfbench/README.md``.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "pins.json")
PROBE_MANIFEST = os.path.join(HERE, "probe", "Cargo.toml")

# The report keys `validate_report` treats as wall time; stripped (at any
# depth) before a report is digested.
WALL_KEYS = {"wall_seconds", "cycles_per_sec", "uops_per_sec"}

NETLIST_VECTORS = 100_000
AGING_FLEET = 1_000_000
CHECKPOINT_FLEET = 100_000
# Netlist seeds whose stdout digest is pinned; other seeds are checked
# against a --jobs 2 reference run made at the start of the run.
PINNED_NETLIST_SEEDS = range(64)

SETUP_PROBES = 25  # launches per leg for setup_s (median)
LEG_TIMEOUT_S = 120


class Leg:
    """One binary invocation of a workload."""

    def __init__(self, key, binary, args, jobs, report=False, traced_report=True,
                 journal=None, fleet_size=0, vectors=0):
        self.key = key
        self.binary = binary
        self.args = args
        self.jobs = jobs
        self.report = report  # writes --json in the untraced run too
        self.traced_report = traced_report  # writes --json in the traced run
        self.journal = journal  # None, "fresh" or "resume"
        self.fleet_size = fleet_size
        self.vectors = vectors


def workload_legs(name, seed):
    if name == "repro_sweep":
        return [Leg("table3", "table3", ["--scale", "quick"], 1, report=True)]
    if name == "protected_long":
        # No --json even when traced: the recorder would wrap every hook
        # chain in telemetry, which this workload exists to keep off.
        return [Leg("efficiency", "efficiency", ["--scale", "standard"], 1,
                    traced_report=False)]
    if name == "aging_models":
        return [
            Leg("netlist", "netlist", ["--fixture", "multiplier", "--vectors",
                                       str(NETLIST_VECTORS), "--seed", str(seed)], 1,
                vectors=NETLIST_VECTORS),
            Leg("fleet", "fleet", ["--scale", "quick", "--fleet-size", str(AGING_FLEET)], 1,
                fleet_size=AGING_FLEET),
        ]
    if name == "checkpoint_fleet":
        args = ["--scale", "quick", "--fleet-size", str(CHECKPOINT_FLEET)]
        return [
            Leg("fleet", "fleet", args, 2, journal="fresh", fleet_size=CHECKPOINT_FLEET),
            Leg("fleet-resume", "fleet", args, 2, journal="resume", fleet_size=CHECKPOINT_FLEET),
        ]
    raise ValueError(name)


WORKLOADS = ["repro_sweep", "protected_long", "aging_models", "checkpoint_fleet"]
# Probe inputs per workload: the pipeline passes the workload simulates.
PROBE_ARGS = {
    "repro_sweep": ["--scale", "quick"],
    "protected_long": ["--scale", "standard"],
    "aging_models": ["--scale", "quick", "--fleet-profile"],
    "checkpoint_fleet": ["--scale", "quick", "--fleet-profile"],
}
# Seconds the probe spends timing; one standard-scale round takes ~1 s.
PROBE_BUDGET_S = {"repro_sweep": 3, "protected_long": 6, "aging_models": 3,
                  "checkpoint_fleet": 3}


# ------------------------------------------------------------ utilities

def sha256(data):
    return hashlib.sha256(data).hexdigest()


def strip_wall(value):
    if isinstance(value, dict):
        return {k: strip_wall(v) for k, v in value.items() if k not in WALL_KEYS}
    if isinstance(value, list):
        return [strip_wall(v) for v in value]
    return value


def report_digest(report):
    canonical = json.dumps(strip_wall(report), sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode())


def median(values):
    return statistics.median(values)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def percentile(values, p):
    """Nearest-rank percentile (values non-empty)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def read_jsonl(path):
    with open(path, "rb") as f:
        return [json.loads(line) for line in f if line.strip()]


def half(lines):
    """A journal's header plus the first half of its records."""
    return lines[:1 + (len(lines) - 1) // 2]


def journal_rewrite_bytes(lines, first):
    """Bytes the journal writer puts on disk from append `first` on: every
    append rewrites the whole file (lines joined by newlines, plus one)."""
    written, size = 0, 0
    for k, line in enumerate(lines, start=1):
        size += len(line) + 1
        if k >= first:
            written += size
    return written


class Failure(Exception):
    pass


# ------------------------------------------------------------ build

def build(target):
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        raise Failure("run from the root of a checkout (no Cargo.toml/crates here)")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "penelope-bench", "--bins"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", PROBE_MANIFEST],
    ):
        done = subprocess.run(cmd, env=env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        if done.returncode != 0:
            raise Failure("build failed: %s\n%s" % (" ".join(cmd),
                                                     done.stderr.decode(errors="replace")))


# ------------------------------------------------------------ running legs

class Runner:
    def __init__(self, workload, seed, target, work, pins):
        self.workload = workload
        self.seed = seed
        self.bin = os.path.join(target, "release")
        self.launcher = os.path.join(self.bin, "perfbench-launch")
        self.work = work
        self.pins = pins
        self.legs = workload_legs(workload, seed)
        self.journal = os.path.join(work, "journal.jsonl")
        self.half_journal = os.path.join(work, "half.jsonl")
        self.netlist_reference = None
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def argv(self, leg, extra=(), jobs=None):
        return ([os.path.join(self.bin, leg.binary)] + leg.args
                + ["--jobs", str(jobs or leg.jobs)] + list(extra))

    def spawn(self, argv, stdout, stderr):
        """Runs `argv` to completion through the launcher; returns its wall
        seconds, CPU seconds, peak resident set (KB) and exit code."""
        result_path = os.path.join(self.work, "launch.json")
        proc = subprocess.Popen([self.launcher, result_path] + argv, stdin=subprocess.DEVNULL,
                                stdout=stdout, stderr=stderr, cwd=self.work,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=LEG_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise Failure("%s timed out after %d s" % (os.path.basename(argv[0]),
                                                      LEG_TIMEOUT_S))
        if code != 0:
            raise Failure("launcher failed for %s" % os.path.basename(argv[0]))
        with open(result_path) as f:
            r = json.load(f)
        return {"wall": r["wall_s"], "cpu": r["user_s"] + r["sys_s"],
                "rss_kb": r["maxrss_kb"], "code": r["code"]}

    def journal_args(self, leg, path):
        if leg.journal == "fresh":
            return ["--checkpoint", path]
        if leg.journal == "resume":
            return ["--checkpoint", path, "--resume"]
        return []

    def truncate_journal(self):
        """Cuts the journal to its header plus the first half of its records,
        as a crash halfway through the sweep would leave it; returns the
        full journal's lines."""
        with open(self.journal, "rb") as f:
            lines = f.read().splitlines()
        data = b"\n".join(half(lines)) + b"\n"
        for path in (self.journal, self.half_journal):
            with open(path, "wb") as f:
                f.write(data)
        return lines

    def run_leg(self, leg, traced):
        """One execution of `leg`; returns its measurement dict."""
        out_path = os.path.join(self.work, leg.key + ".out")
        err_path = os.path.join(self.work, leg.key + ".err")
        report = os.path.join(self.work, leg.key + ".json")
        stream = os.path.join(self.work, leg.key + ".stream")
        extra = self.journal_args(leg, self.journal)
        wants_report = leg.report or (traced and leg.traced_report)
        if wants_report:
            extra += ["--json", report]
        if traced:
            extra += ["--stream", stream]
        for path in (report, stream):
            if os.path.exists(path):
                os.remove(path)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            result = self.spawn(self.argv(leg, extra), out, err)
        with open(out_path, "rb") as f:
            result.update(stdout=sha256(f.read()), report=None, events=None)
        if result["code"] != 0:
            with open(err_path, "rb") as f:
                tail = f.read()[-400:].decode(errors="replace")
            raise Failure("%s exited %d: %s" % (leg.key, result["code"], tail))
        if wants_report:
            with open(report) as f:
                result["report"] = json.load(f)
            if result["report"]["manifest"].get("status") != "ok":
                raise Failure("%s report status is not ok" % leg.key)
        if traced:
            result["events"] = read_jsonl(stream)
        return result

    def expected(self, leg, field):
        if leg.key == "netlist" and field == "stdout":
            pinned = self.pins["netlist_stdout_by_seed"].get(str(self.seed))
            return pinned or self.netlist_reference
        return self.pins["legs"]["%s/%s" % (self.workload, leg.key)][field]

    def check(self, leg, result, traced):
        if self.pins is None:
            return
        if result["stdout"] != self.expected(leg, "stdout"):
            raise Failure("%s stdout differs from its pinned digest" % leg.key)
        if leg.report and not traced:
            if report_digest(result["report"]) != self.expected(leg, "report"):
                raise Failure("%s report (wall keys stripped) differs from its pinned digest"
                              % leg.key)

    def run_rep(self, traced):
        """One execution of every leg of the workload. Returns the per-leg
        results, or None when the repetition failed (its timing is dropped)."""
        self.attempted += 1
        results = {}
        try:
            full_journal = None
            for leg in self.legs:
                if leg.journal == "fresh" and os.path.exists(self.journal):
                    os.remove(self.journal)
                if leg.journal == "resume":
                    full_journal = self.truncate_journal()
                result = self.run_leg(leg, traced)
                self.check(leg, result, traced)
                results[leg.key] = result
            if full_journal is not None:
                if results["fleet-resume"]["stdout"] != results["fleet"]["stdout"]:
                    raise Failure("resumed fleet stdout differs from the uninterrupted run")
                with open(self.journal, "rb") as f:
                    final = f.read().splitlines()
                results["journal"] = {
                    "final_bytes": sum(len(line) + 1 for line in final),
                    "written": journal_rewrite_bytes(full_journal, 1)
                    + journal_rewrite_bytes(final, len(half(full_journal)) + 1),
                }
        except Failure as failure:
            self.failed += 1
            self.failures.append(str(failure))
            print("FAILED: %s" % failure, file=sys.stderr)
            return None
        return results

    def make_netlist_reference(self):
        """For a seed with no pinned digest: the netlist stdout at --jobs 2,
        which the determinism contract makes byte-identical to --jobs 1."""
        if self.workload != "aging_models" or self.pins is None:
            return
        if str(self.seed) in self.pins["netlist_stdout_by_seed"]:
            return
        argv = self.argv(self.legs[0], jobs=2)
        out_path = os.path.join(self.work, "netlist-reference.out")
        with open(out_path, "wb") as out:
            code = self.spawn(argv, out, subprocess.DEVNULL)["code"]
        if code != 0:
            raise Failure("netlist reference run exited %d" % code)
        with open(out_path, "rb") as f:
            self.netlist_reference = sha256(f.read())

    # ---------------------------------------------------- setup probes

    def first_events(self, argv):
        """Launches `argv` streaming to a pipe and stops it at its first
        sweep cell; returns seconds from spawn to `run-start` and to the
        first `cell-start`.

        Only `run-start` is timed on this side of the pipe. The stretch from
        there to the first cell comes from the two events' own timestamps.
        Once the leg starts its first cell it keeps computing, and reading
        the event here could wait for the leg's CPU time slice."""
        started = time.perf_counter()
        proc = subprocess.Popen(argv + ["--stream", "-"], stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                cwd=self.work)
        run_start = cell_start = None
        try:
            while True:
                line = proc.stdout.readline()
                now = time.perf_counter() - started
                if not line:
                    break
                event = json.loads(line)
                if event["event"] == "run-start" and run_start is None:
                    run_start, armed = now, event["wall_seconds"]
                elif event["event"] == "cell-start" and run_start is not None:
                    cell_start = run_start + event["wall_seconds"] - armed
                    break
        finally:
            proc.kill()
            proc.stdout.close()
            proc.wait()
        if run_start is None or cell_start is None:
            raise Failure("%s never started a sweep cell" % os.path.basename(argv[0]))
        return run_start, cell_start

    def setup_probes(self):
        """Per leg: median time to run-start and to the first cell-start
        over SETUP_PROBES launches. Needs a half journal for the resume leg
        (left behind by run_rep)."""
        probe_journal = os.path.join(self.work, "probe.jsonl")
        probe_report = os.path.join(self.work, "probe.json")
        timings = {leg.key: ([], []) for leg in self.legs}
        for _ in range(SETUP_PROBES):
            for leg in self.legs:
                if leg.journal == "resume":
                    shutil.copyfile(self.half_journal, probe_journal)
                elif os.path.exists(probe_journal):
                    os.remove(probe_journal)
                extra = self.journal_args(leg, probe_journal)
                if leg.report:
                    extra += ["--json", probe_report]
                run_start, cell_start = self.first_events(self.argv(leg, extra))
                timings[leg.key][0].append(run_start)
                timings[leg.key][1].append(cell_start)
        return {key: (median(rs), median(cs)) for key, (rs, cs) in timings.items()}


# ------------------------------------------------------------ metrics

def rep_totals(runner, results):
    legs = runner.legs
    wall = sum(results[leg.key]["wall"] for leg in legs)
    uops = sum(runner.pins["legs"]["%s/%s" % (runner.workload, leg.key)]["uops"]
               for leg in legs)
    return {
        "wall_s": wall,
        "cpu_s": sum(results[leg.key]["cpu"] for leg in legs),
        "peak_rss_mb": max(results[leg.key]["rss_kb"] for leg in legs) / 1000.0,
        "sim_uops_per_s": uops / wall,
    }


def leg_extras(runner, results):
    """The workload-specific end-to-end figures of one untraced repetition."""
    out = {"vectors_per_s": 0.0, "instances_per_s": 0.0, "resume_s": 0.0, "journal_mb": 0.0}
    instances = instance_wall = 0.0
    for leg in runner.legs:
        r = results[leg.key]
        if leg.vectors:
            out["vectors_per_s"] = leg.vectors / r["wall"]
        if leg.journal == "resume":
            out["resume_s"] = r["wall"]
        elif leg.fleet_size:
            instances += leg.fleet_size
            instance_wall += r["wall"]
    if instances:
        out["instances_per_s"] = instances / instance_wall
    if "journal" in results:
        out["journal_mb"] = results["journal"]["final_bytes"] / 1e6
    return out


def stream_layers(leg, events):
    """par and journal figures from one leg's live event stream."""
    starts = {}
    cells = {}  # (sweep, cell) -> (start, end, wall, queue_wait, status)
    first_seen = {}
    appends = []
    for e in events:
        kind, t = e["event"], e["wall_seconds"]
        if "sweep" in e:
            first_seen.setdefault(e["sweep"], t)
        if kind == "cell-start":
            starts[(e["sweep"], e["cell"])] = (t, e["queue_wait_seconds"])
        elif kind == "cell-complete":
            start, wait = starts.get((e["sweep"], e["cell"]), (t, 0.0))
            cells[(e["sweep"], e["cell"])] = (start, t, e["cell_wall_seconds"], wait,
                                              e["status"])
        elif kind == "journal-append":
            appends.append(e["append_wall_seconds"])
    # A sweep is nested when it begins inside a cell of another sweep
    # (efficiency's fig6/fig8 sweeps run inside its cells); only top-level
    # sweeps count toward busy, wait and engine time.
    top = set()
    for sweep, t in first_seen.items():
        if not any(s != sweep and start <= t <= end
                   for (s, _), (start, end, _, _, _) in cells.items()):
            top.add(sweep)
    out = {"cells": len(cells), "busy": 0.0, "wait": 0.0, "engine": 0.0, "cell_walls": [],
           "appends": appends, "mc_cells": 0, "mc_done": 0}
    for sweep in top:
        mine = [c for (s, _), c in cells.items() if s == sweep]
        if not mine:
            continue
        busy = sum(c[2] for c in mine)
        span = max(c[1] for c in mine) - first_seen[sweep]
        out["busy"] += busy
        out["wait"] += sum(c[3] for c in mine)
        out["engine"] += span - busy / min(leg.jobs, len(mine))
        out["cell_walls"] += [c[2] for c in mine]
        if sweep == "fleet:mc":
            out["mc_cells"] += len(mine)
            out["mc_done"] += sum(1 for c in mine if c[4] == "ok")
    return out


def span_wall(report, name):
    return sum(s["wall_seconds"] for s in report.get("spans", []) if s["name"] == name)


def traced_layers(runner, results):
    """Per-layer figures from one traced repetition (stream + spans)."""
    par_cells = busy = wait = engine = 0.0
    cell_walls, appends = [], []
    worker_time = 0.0
    stress_s = gate_vectors = 0.0
    profile_s = mc_s = instances_run = 0.0
    for leg in runner.legs:
        r = results[leg.key]
        s = stream_layers(leg, r["events"])
        par_cells += s["cells"]
        busy += s["busy"]
        wait += s["wait"]
        engine += s["engine"]
        cell_walls += s["cell_walls"]
        appends += s["appends"]
        worker_time += leg.jobs * r["wall"]
        report = r["report"]
        if leg.vectors:
            stress_s += span_wall(report, "netlist: stress")
            gate_vectors += report["netlist"]["gates"] * leg.vectors
        if leg.fleet_size:
            profile = span_wall(report, "fleet: profile")
            profile_s += profile
            mc_s += span_wall(report, "driver: fleet") - profile
            # A resumed leg simulates only the cells it did not restore.
            instances_run += leg.fleet_size * s["mc_done"] / s["mc_cells"]
    out = {
        "par.cells": par_cells,
        "par.cell_busy_s": busy,
        "par.queue_wait_s": wait,
        "par.cell_p50_ms": percentile(cell_walls, 50) * 1e3 if cell_walls else 0.0,
        "par.cell_p99_ms": percentile(cell_walls, 99) * 1e3 if cell_walls else 0.0,
        "par.engine_s": engine,
        "journal.appends": len(appends),
        "journal.append_s": sum(appends),
        "journal.append_p50_ms": percentile(appends, 50) * 1e3 if appends else 0.0,
        "journal.append_p99_ms": percentile(appends, 99) * 1e3 if appends else 0.0,
        "journal.worker_share": sum(appends) / worker_time,
        "gatesim.stress_s": stress_s,
        "gatesim.ns_per_gate_vector": stress_s * 1e9 / gate_vectors if gate_vectors else 0.0,
        "fleet.profile_s": profile_s,
        "fleet.mc_s": mc_s,
        "fleet.ns_per_instance": mc_s * 1e9 / instances_run if instances_run else 0.0,
    }
    return out


# ------------------------------------------------------------ probe

def run_probe(runner, target):
    exe = os.path.join(target, "release", "perfbench-probe")
    argv = [exe, "pipeline"] + PROBE_ARGS[runner.workload] + [
        "--budget", str(PROBE_BUDGET_S[runner.workload])]
    done = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True, cwd=runner.work,
                          timeout=LEG_TIMEOUT_S)
    if done.returncode != 0:
        raise Failure("probe failed: %s" % done.stderr.decode(errors="replace"))
    pipeline = json.loads(done.stdout)
    gatesim = None
    if runner.workload == "aging_models":
        argv = [exe, "gatesim", "--fixture", "multiplier", "--seed", str(runner.seed),
                "--budget", "1"]
        done = subprocess.run(argv, stdin=subprocess.DEVNULL, capture_output=True,
                              cwd=runner.work, timeout=LEG_TIMEOUT_S)
        if done.returncode != 0:
            raise Failure("gatesim probe failed: %s" % done.stderr.decode(errors="replace"))
        gatesim = json.loads(done.stdout)
    return pipeline, gatesim


def check_probe_agreement(runner, pipeline, gatesim, traced):
    """The probe's simulated counts must equal the program's for the same
    work before any probe timing is reported."""
    if "--fleet-profile" in PROBE_ARGS[runner.workload]:
        # The fleet leg's own report: one profile phase per suite, in
        # suite order, each a fresh pipeline behind the shared L2.
        fleet_leg = next(leg for leg in runner.legs
                         if leg.binary == "fleet" and leg.journal != "resume")
        phases = [p for p in traced[fleet_leg.key]["report"]["phases"]
                  if p["name"].startswith("fleet: profile ")]
        program = [(p["cycles"], p["uops"]) for p in phases]
        what = "fleet profile phases"
    else:
        # fig6's baseline phase: NoHooks over the scale's workload.
        scale = PROBE_ARGS[runner.workload][1]
        report = os.path.join(runner.work, "fig6.json")
        argv = [os.path.join(runner.bin, "fig6"), "--scale", scale, "--jobs", "1",
                "--json", report]
        code = runner.spawn(argv, subprocess.DEVNULL, subprocess.DEVNULL)["code"]
        if code != 0:
            raise Failure("fig6 reference run exited %d" % code)
        with open(report) as f:
            phases = [p for p in json.load(f)["phases"] if p["name"] == "fig6: baseline"]
        program = [(p["cycles"], p["uops"]) for p in phases]
        what = "fig6 baseline phase"
    probe = list(zip(pipeline["pass_cycles"], pipeline["pass_uops"]))
    if probe != program:
        raise Failure("probe disagrees with the %s: probe %s, program %s"
                      % (what, probe, program))
    if gatesim is not None:
        section = traced["netlist"]["report"]["netlist"]
        if (gatesim["gates"], gatesim["transistors"]) != (section["gates"],
                                                          section["transistors"]):
            raise Failure("gatesim probe disagrees with the netlist report: %s vs %s"
                          % ((gatesim["gates"], gatesim["transistors"]),
                             (section["gates"], section["transistors"])))


def probe_layers(runner, pipeline, gatesim):
    pins = runner.pins["legs"]
    generated = sum(pins["%s/%s" % (runner.workload, leg.key)]["uops"] for leg in runner.legs)
    recorded = sum(pins["%s/%s" % (runner.workload, leg.key)]["uops"]
                   for leg in runner.legs if leg.report)
    reports = sum(1 for leg in runner.legs if leg.report)
    bare = pipeline["bare_ns_per_uop"]
    protected = pipeline["protected_ns_per_uop"]
    telemetry = pipeline["recorded_ns_per_uop"] - bare
    out = {
        "tracegen.ns_per_uop": pipeline["tracegen_ns_per_uop"],
        "tracegen.s": pipeline["tracegen_ns_per_uop"] * generated / 1e9,
        "tracegen.distinct_uops": pipeline["distinct_uops"],
        "tracegen.generated_uops": generated,
        "tracegen.distinct_frac": pipeline["distinct_uops"] / generated,
        "uarch.ns_per_uop": bare,
        "uarch.ns_per_cycle": pipeline["bare_ns_per_cycle"],
        "uarch.s": bare * generated / 1e9,
        "uarch.cycles": pipeline["cycles"],
        "uarch.cpi": pipeline["cycles"] / pipeline["uops"],
        "uarch.dl0_miss_ratio": 1 - pipeline["dl0_hits"] / pipeline["dl0_accesses"],
        "uarch.dtlb_miss_ratio": 1 - pipeline["dtlb_hits"] / pipeline["dtlb_accesses"],
        "hooks.ns_per_uop": protected - bare,
        "hooks.share": (protected - bare) / protected,
        "telemetry.ns_per_uop": telemetry,
        "telemetry.s": telemetry * recorded / 1e9 + pipeline["report_s"] * reports,
        "telemetry.report_s": pipeline["report_s"],
        "telemetry.report_kb": pipeline["report_bytes"] / 1000.0,
        "gatesim.parse_ms": gatesim["parse_ms"] if gatesim else 0.0,
        "gatesim.compile_ms": gatesim["compile_ms"] if gatesim else 0.0,
    }
    return out


# ------------------------------------------------------------ output

UNITS = {}


def load_units():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            UNITS[metric["name"]] = metric["unit"]
    return spec


def print_samples(name, values):
    q1, q3 = quartiles(values)
    print("%-28s %14.6g %-10s q1 %.6g  q3 %.6g  n=%d"
          % (name, median(values), UNITS.get(name, ""), q1, q3, len(values)))


def result_line(correct, runner, metrics, names):
    out = {}
    for name in names:
        value = metrics.get(name)
        out[name] = {"value": value, "unit": UNITS[name]}
    return json.dumps({"correct": correct, "attempted": runner.attempted,
                       "failed": runner.failed, "metrics": out})


# ------------------------------------------------------------ modes

def measure(runner, args, spec, target):
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    runner.make_netlist_reference()
    untraced, traced = [], []
    started = time.perf_counter()
    while (time.perf_counter() - started < args.seconds or not untraced
           or (args.trace and not traced)):
        if runner.failed >= 3:
            break  # failing repeatedly: stop and report
        results = runner.run_rep(traced=False)
        if results is not None:
            untraced.append(results)
        if args.trace:
            results = runner.run_rep(traced=True)
            if results is not None:
                traced.append(results)
    setup = runner.setup_probes() if untraced else {}

    print("workload %s, seed %d, %d untraced / %d traced repetitions, %d failed of %d"
          % (runner.workload, runner.seed, len(untraced), len(traced), runner.failed,
             runner.attempted))
    metrics = {}
    correct = runner.failed == 0 and bool(untraced)
    if untraced:
        totals = [rep_totals(runner, r) for r in untraced]
        for name in e2e_names:
            if name == "setup_s":
                continue
            values = [t[name] for t in totals]
            print_samples(name, values)
            metrics[name] = median(values)
        metrics["setup_s"] = sum(cs for _, cs in setup.values())
        print("%-28s %14.6g %-10s (sum over legs of the median of %d launches)"
              % ("setup_s", metrics["setup_s"], "s", SETUP_PROBES))
        extras = [leg_extras(runner, r) for r in untraced]
        for key in ("vectors_per_s", "instances_per_s", "resume_s", "journal_mb"):
            metrics["e2e." + key] = median([x[key] for x in extras])
    metrics["e2e.failed_frac"] = runner.failed / max(1, runner.attempted)
    print("failed_frac %.6g (%d failed / %d attempted)"
          % (metrics["e2e.failed_frac"], runner.failed, runner.attempted))

    if not args.trace:
        print(result_line(correct, runner, metrics, e2e_names))
        return 0 if correct else 1

    # ---- traced run: per-layer metrics
    if correct and traced:
        try:
            pipeline, gatesim = run_probe(runner, target)
            check_probe_agreement(runner, pipeline, gatesim, traced[-1])
        except Failure as failure:
            runner.failed += 1
            runner.attempted += 1
            runner.failures.append(str(failure))
            print("FAILED: %s" % failure, file=sys.stderr)
            correct = False
    else:
        correct = False
    if not correct:
        print(result_line(False, runner, metrics, layer_names))
        return 1
    metrics.update(probe_layers(runner, pipeline, gatesim))
    per_rep = [traced_layers(runner, r) for r in traced]
    for name in per_rep[0]:
        metrics[name] = median([p[name] for p in per_rep])
    traced_wall = median([rep_totals(runner, r)["wall_s"] for r in traced])
    metrics["trace_overhead_frac"] = traced_wall / metrics["wall_s"] - 1
    journal = [r["journal"] for r in untraced if "journal" in r]
    written = journal[-1]["written"] if journal else 0
    final = journal[-1]["final_bytes"] if journal else 0
    metrics["journal.bytes_written"] = written
    metrics["journal.final_bytes"] = final
    metrics["journal.write_amplification"] = written / final if final else 0.0
    # The journal loads before the stream's run-start event, so the
    # resumed leg's extra time to run-start over the fresh leg's is the
    # load (net of creating a fresh journal).
    to_run_start = {leg.journal: setup[leg.key][0] for leg in runner.legs}
    metrics["journal.resume_load_s"] = (to_run_start["resume"] - to_run_start["fresh"]
                                        if "resume" in to_run_start else 0.0)
    for name in layer_names:
        print("%-34s %16.6g %s" % (name, metrics[name], UNITS[name]))
    print("ratio bases: tracegen.distinct_frac = %d distinct / %d generated uops; "
          "journal.write_amplification = %d bytes written / %d final bytes"
          % (metrics["tracegen.distinct_uops"], metrics["tracegen.generated_uops"],
             written, final))
    print(result_line(True, runner, metrics, layer_names))
    return 0


def simulated_uops(report, events):
    """The uops a leg simulated: the report's total less the cells it
    restored from a journal (whose snapshots still carry their counts)."""
    restored = {"%s cell %d" % (e["sweep"], e["cell"]) for e in events
                if e["event"] == "cell-complete" and e["status"] == "restored"}
    return report["totals"]["uops"] - sum(s["uops"] for s in report["spans"]
                                          if s["name"] in restored)


def pin(target, work):
    """Re-records pins.json from the current build: stdout and report
    digests of every leg, each leg's simulated uops, and the netlist stdout
    digest for every pinned seed. Every leg also runs at the other --jobs
    setting, whose stdout must match."""
    pins = {"legs": {}, "netlist_stdout_by_seed": {}}
    for workload in WORKLOADS:
        runner = Runner(workload, 0, target, work, None)
        plain = runner.run_rep(traced=False)
        traced = runner.run_rep(traced=True)
        if plain is None or traced is None:
            raise Failure("pin run failed: %s" % runner.failures)
        for leg in runner.legs:
            report = traced[leg.key]["report"]
            if report is None:
                # A leg with no traced report (efficiency): one run with --json.
                path = os.path.join(work, "uops.json")
                runner.spawn(runner.argv(leg, ["--json", path]), subprocess.DEVNULL,
                             subprocess.DEVNULL)
                with open(path) as f:
                    report = json.load(f)
            uops = simulated_uops(report, traced[leg.key]["events"])
            entry = {"stdout": plain[leg.key]["stdout"], "uops": uops}
            if leg.report:
                entry["report"] = report_digest(plain[leg.key]["report"])
            pins["legs"]["%s/%s" % (workload, leg.key)] = entry
            print("pinned %s/%s: %s" % (workload, leg.key, entry), file=sys.stderr)
        for leg in runner.legs:
            leg.jobs = 3 - leg.jobs  # 1 <-> 2
        again = runner.run_rep(traced=False)
        if again is None or any(again[leg.key]["stdout"] != plain[leg.key]["stdout"]
                                for leg in runner.legs):
            raise Failure("%s stdout depends on --jobs" % workload)
    for seed in PINNED_NETLIST_SEEDS:
        leg = workload_legs("aging_models", seed)[0]
        runner = Runner("aging_models", seed, target, work, None)
        pins["netlist_stdout_by_seed"][str(seed)] = runner.run_leg(leg, False)["stdout"]
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="re-record pins.json")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.pin and args.workload is None:
        parser.error("--workload is required")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        spec = load_units()
        build(target)
        os.makedirs(target, exist_ok=True)
        work = tempfile.mkdtemp(prefix="perfbench-", dir=target)
        try:
            if args.pin:
                return pin(target, work)
            with open(PINS) as f:
                pins = json.load(f)
            runner = Runner(args.workload, args.seed, target, work, pins)
            return measure(runner, args, spec, target)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except Failure as failure:
        print("perfbench: %s" % failure, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
