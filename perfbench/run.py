#!/usr/bin/env python3
"""The repository benchmark: three workloads through the entry points
their users call, host-time metrics end to end, and a traced per-layer
split.  perfbench/README.md explains the workloads and the metrics.

One run (what BENCHMARK.json's command does):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
prints a provenance line, then as its last line
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1).

Every metric by name with its unit, every workload, the default seed:
    python3 perfbench/run.py --report
Steadiness (each workload K times, alternating order, one seed per round):
    python3 perfbench/run.py --steady K

The first run builds the simulator and the driver from this checkout into
.bench_build/ (Release); later runs only check that the build is current.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
WORK = BUILD / "work"
DEFAULT_SEED = 1
# A child that outlives this is killed and its run counted as failed, so
# one invocation always ends within the contract's 180 seconds.
CHILD_TIMEOUT_S = 120

UNIFORM = dict(fabric="pps/rr-per-output", ports=64, planes=8,
               **{"rate-ratio": 4}, load=0.8, slots=2000)
SERVE = dict(fabric="pps/rr-per-output", ports=64, planes=8,
             **{"rate-ratio": 1}, load=0.5, hotspot=0.3, slots=3600,
             window=30, **{"checkpoint-every": 120, "keep-checkpoints": 3,
                           "drain-grace": 1})
# NetworkEngine's default single node lane (no ShardPool); see README.md
# for why the workload does not run two.
TOPO = dict(fabric="pps/rr-per-output", leaves=8, spines=8, externals=8,
            load=0.7, slots=1000)

END_TO_END = [
    ("cells_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("window_ms_p50", "ms"),
    ("window_ms_p90", "ms"),
]
PER_LAYER = [
    ("traffic.source.ns_per_cell", "ns"),
    ("core.feeder.ns_per_cell", "ns"),
    ("fabric.inject.ns_per_cell", "ns"),
    ("fabric.advance.ns_per_cell", "ns"),
    ("shadow.ns_per_cell", "ns"),
    ("core.ledger.ns_per_cell", "ns"),
    ("core.window.ns_per_cell", "ns"),
    ("core.taps.ns_per_cell", "ns"),
    ("core.loop.ns_per_cell", "ns"),
    ("ckpt.serialize_ms_p50", "ms"),
    ("ckpt.serialize_ms_p90", "ms"),
    ("ckpt.write_ms_p50", "ms"),
    ("ckpt.bytes_last", "bytes"),
    ("fabric.backlog_peak", "cells"),
    ("fabric.reseq_stalls", "count"),
    ("topo.hops_per_cell", "hops"),
    ("fabric.make_ms", "ms"),
    ("topo.build_ms", "ms"),
    ("topo.source.ns_per_cell", "ns"),
    ("topo.engine.ns_per_hop", "ns"),
    ("trace.overhead_frac", "ratio"),
]
WORKLOADS = ["uniform-pps64", "serve-hotspot64", "clos-topo24"]


class BenchError(Exception):
    """The benchmark could not run (no sources, failed build)."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def flags(params):
    return [f"--{k}={v}" for k, v in params.items()]


LIVE = set()  # children not yet reaped, killed if this script is stopped


def stop_children(signum, _frame):
    for proc in LIVE:
        proc.kill()
    for proc in LIVE:
        proc.wait()
    sys.exit(128 + signum)


def call(cmd, logfile=None, timeout=None):
    """Runs cmd from the checkout root; returns (exit code, stdout text).
    With a log file, stdout and stderr go there instead."""
    proc = subprocess.Popen(cmd, cwd=ROOT, text=True,
                            stdout=logfile or subprocess.PIPE,
                            stderr=subprocess.STDOUT if logfile else None)
    LIVE.add(proc)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    finally:
        LIVE.discard(proc)
    return proc.returncode, out


# --------------------------------------------------------------------------
# Build

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "tools" / "pps_serve.cc").is_file():
        raise BenchError(f"no simulator sources under {ROOT}")
    if shutil.which("cmake") is None:
        raise BenchError("cmake is not installed")
    # The compiler's temporary files stay inside the checkout too.
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    logfile = BUILD / "build.log"
    with open(logfile, "w") as out:
        if not (BUILD / "CMakeCache.txt").is_file():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            code, _ = call(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release", *gen], logfile=out)
            if code != 0:
                shutil.rmtree(BUILD / "CMakeFiles", ignore_errors=True)
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                raise BenchError(f"cmake configure failed; see {logfile}")
        jobs = str(min(3, os.cpu_count() or 1))
        code, _ = call(["cmake", "--build", str(BUILD), "-j", jobs,
                        "--target", "perfbench_driver", "pps_serve"],
                       logfile=out)
    if code != 0:
        raise BenchError(f"build failed; see {logfile}")


def driver():
    return str(BUILD / "perfbench_driver")


def pps_serve():
    return str(BUILD / "tools" / "pps_serve")


# --------------------------------------------------------------------------
# Children: one process per measured run, reaped with wait4 so that its
# peak RSS is its own.

# Children run from the checkout root and get paths relative to it: a
# checkpoint records the trace path it was served from, so an absolute
# path would make the checkpoint CRC, and with it the output digest, depend
# on where the checkout lives.
def rel(path):
    return path.relative_to(ROOT)


class Child:
    def __init__(self, cmd):
        self.t_start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
        LIVE.add(self.proc)
        self.killer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self.killer.daemon = True
        self.killer.start()
        self.lines = []  # (perf_counter at receipt, text)

    def read_lines(self):
        for raw in self.proc.stdout:
            self.lines.append((time.perf_counter(),
                               raw.decode(errors="replace")))
        return self

    def finish(self):
        """Reaps the child; returns (exit code, peak RSS in MB, seconds)."""
        self.proc.stdout.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        t_end = time.perf_counter()
        LIVE.discard(self.proc)
        self.killer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return (self.proc.returncode, usage.ru_maxrss / 1024.0,
                t_end - self.t_start)


def run_driver(mode, params):
    child = Child([driver(), mode, *flags(params)]).read_lines()
    code, rss_mb, _ = child.finish()
    if code != 0 or not child.lines:
        return None, rss_mb
    return json.loads(child.lines[-1][1]), rss_mb


def percentile(values, p):
    """Linear-interpolated percentile, p in [0, 100]."""
    v = sorted(values)
    pos = p / 100.0 * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Outcome:
    """What one run produced: metrics, the output digest, the failures."""

    def __init__(self):
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.errors = []
        self.scales = []  # calibration scale of each rep (see README.md)

    def fail(self, why, count=1):
        self.failed += count
        self.errors.append(why)

    def merge_driver(self, out):
        if out is None:
            self.attempted += 1
            self.fail("driver exited nonzero")
            return False
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        self.errors += out["errors"]
        self.scales += out["samples"].get("calibration_scale", [])
        if out["digest_text"]:
            d = digest(out["digest_text"])
            if self.digest is not None and d != self.digest:
                self.fail("output differs between driver processes")
            self.digest = d
        return True


# --------------------------------------------------------------------------
# Workloads

def layer_metrics(samples):
    """Per-layer metrics of a traced driver run: medians over the traced
    reps (layer samples are the names with a dot), the checkpoint
    percentiles over every checkpoint, and the tracing overhead."""
    m = {}
    for name, values in samples.items():
        if name == "ckpt.serialize_ms":
            m["ckpt.serialize_ms_p50"] = percentile(values, 50)
            m["ckpt.serialize_ms_p90"] = percentile(values, 90)
        elif name == "ckpt.write_ms":
            m["ckpt.write_ms_p50"] = percentile(values, 50)
        elif "." in name:
            m[name] = statistics.median(values)
    if samples.get("run_s") and samples.get("traced_run_s"):
        m["trace.overhead_frac"] = statistics.median(
            samples["traced_run_s"]) / statistics.median(samples["run_s"]) - 1
    return m


def run_single(mode, params, seed, seconds, trace):
    """uniform-pps64 and clos-topo24: the driver times the engine."""
    outcome = Outcome()
    out, _ = run_driver(mode, {**params, "seed": seed, "seconds": seconds,
                               "trace": trace, "calibrate": 1})
    if not outcome.merge_driver(out):
        return outcome
    s = out["samples"]
    if trace:
        outcome.metrics = layer_metrics(s)
        return outcome
    # Peak RSS comes from a process of its own that runs three reps
    # without the calibration kernel, whose table would count in it.
    rss_out, rss_mb = run_driver(mode, {**params, "seed": seed, "seconds": 0,
                                        "trace": 0, "calibrate": 0})
    if not outcome.merge_driver(rss_out):
        return outcome
    # Each rep is one fixed-size run whose result the driver receives:
    # its "window" is the run, slot 0 to result.  A run whose every rep
    # threw has no timings; its metrics stay unmeasured, and one_run
    # reports it as incorrect.
    rep_ms = [1e3 * r for r in s.get("run_s", [])]
    if not rep_ms or not s.get("setup_s"):
        return outcome
    outcome.metrics = {
        "cells_per_s": statistics.median(s["cells_per_s"]),
        "setup_s": statistics.median(s["setup_s"]),
        "peak_rss_mb": rss_mb,
        "window_ms_p50": percentile(rep_ms, 50),
        "window_ms_p90": percentile(rep_ms, 90),
    }
    return outcome


def serve_trace_file(seed):
    inputs = BUILD / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    gen = {k: SERVE[k] for k in ("ports", "load", "hotspot", "slots")}
    path = inputs / ("serve-" + "-".join(f"{k}{v}" for k, v in gen.items())
                     + f"-seed{seed}.btrace")
    if not path.is_file():
        code, _ = call([driver(), "gen-trace", *flags(gen), f"--seed={seed}",
                        f"--out={rel(path)}"], timeout=CHILD_TIMEOUT_S)
        if code != 0:
            raise BenchError("trace generation failed")
    return path


def calibration_scale(passes):
    """Host-to-reference time factor measured now, in a process of its own
    (the driver's calibration kernel)."""
    out, _ = run_driver("calibrate", {"passes": passes})
    if out is None:
        raise BenchError("calibration failed")
    return statistics.median(out["calibration_scales"])


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def newest_checkpoint_crc(ckpt_dir):
    gens = sorted(p for p in ckpt_dir.iterdir()
                  if p.name.startswith("run.ckpt.g") and
                  not p.name.endswith(".tmp"))
    if not gens:
        return None
    header = gens[-1].read_bytes()[:24]
    # ckpt container: magic[8], version u32, payload size u64, CRC u32.
    return int.from_bytes(header[20:24], "little")


def serve_command(trace_path, ckpt_dir, extra=()):
    p = SERVE
    return [pps_serve(), f"--fabric={p['fabric']}",
            f"--trace={rel(trace_path)}",
            f"--ports={p['ports']}", f"--planes={p['planes']}",
            f"--rate-ratio={p['rate-ratio']}", f"--window={p['window']}",
            f"--checkpoint-every={p['checkpoint-every']}",
            f"--checkpoint={rel(ckpt_dir) / 'run.ckpt'}", "--supervise=1",
            f"--keep-checkpoints={p['keep-checkpoints']}",
            f"--drain-grace={p['drain-grace']}", *extra]


def check_serve_output(lines):
    """Conservation over one served run's stdout lines (pps_serve's, or
    the driver's rendering of the same run); '' when it holds."""
    try:
        rows = [json.loads(t) for t in lines]
    except ValueError:
        return "unparseable pps_serve output"
    if not rows or rows[-1].get("kind") != "summary":
        return "no summary line"
    summary, windows = rows[-1], rows[:-1]
    if [w.get("index") for w in windows] != list(range(len(windows))):
        return "window rows missing or out of order"
    if len(windows) < 100:
        return f"only {len(windows)} window rows (need 100)"
    if summary["interrupted"]:
        return "served run was interrupted"
    if sum(w["offered"] for w in windows) != summary["cells"]:
        return "window offered does not sum to cells"
    # The run stops when its trace ends, hotspot backlog still queued: a
    # cell neither finalized nor dropped sits in the measured switch, the
    # shadow, or both.
    pending = summary["cells"] - summary["dropped"] - \
        sum(w["finalized"] for w in windows)
    last = windows[-1]
    if not max(last["backlog"], last["shadow_backlog"]) <= pending <= \
            last["backlog"] + last["shadow_backlog"]:
        return "unresolved cells do not match the final backlogs"
    return ""


# Set-up launches taken before each served rep, so that set-up samples
# the same stretch of host time as the reps and their calibrations.
SETUP_LAUNCHES_PER_REP = 4


def run_serve(seed, seconds, trace):
    """serve-hotspot64: pps_serve --supervise=1 untraced; the driver's
    supervisor twin and traced re-drive when tracing."""
    trace_path = serve_trace_file(seed)
    outcome = Outcome()
    if trace:
        params = {k: SERVE[k] for k in
                  ("fabric", "ports", "planes", "rate-ratio", "window",
                   "checkpoint-every", "keep-checkpoints", "drain-grace")}
        out, _ = run_driver("serve", {
            **params, "trace-file": rel(trace_path),
            "work": rel(WORK / "serve"),
            "seconds": seconds, "trace": 1, "calibrate": 1})
        if not outcome.merge_driver(out):
            return outcome
        # The driver renders its runs in pps_serve's format, so the served
        # process's conservation check applies to them unchanged.
        lines = out["digest_text"].splitlines()
        problem = check_serve_output(
            [t for t in lines if not t.startswith("ckpt_crc=")])
        if problem:
            outcome.fail(problem, count=out["attempted"] - out["failed"])
        outcome.metrics = layer_metrics(out["samples"])
        return outcome

    # Host times here are scaled by the median of calibrations taken before
    # each rep: the kernel runs in a process of its own, so one reading
    # says less about the next launch than about the run's host speed.
    setups, run_s, rss, intervals_s = [], [], [], []
    cells = None
    start = time.perf_counter()
    while len(rss) < 3 or time.perf_counter() - start < seconds:
        outcome.scales.append(calibration_scale(3))
        # Set-up: spawn to exit of a one-slot run of the same command,
        # which builds the fabric, opens the trace and scans for
        # generations.
        for _ in range(SETUP_LAUNCHES_PER_REP):
            ckpt_dir = fresh_dir(WORK / "serve-setup")
            child = Child(serve_command(trace_path, ckpt_dir,
                                        ["--max-slots=1"]))
            child.read_lines()
            code, _, elapsed = child.finish()
            outcome.attempted += 1
            if code != 0:
                outcome.fail(f"pps_serve --max-slots=1 exited {code}")
            else:
                setups.append(elapsed)

        ckpt_dir = fresh_dir(WORK / "serve")
        child = Child(serve_command(trace_path, ckpt_dir))
        child.read_lines()
        code, rss_mb, _ = child.finish()
        outcome.attempted += 1
        rss.append(rss_mb)
        if code != 0:
            outcome.fail(f"pps_serve exited {code}")
            continue
        problem = check_serve_output([t for _, t in child.lines])
        crc = newest_checkpoint_crc(ckpt_dir)
        if problem or crc is None:
            outcome.fail(problem or "no checkpoint generation written")
            continue
        text = "".join(t for _, t in child.lines) + f"ckpt_crc={crc:08x}\n"
        if outcome.digest is None:
            outcome.digest = digest(text)
        elif digest(text) != outcome.digest:
            outcome.fail("served output differs between runs")
            continue
        stamps = [t for t, _ in child.lines]
        cells = json.loads(child.lines[-1][1])["cells"]
        run_s.append(stamps[-1] - child.t_start)
        intervals_s += [b - a for a, b in zip(stamps, stamps[1:-1])]
    if run_s and setups:
        scale = statistics.median(outcome.scales)
        outcome.metrics = {
            "cells_per_s": cells / (statistics.median(run_s) * scale),
            "setup_s": statistics.median(setups) * scale,
            "peak_rss_mb": statistics.median(rss),
            "window_ms_p50": 1e3 * scale * percentile(intervals_s, 50),
            "window_ms_p90": 1e3 * scale * percentile(intervals_s, 90),
        }
    return outcome


def run_workload(name, seed, seconds, trace):
    if name == "uniform-pps64":
        return run_single("uniform", UNIFORM, seed, seconds, trace)
    if name == "clos-topo24":
        return run_single("topo", TOPO, seed, seconds, trace)
    return run_serve(seed, seconds, trace)


# --------------------------------------------------------------------------
# Provenance and the output check

def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """Hash of the simulator sources, standing in for a git revision in
    checkouts that are not repositories."""
    h = hashlib.sha256()
    for top in ("src", "tools"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    code, out = call(["git", "rev-parse", "HEAD"], timeout=CHILD_TIMEOUT_S)
    return out.strip() if code == 0 else "unknown"


def provenance(workload, seed, seconds, trace):
    code, out = call([driver(), "provenance"], timeout=CHILD_TIMEOUT_S)
    if code != 0:
        raise BenchError("driver provenance failed")
    build_info = json.loads(out)
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "nproc": os.cpu_count(), "cpu": cpu_model(),
            **build_info, "git_rev": git_rev(),
            "source_digest": source_digest()}


def expected_digest(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    return json.loads((BENCH / "expected.json").read_text())[workload]


def one_run(args):
    build()
    prov = provenance(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"provenance": prov}), flush=True)
    outcome = run_workload(args.workload, args.seed, args.seconds, args.trace)
    want = expected_digest(args.workload, args.seed)
    if want is not None and outcome.digest is not None and \
            outcome.digest != want:
        outcome.fail(f"output digest {outcome.digest} != recorded {want}",
                     count=outcome.attempted - outcome.failed)
    if outcome.digest is None and outcome.failed == 0:
        outcome.fail("no output to check")
    names = PER_LAYER if args.trace else END_TO_END
    missing = [n for n, _ in names if n not in outcome.metrics]
    if missing and not args.trace:
        outcome.fail(f"metrics not measured: {missing}")
    for err in outcome.errors:
        log(f"{args.workload}: {err}")
    if outcome.scales:
        print(json.dumps({"calibration": {
            "reps": len(outcome.scales),
            "scale_median": statistics.median(outcome.scales),
            "scale_min": min(outcome.scales),
            "scale_max": max(outcome.scales)}}), flush=True)
    # Per-layer metrics a workload has no such layer for read 0 (see
    # README.md); end-to-end metrics are never 0 on a run that passed.
    metrics = {n: {"value": outcome.metrics.get(n, 0.0), "unit": u}
               for n, u in names}
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


# --------------------------------------------------------------------------
# Report and steadiness modes: they re-invoke this script per run, exactly
# as the contract's command line does.

def invoke(workload, seed, seconds, trace):
    code, out = call(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)])
    if code != 0:
        raise BenchError(f"{workload} seed {seed} exited {code}")
    return json.loads(out.strip().splitlines()[-1])


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report(args):
    build()
    for workload in WORKLOADS:
        for trace in (0, 1):
            r = invoke(workload, DEFAULT_SEED, args.seconds, trace)
            kind = "per-layer (traced)" if trace else "end-to-end"
            frac = r["failed"] / r["attempted"]
            print(f"\n{workload} -- {kind}, seed {DEFAULT_SEED}: "
                  f"correct={r['correct']} failed_frac={frac:g} "
                  f"({r['failed']}/{r['attempted']})")
            for name, m in r["metrics"].items():
                print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    return 0


def steady(args):
    build()
    limits = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    values = {w: {n: [] for n, _ in END_TO_END} for w in WORKLOADS}
    runs = failed = attempted = 0
    for k in range(args.steady):
        order = WORKLOADS if k % 2 == 0 else WORKLOADS[::-1]
        for workload in order:
            r = invoke(workload, DEFAULT_SEED + k, args.seconds, 0)
            runs += 1
            failed += r["failed"]
            attempted += r["attempted"]
            for name, m in r["metrics"].items():
                values[workload][name].append(m["value"])
            log(f"round {k + 1}/{args.steady} {workload}: "
                + " ".join(f"{n}={m['value']:.6g}"
                           for n, m in r["metrics"].items()))
    print(f"{runs} runs, failed_frac={failed / max(attempted, 1):g} "
          f"({failed}/{attempted})")
    print(f"{'workload':16s} {'metric':14s} {'unit':4s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s} verdict")
    worst = 0.0
    for workload in WORKLOADS:
        for name, unit in END_TO_END:
            v = values[workload][name]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            bound = limits[name]
            ok = spread < bound / 3
            worst = max(worst, spread / bound)
            print(f"{workload:16s} {name:14s} {unit:4s} {med:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {spread:7.4f} {bound:6.3f} "
                  f"{'steady' if ok else 'NOT STEADY (spread >= bound/3)'}")
    print(f"largest spread/bound: {worst:.3f}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    help="measured seconds per run (default: BENCHMARK.json "
                         "run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true",
                    help="every workload, untraced and traced, at the "
                         "default seed; prints every metric with its unit")
    ap.add_argument("--steady", type=int, metavar="K",
                    help="every workload K times (alternating order, seed "
                         "DEFAULT+round); prints median, quartiles and "
                         "spread against each metric's bound")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, stop_children)
    signal.signal(signal.SIGINT, stop_children)
    try:
        if args.seconds is None:
            args.seconds = spec()["run_seconds"]
        if args.report:
            return report(args)
        if args.steady:
            return steady(args)
        if args.workload is None:
            ap.error("--workload, --report or --steady is required")
        return one_run(args)
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        log(str(e))
        return 1


if __name__ == "__main__":
    sys.exit(main())
