#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer performance of the
scenario engine, measured from outside through its product binaries.

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout.  It builds the product
binaries and `layer_probe` from source (Release, into .bench_build/),
refuses sanitized or non-Release builds, runs the workload for about
`--seconds` seconds, checks every output against its pin or reference,
and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics of the workload; `--trace 1`
runs the per-layer probes instead (the same set for every workload).
The full record (context, sample counts, per-row detail) is written to
.bench_run/results/.  See perfbench/README.md for the workloads, the
metrics and the layer -> end-to-end map.
"""

import argparse
import contextlib
import gc
import hashlib
import json
import os
import random
import selectors
import shutil
import socket
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import stats  # noqa: E402

BUILD = os.path.join(".bench_build", "perfbench")
BIN = os.path.join(BUILD, "repo")
RUN = ".bench_run"

SETS = ("rendezvous-grid", "search-ring", "gather-fleet", "linear-line",
        "coverage-disk")
BINARIES = (
    "bench_e1_search_bound", "bench_e2_component_times",
    "bench_e3_symmetric_chirality", "bench_e4_opposite_chirality",
    "bench_e5_phase_schedule", "bench_e6_overlap",
    "bench_e7_asymmetric_clocks", "bench_e8_feasibility",
    "bench_e9_baselines", "bench_x1_gathering", "bench_x2_linear",
    "bench_x3_coverage", "bench_a1_ablations")
WORKLOADS = ("reproduce", "serve-warm", "serve-cold-mix")

# serve-cold-mix offered rate, requests per second: about a quarter of
# the closed-loop capacity measured on the parent commit, so bursts of
# CPU steal do not push the loop into saturation (see README.md).
MIX_RATE = 60.0
# Open-loop validity: the generator must send on time and the daemon's
# backlog must stay bounded at the end of the window.
MAX_LATE_P99_MS = 10.0
MAX_END_BACKLOG = 16  # `inflight` (queued + executing) in the end status
SETUP_REPEATS = 5
# serve-warm's tail and throughput are taken per WARM_WINDOW_S window
# and reported from the calmer windows (the lower quartile of window
# p99s, the upper quartile of window throughputs): bursts of CPU steal
# on a shared machine then move a few windows, not the run.
WARM_WINDOW_S = 1.0
# Cold gather-fleet runs per reproduce pass, spread over the pass.
# Single runs on a shared machine fall into fast and slow phases of a
# few seconds; the pass mean of three runs seconds apart keeps the
# median over passes from flipping between them.
GATHER_RUNS = 3
# Rounds of the five warm sets per reproduce pass.  A warm run is a few
# ms of process start-up, whose jitter one round per pass does not
# average out; the pass reports the mean round.
WARM_ROUNDS = 3
# Nominal time of one `calibrate` run (its typical time on the 4 vCPU
# machine the benchmark was tuned on).  Each reproduce pass is scaled
# by REF_NOMINAL_S / (that pass's mean calibrate time), which takes out
# the host's slow drift in speed; the raw timings stay in the record.
REF_NOMINAL_S = 0.1
DAEMON_TIMEOUT_S = 30.0


class BenchError(Exception):
    """A set-up or environment failure: the run cannot produce a result."""


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def nproc():
    return max(1, len(os.sched_getaffinity(0)))


def rm(path):
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


def fresh_dir(path):
    rm(path)
    os.makedirs(path)
    return path


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


# ---------------------------------------------------------------------------
# Checkout, build and run-environment guard
# ---------------------------------------------------------------------------

REQUIRED = ("CMakeLists.txt", "src/engine/serve.hpp", "tools/rv_batch.cpp",
            "tools/rv_serve.cpp", "examples/sets", "tests/golden/rv_batch")


def check_checkout():
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        raise BenchError("not a source checkout (missing %s); run from the "
                         "repository root" % ", ".join(missing))


def build(probe):
    os.makedirs(RUN, exist_ok=True)
    build_log = os.path.join(RUN, "build.log")
    targets = ["rv_batch", "rv_serve", "calibrate"] + list(BINARIES)
    if probe:
        targets.append("layer_probe")
    with open(build_log, "ab") as out:
        # Configure every time (about a second): a build directory from
        # an older perfbench/CMakeLists.txt may lack a target.
        code = subprocess.call(
            ["cmake", "-S", "perfbench", "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"], stdout=out, stderr=out)
        if code != 0:
            raise BenchError("cmake configure failed; see " + build_log)
        code = subprocess.call(
            ["cmake", "--build", BUILD, "-j", str(nproc()), "--target"] +
            targets, stdout=out, stderr=out)
    if code != 0:
        raise BenchError("build failed; see " + build_log)


def cmake_cache():
    values = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, rest = line.split(":", 1)
                values[key] = rest.split("=", 1)[1].strip()
    return values


def guard(cache):
    """Refuses builds whose timings mean nothing."""
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        raise BenchError("refusing a %r build: timings need Release"
                         % cache.get("CMAKE_BUILD_TYPE"))
    if cache.get("RV_SANITIZE"):
        raise BenchError("refusing a sanitized build (RV_SANITIZE=%s)"
                         % cache["RV_SANITIZE"])


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "tools", "bench", "CMakeLists.txt"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in sorted(paths):
            h.update(p.encode() + b"\0" + read_bytes(p))
    return h.hexdigest()[:16]


def context(seed, cache):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    commit = None
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True)
        commit = r.stdout.strip() or None
    return {"nproc": nproc(), "cpu": cpu, "compiler": compiler,
            "build_type": cache.get("CMAKE_BUILD_TYPE"),
            "commit": commit, "source_digest": source_digest(), "seed": seed}


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def spawn(cmd, out_path, cwd=None):
    """Runs cmd to completion with stdout in out_path.  Returns (wall s,
    exit code, peak RSS KB, CPU s) of that process alone."""
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err)
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, p.returncode, usage.ru_maxrss, usage.ru_utime + usage.ru_stime


def run_parallel(jobs, workers):
    """Runs (cmd, out_path) jobs, `workers` at a time; returns exit codes."""
    codes = [None] * len(jobs)
    running = {}
    pending = list(enumerate(jobs))
    pending.reverse()
    while pending or running:
        while pending and len(running) < workers:
            i, (cmd, out_path) = pending.pop()
            out = open(out_path, "wb")
            running[i] = (subprocess.Popen(cmd, stdout=out,
                                           stderr=subprocess.DEVNULL), out)
        pid, status = os.wait()
        for i, (p, out) in list(running.items()):
            if p.pid == pid:
                p.returncode = os.waitstatus_to_exitcode(status)
                codes[i] = p.returncode
                out.close()
                del running[i]
    return codes


def cpu_steal_s():
    """CPU time the hypervisor took from this machine so far (seconds,
    all CPUs), from /proc/stat; 0 where it is not reported."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def peak_rss_kb(pid):
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


# ---------------------------------------------------------------------------
# rv_serve client
# ---------------------------------------------------------------------------

def run_request(rid, fmt, set_name=None, body=None):
    if body is None:
        return ('{"op":"run","id":"%s","set":"%s","format":"%s"}\n'
                % (rid, set_name, fmt)).encode()
    data = body.encode()
    return ('{"op":"run","id":"%s","body_bytes":%d,"format":"%s"}\n'
            % (rid, len(data), fmt)).encode() + data + b"\n"


class Conn:
    """One Unix-socket connection speaking the framed reply protocol."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buf = b""

    def send(self, data):
        self.sock.sendall(data)

    def frames(self):
        """Complete (header, payload) frames buffered so far."""
        out = []
        while True:
            lf = self.buf.find(b"\n")
            if lf < 0:
                return out
            header = json.loads(self.buf[:lf])
            if "bytes" in header:
                end = lf + 1 + header["bytes"]
                if len(self.buf) < end + 1:
                    return out
                payload = self.buf[lf + 1:end]
                self.buf = self.buf[end + 1:]
            else:
                payload = None
                self.buf = self.buf[lf + 1:]
            out.append((header, payload))

    def pump(self):
        """Reads what is available; False at EOF."""
        data = self.sock.recv(1 << 20)
        if not data:
            return False
        self.buf += data
        return True

    def call(self, data, timeout=DAEMON_TIMEOUT_S):
        """Sends one request and waits for its single reply."""
        self.send(data)
        self.sock.settimeout(timeout)
        try:
            while True:
                got = self.frames()
                if got:
                    return got[0]
                if not self.pump():
                    raise BenchError("rv_serve closed the connection")
        finally:
            self.sock.settimeout(None)

    def close(self):
        self.sock.close()


class Daemon:
    """A resident rv_serve on a Unix socket, stopped by `stop()`."""

    def __init__(self, sock_path, cache_dir, extra):
        rm(sock_path)
        self.sock_path = sock_path
        self.err = open(sock_path + ".err", "wb")
        self.proc = subprocess.Popen(
            [os.path.join(BIN, "rv_serve"), "--socket", sock_path,
             "--cache-dir", cache_dir, "--quiet"] + extra,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self.err)
        self.peak_rss_kb = 0

    def wait_ready(self):
        """Waits until the daemon answers `status`; returns its counters."""
        deadline = time.perf_counter() + DAEMON_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise BenchError("rv_serve exited with %d at start-up"
                                 % self.proc.returncode)
            try:
                conn = Conn(self.sock_path)
                break
            except OSError:
                if time.perf_counter() > deadline:
                    raise BenchError("rv_serve did not open its socket")
                time.sleep(0.001)
        try:
            return self.status(conn)
        finally:
            conn.close()

    def status(self, conn):
        header, _ = conn.call(b'{"op":"status","id":"status"}\n')
        return header

    def stop(self):
        if self.proc.poll() is None:
            self.peak_rss_kb = peak_rss_kb(self.proc.pid)
            try:
                conn = Conn(self.sock_path)
                conn.call(b'{"op":"shutdown","id":"shutdown"}\n', timeout=10)
                conn.close()
            except (OSError, BenchError, ValueError):
                pass
            try:
                self.proc.wait(timeout=DAEMON_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.err.close()
        return self.proc.returncode


@contextlib.contextmanager
def no_gc():
    """Keeps the client's garbage collector out of timed loops: a full
    collection over the growing sample lists would stall the client
    and show up as server latency."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def closed_loop(sock_path, requests, expected, connections, seconds,
                min_requests=0):
    """Closed loop over `connections` sockets, each with one request in
    flight.  requests: list of (key, bytes) cycled in order; expected:
    key -> payload bytes.  Returns ([(key, latency s, completion s)],
    mismatches, elapsed s)."""
    conns = [Conn(sock_path) for _ in range(connections)]
    sel = selectors.DefaultSelector()
    for c in conns:
        sel.register(c.sock, selectors.EVENT_READ, c)
    latencies = []
    mismatches = []
    inflight = {}
    sent = 0
    t_start = time.perf_counter()
    stop_at = t_start + seconds

    def issue(c):
        nonlocal sent
        key, data = requests[sent % len(requests)]
        inflight[c] = (key, time.perf_counter())
        c.send(data)
        sent += 1

    for c in conns:
        issue(c)
    while inflight:
        for sk, _ in sel.select(timeout=DAEMON_TIMEOUT_S):
            c = sk.data
            if not c.pump():
                raise BenchError("rv_serve closed a client connection")
            for header, payload in c.frames():
                now = time.perf_counter()
                key, t0 = inflight.pop(c)
                latencies.append((key, now - t0, now - t_start))
                if (header.get("reply") != "ok" or header.get("misses") != 0
                        or payload != expected[key]):
                    mismatches.append("%s: %s" % (key, header))
                if now < stop_at or len(latencies) < min_requests:
                    issue(c)
    elapsed = time.perf_counter() - t_start
    for c in conns:
        c.close()
    return latencies, mismatches, elapsed


# ---------------------------------------------------------------------------
# Result assembly
# ---------------------------------------------------------------------------

class Result:
    def __init__(self):
        self.metrics = {}
        self.attempted = 0
        self.failures = []
        self.detail = {}
        self.valid = True
        self.reference_output = None

    def reference(self, base):
        """One run of `calibrate`, checked; returns its wall time (s)."""
        out = os.path.join(base, "calibrate.out")
        wall, code, _, _ = spawn([os.path.join(BUILD, "calibrate")], out)
        output = read_bytes(out)
        if self.reference_output is None:
            self.reference_output = output
        self.check(code == 0 and output == self.reference_output,
                   "calibrate: exit %d or its checksum changed" % code)
        return wall

    def scaled_setup(self, base, seconds):
        """A set-up time scaled by a `calibrate` run taken right after
        it, like the reproduce series (see REF_NOMINAL_S)."""
        return seconds * REF_NOMINAL_S / self.reference(base)

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}

    def ok_ratio(self):
        self.metric("ok_ratio", (self.attempted - len(self.failures)) /
                    max(1, self.attempted), "ratio")


def ms_rows(samples_s):
    """stats.summary of a series of seconds, in milliseconds."""
    s = stats.summary([x * 1e3 for x in samples_s])
    return {"n": s["n"], "p50_ms": s["p50"], "tail_p": s["tail_p"],
            "tail_ms": s["tail"]}


def require_tail(res, name, values, p, smoke):
    """The percentile rule: a p-th percentile is reported only with at
    least stats.MIN_BEYOND samples beyond it; otherwise the run is
    invalid (smoke runs excepted)."""
    if stats.samples_beyond(len(values), p) >= stats.MIN_BEYOND:
        return True
    if not smoke:
        res.valid = False
        res.detail.setdefault("invalid", []).append(
            "%s: %d samples are too few for p%g" % (name, len(values), p))
    return smoke


# ---------------------------------------------------------------------------
# Workload: reproduce
# ---------------------------------------------------------------------------

def golden(*parts):
    return read_bytes(os.path.join("tests", "golden", *parts))


def artifact_set(root):
    out = []
    for d, _, files in os.walk(root):
        for f in files:
            out.append(os.path.relpath(os.path.join(d, f), root))
    return sorted(out)


def workload_reproduce(seed, seconds, smoke):
    res = Result()
    base = fresh_dir(os.path.join(RUN, "reproduce"))
    rv_batch = os.path.join(BIN, "rv_batch")
    peak_kb = 0

    # Set-up: a warm cache directory of the five shipped sets.
    setup, setup_scaled = [], []
    for i in range(1 if smoke else SETUP_REPEATS):
        cache = fresh_dir(os.path.join(base, "cache%d" % i))
        t0 = time.perf_counter()
        for s in SETS:
            _, code, _, _ = spawn([rv_batch, "run", "--set", s, "--threads",
                                   "1", "--cache-dir", cache],
                                  os.path.join(base, "setup.out"))
            if code != 0:
                raise BenchError("set-up: rv_batch run --set %s exited %d"
                                 % (s, code))
        setup.append(time.perf_counter() - t0)
        setup_scaled.append(res.scaled_setup(base, setup[-1]))

    pins = {s: golden("rv_batch", s + ".csv") for s in SETS}
    pinned_artifacts = {
        b: [p for p in artifact_set(os.path.join("tests", "golden", b))
            if p != "stdout.txt"] for b in BINARIES}
    rng = random.Random("reproduce-%d" % seed)
    cold = {s: [] for s in SETS}
    warm = {s: [] for s in SETS}
    bins = {b: [] for b in BINARIES}
    multi_core = set()
    passes = {"gather": [], "sets_cold": [], "sets_warm": [], "tables": [],
              "reference": []}
    scaled = {"gather": [], "sets_cold": [], "sets_warm": [], "tables": []}

    def run_cold(s):
        nonlocal peak_kb
        out = os.path.join(base, s + ".cold.csv")
        wall, code, rss, _ = spawn([rv_batch, "run", "--set", s, "--threads",
                                    "1"], out)
        peak_kb = max(peak_kb, rss)
        res.check(code == 0 and read_bytes(out) == pins[s],
                  "cold %s: exit %d or bytes differ from its pin" % (s, code))
        cold[s].append(wall)
        if s == "gather-fleet":
            run_reference()
        return wall

    def run_reference():
        passes["reference"].append(res.reference(base))

    t_start = time.perf_counter()
    while not passes["tables"] or time.perf_counter() - t_start < seconds:
        order = list(SETS)
        rng.shuffle(order)
        pass_cold = pass_warm = pass_tables = 0.0
        for s in order:
            wall = run_cold(s)
            if s != "gather-fleet":
                pass_cold += wall
        for _ in range(WARM_ROUNDS):
            for s in order:
                out = os.path.join(base, s + ".warm.csv")
                wall, code, rss, _ = spawn([rv_batch, "run", "--set", s,
                                            "--threads", "1", "--cache-dir",
                                            cache, "--require-all-hits"], out)
                peak_kb = max(peak_kb, rss)
                res.check(code == 0 and read_bytes(out) == pins[s],
                          "warm %s: exit %d or bytes differ from its pin"
                          % (s, code))
                warm[s].append(wall)
                pass_warm += wall / WARM_ROUNDS
        order = list(BINARIES)
        rng.shuffle(order)
        # The other cold gather-fleet runs of the pass, spread over it.
        gather_after = {order[len(order) * k // GATHER_RUNS - 1]
                        for k in range(1, GATHER_RUNS)}
        for b in order:
            cwd = fresh_dir(os.path.join(base, "bin", b))
            out = os.path.join(base, b + ".stdout")
            wall, code, rss, cpu = spawn([os.path.abspath(os.path.join(BIN, b))],
                                         out, cwd=cwd)
            peak_kb = max(peak_kb, rss)
            if cpu > wall * 1.2:
                multi_core.add(b)
            produced = artifact_set(cwd)
            ok = (code == 0 and
                  read_bytes(out) == golden(b, "stdout.txt") and
                  produced == pinned_artifacts[b] and
                  all(read_bytes(os.path.join(cwd, p)) == golden(b, p)
                      for p in produced))
            res.check(ok, "%s: exit %d or stdout/artifacts differ from the "
                      "pins" % (b, code))
            bins[b].append(wall)
            pass_tables += wall
            if b in gather_after:
                run_cold("gather-fleet")
        passes["gather"].append(stats.mean(cold["gather-fleet"][-GATHER_RUNS:]))
        passes["sets_cold"].append(pass_cold)
        passes["sets_warm"].append(pass_warm)
        passes["tables"].append(pass_tables)
        scale = REF_NOMINAL_S / stats.mean(passes["reference"][-GATHER_RUNS:])
        for key in scaled:
            scaled[key].append(passes[key][-1] * scale)

    res.metric("setup_s", stats.median(setup_scaled), "s")
    res.metric("gather_cold_ms", stats.median(passes["gather"]) * 1e3, "ms")
    res.metric("sets_cold_ms", stats.median(passes["sets_cold"]) * 1e3, "ms")
    res.metric("sets_warm_ms", stats.median(passes["sets_warm"]) * 1e3, "ms")
    res.metric("paper_tables_s", stats.median(passes["tables"]), "s")
    res.metric("reference_ms", stats.median(passes["reference"]) * 1e3, "ms")
    res.metric("gather_cold_scaled_ms", stats.median(scaled["gather"]) * 1e3,
               "ms")
    res.metric("sets_cold_scaled_ms", stats.median(scaled["sets_cold"]) * 1e3,
               "ms")
    res.metric("sets_warm_scaled_ms", stats.median(scaled["sets_warm"]) * 1e3,
               "ms")
    res.metric("paper_tables_scaled_s", stats.median(scaled["tables"]), "s")
    res.metric("peak_rss_mb", peak_kb / 1024.0, "MB")
    res.ok_ratio()
    res.detail["passes"] = len(passes["tables"])
    res.detail.update(setup_raw_s=setup, setup_scaled_s=setup_scaled)
    res.detail["rows"] = (
        [dict(ms_rows(cold[s]), row="rv_batch cold " + s, cores="single")
         for s in SETS] +
        [dict(ms_rows(warm[s]), row="rv_batch warm " + s, cores="single")
         for s in SETS] +
        [dict(ms_rows(bins[b]), row=b,
              cores="multi" if b in multi_core else "single")
         for b in BINARIES])
    return res


# ---------------------------------------------------------------------------
# Workload: serve-warm
# ---------------------------------------------------------------------------

def shipped_cache(path, out_dir):
    """Populates a cache directory with the five shipped sets."""
    fresh_dir(path)
    for s in SETS:
        _, code, _, _ = spawn([os.path.join(BIN, "rv_batch"), "run", "--set", s,
                               "--threads", "1", "--cache-dir", path],
                              os.path.join(out_dir, "cache.out"))
        if code != 0:
            raise BenchError("rv_batch run --set %s exited %d" % (s, code))


def warm_requests(seed):
    """The 20 serve-warm request kinds (5 sets x named/body x csv/json),
    cycled from a seeded starting point.  The cycle itself is fixed, so
    every seed interleaves the same neighbours on the connections."""
    kinds = [(s, how, fmt) for how in ("set", "body") for fmt in ("csv", "json")
             for s in SETS]
    start = random.Random("serve-warm-%d" % seed).randrange(len(kinds))
    kinds = kinds[start:] + kinds[:start]
    requests = []
    for i, (s, how, fmt) in enumerate(kinds):
        body = None
        if how == "body":
            with open(os.path.join("examples", "sets", s + ".rvset")) as f:
                body = f.read()
        requests.append(((s, how, fmt), run_request("w%d" % i, fmt, s, body)))
    return requests


def expected_payloads(out_dir):
    """(set, format) -> reply payload bytes: the csv pins, and the
    rv_batch json documents (linear-line's json is pinned too)."""
    expected = {}
    for s in SETS:
        expected[(s, "csv")] = golden("rv_batch", s + ".csv")
        out = os.path.join(out_dir, s + ".json")
        _, code, _, _ = spawn([os.path.join(BIN, "rv_batch"), "run", "--set", s,
                               "--threads", "1", "--format", "json"], out)
        if code != 0:
            raise BenchError("rv_batch --format json --set %s exited %d"
                             % (s, code))
        expected[(s, "json")] = read_bytes(out)
    if expected[("linear-line", "json")] != golden("rv_batch", "linear-line.json"):
        raise BenchError("rv_batch json output differs from its pin")
    return expected


def start_daemon_timed(base, i, cache_fn, extra):
    """One timed set-up: cache_fn(cache_dir) then a daemon warm-loaded
    from it, ready for requests.  Returns (seconds, daemon, status)."""
    cache = os.path.join(base, "cache%d" % i)
    t0 = time.perf_counter()
    cache_fn(cache)
    daemon = Daemon(os.path.join(base, "d%d.sock" % i), cache, extra)
    try:
        status = daemon.wait_ready()
    except BaseException:
        daemon.stop()
        raise
    return time.perf_counter() - t0, daemon, status


def timed_setups(res, base, smoke, cache_fn, extra, ready):
    """SETUP_REPEATS full set-ups, each followed by a `calibrate` run;
    keeps the last daemon running.  Returns (raw times, scaled times,
    daemon)."""
    times, scaled = [], []
    daemon = None
    for i in range(1 if smoke else SETUP_REPEATS):
        if daemon is not None:
            daemon.stop()
        seconds, daemon, status = start_daemon_timed(base, i, cache_fn, extra)
        times.append(seconds)
        if not ready(status):
            daemon.stop()
            raise BenchError("rv_serve came up with unexpected state: %s"
                             % status)
        try:
            scaled.append(res.scaled_setup(base, seconds))
        except BaseException:
            daemon.stop()
            raise
    return times, scaled, daemon


def workload_serve_warm(seed, seconds, smoke):
    res = Result()
    base = fresh_dir(os.path.join(RUN, "serve-warm"))
    payloads = expected_payloads(base)
    requests = warm_requests(seed)
    expected = {key: payloads[(key[0], key[2])] for key, _ in requests}
    shipped_cells = 34
    setup, setup_scaled, daemon = timed_setups(
        res, base, smoke, lambda c: shipped_cache(c, base), ["--threads", "1"],
        lambda st: st.get("cache_entries") == shipped_cells)
    connections = max(1, min(2, nproc() - 1))
    try:
        with no_gc():
            latencies, mismatches, elapsed = closed_loop(
                daemon.sock_path, requests, expected, connections, seconds)
        conn = Conn(daemon.sock_path)
        status = daemon.status(conn)
        conn.close()
    finally:
        code = daemon.stop()
    res.attempted += len(latencies)
    res.failures += mismatches
    res.check(code == 0, "rv_serve exited %s" % code)
    res.check(status.get("rejected") == 0 and status.get("misses") == 0,
              "warm daemon rejected or recomputed: %s" % status)
    us = [x * 1e6 for _, x, _ in latencies]
    body_us = [x * 1e6 for key, x, _ in latencies if key[1] == "body"]
    # Completions per WARM_WINDOW_S window (the last, partial window
    # joins the one before).
    windows = max(1, int(elapsed // WARM_WINDOW_S))
    per_window = [[] for _ in range(windows)]
    for _, x, done in latencies:
        per_window[min(windows - 1, int(done // WARM_WINDOW_S))].append(x * 1e6)
    spans = [WARM_WINDOW_S] * (windows - 1) + [
        elapsed - WARM_WINDOW_S * (windows - 1)]
    window_rps = [len(w) / span for w, span in zip(per_window, spans)]
    window_p99 = [stats.percentile(w, 99.0) for w in per_window if w]
    res.metric("setup_s", stats.median(setup_scaled), "s")
    res.metric("warm_p50_us", stats.median(us), "us")
    if all(require_tail(res, "warm_p99_us window", w, 99.0, smoke)
           for w in per_window):
        res.metric("warm_p99_us", stats.percentile(window_p99, 25.0), "us")
    res.metric("warm_rps", stats.percentile(window_rps, 75.0), "1/s")
    res.metric("warm_body_p50_us", stats.median(body_us), "us")
    res.metric("peak_rss_mb", daemon.peak_rss_kb / 1024.0, "MB")
    res.ok_ratio()
    res.detail.update(setup_raw_s=setup, setup_scaled_s=setup_scaled,
                      connections=connections,
                      requests=len(latencies), status=status,
                      latency_us=stats.summary(us),
                      whole_run_p99_us=stats.percentile(us, 99.0),
                      whole_run_rps=len(latencies) / elapsed,
                      window_p99_us=window_p99, window_rps=window_rps)
    return res


# ---------------------------------------------------------------------------
# Workload: serve-cold-mix
# ---------------------------------------------------------------------------

def prewarm(cache, base, seed):
    """The serve-cold-mix working set, computed into `cache`."""
    fresh_dir(cache)
    body = os.path.join(base, "working-set.rvset")
    with open(body, "w") as f:
        f.write(gen.working_set(seed))
    _, code, _, _ = spawn([os.path.join(BIN, "rv_batch"), "run", "--set-file",
                           body, "--threads", str(nproc()), "--cache-dir",
                           cache], os.path.join(base, "prewarm.out"))
    if code != 0:
        raise BenchError("pre-warm rv_batch exited %d" % code)


def mix_bodies(seed, schedule):
    hits = gen.hit_bodies(seed)
    return [hits[i] if kind == "hit" else gen.miss_body(seed, i)
            for kind, i, _ in schedule]


def open_loop(sock_path, requests, offsets):
    """Sends requests[i] at t0 + offsets[i] on one pipelined connection
    while a second thread reads replies as they arrive.  Latency is
    timed from when a request was due, not from when it was sent.  A
    status request goes out the moment the window ends."""
    conn = Conn(sock_path)
    n = len(requests)
    t0 = time.perf_counter() + 0.05
    due = [t0 + x for x in offsets]
    late = []
    replies = {}
    status = {}
    failure = []

    def receive():
        try:
            while len(replies) < n or not status:
                if not conn.pump():
                    raise BenchError("rv_serve closed the mix connection")
                got = time.perf_counter()
                for header, payload in conn.frames():
                    if header.get("reply") == "status":
                        status.update(header)
                    else:
                        k = int(header["id"][1:])
                        replies[k] = (header, payload, got - due[k])
        except (BenchError, OSError, ValueError, KeyError) as e:
            failure.append(e)

    receiver = threading.Thread(target=receive)
    receiver.start()
    try:
        for i in range(n):
            wait = due[i] - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            late.append(time.perf_counter() - due[i])
            conn.send(requests[i])
        conn.send(b'{"op":"status","id":"status"}\n')
    finally:
        receiver.join(timeout=60.0)
        if receiver.is_alive():
            conn.sock.shutdown(socket.SHUT_RDWR)
            receiver.join()
            failure.append(BenchError("open loop: replies still missing 60 s "
                                      "after the window"))
        conn.close()
    if failure:
        raise BenchError("open loop: %s" % failure[0])
    return replies, late, status


def verify_mix(base, schedule, bodies, replies):
    """Re-runs every distinct body through `rv_batch run --set-file`
    (outside the timed window) and compares payload bytes."""
    jobs, keys = [], []
    seen = {}
    mismatches = []
    for k, (kind, idx, fmt) in enumerate(schedule):
        header, payload, _ = replies[k]
        if header.get("reply") != "ok":
            mismatches.append("mix request %d: %s" % (k, header))
            continue
        key = (kind, idx, fmt)
        if key in seen:
            if payload != seen[key]:
                mismatches.append("mix request %d: payload changed" % k)
            continue
        seen[key] = payload
        path = os.path.join(base, "verify", "%s-%d.rvset" % (kind, idx))
        if not os.path.exists(path):
            with open(path, "w") as f:
                f.write(bodies[k])
        jobs.append(([os.path.join(BIN, "rv_batch"), "run", "--set-file", path,
                      "--threads", "1", "--format", fmt],
                     path[:-6] + "." + fmt))
        keys.append(key)
    codes = run_parallel(jobs, max(1, nproc() - 1))
    for key, code, (_, out) in zip(keys, codes, jobs):
        if code != 0 or read_bytes(out) != seen[key]:
            mismatches.append("mix %s %d %s: differs from rv_batch run "
                              "--set-file" % key)
    return len(jobs), mismatches


def workload_serve_cold_mix(seed, seconds, smoke):
    rate = MIX_RATE
    res = Result()
    base = fresh_dir(os.path.join(RUN, "serve-cold-mix"))
    os.makedirs(os.path.join(base, "verify"))
    n = max(1, int(rate * seconds))
    schedule = gen.mix_schedule(seed, n)
    bodies = mix_bodies(seed, schedule)
    requests = [run_request("m%d" % k, fmt, body=bodies[k])
                for k, (_, _, fmt) in enumerate(schedule)]
    cells = gen.working_set_cells()
    setup, setup_scaled, daemon = timed_setups(
        res, base, smoke, lambda c: prewarm(c, base, seed),
        ["--procs", "2", "--threads", "2"],
        lambda st: st.get("cache_entries") == cells)
    try:
        with no_gc():
            replies, late, status = open_loop(
                daemon.sock_path, requests, gen.arrivals(seed, rate, n))
    finally:
        code = daemon.stop()
    res.check(code == 0, "rv_serve exited %s" % code)
    verified, mismatches = verify_mix(base, schedule, bodies, replies)
    res.attempted += n
    res.failures += mismatches
    for k, (kind, _, _) in enumerate(schedule):
        header = replies[k][0]
        if kind == "hit" and header.get("misses") != 0:
            res.failures.append("mix request %d: working-set body missed" % k)
    all_ms = [replies[k][2] * 1e3 for k in range(n)]
    hit_ms = [replies[k][2] * 1e3 for k in range(n)
              if replies[k][0].get("misses") == 0]
    miss_ms = [replies[k][2] * 1e3 for k in range(n)
               if replies[k][0].get("misses", 0) > 0]
    late_ms = [x * 1e3 for x in late]
    backlog = status.get("inflight", 0)
    res.detail.update(
        setup_raw_s=setup, setup_scaled_s=setup_scaled, offered_rate=rate, requests=n, verified_bodies=verified,
        generator_late_ms=stats.summary(late_ms),
        end_status={k: status.get(k) for k in ("queue_depth", "inflight",
                                               "rejected", "hits", "misses",
                                               "cache_entries")},
        latency_ms={name: dict(stats.summary(v), **{
            "p%g" % p: stats.percentile(v, p) for p in (90.0, 95.0, 99.0)})
            for name, v in (("all", all_ms), ("hits", hit_ms),
                            ("misses", miss_ms)) if v})
    if stats.percentile(late_ms, 99.0) > MAX_LATE_P99_MS:
        res.valid = False
        res.detail.setdefault("invalid", []).append(
            "generator fell behind: p99 lateness %.3f ms"
            % stats.percentile(late_ms, 99.0))
    if not miss_ms:
        res.valid = False
        res.detail.setdefault("invalid", []).append("no request missed")
    if backlog > MAX_END_BACKLOG or status.get("rejected", 0) > 0:
        res.valid = False
        res.detail.setdefault("invalid", []).append(
            "backlog grew: %d requests in flight, %d rejected at the end"
            % (backlog, status.get("rejected", 0)))
    res.metric("setup_s", stats.median(setup_scaled), "s")
    if res.valid:
        res.metric("mix_p50_ms", stats.median(all_ms), "ms")
        if require_tail(res, "mix_p99_ms", all_ms, 99.0, smoke):
            res.metric("mix_p99_ms", stats.percentile(all_ms, 99.0), "ms")
        if require_tail(res, "mix_hit_p99_ms", hit_ms, 99.0, smoke):
            res.metric("mix_hit_p99_ms", stats.percentile(hit_ms, 99.0), "ms")
        if miss_ms:
            res.metric("mix_miss_p50_ms", stats.median(miss_ms), "ms")
    if not res.valid:
        for name in ("mix_p50_ms", "mix_p99_ms", "mix_hit_p99_ms",
                     "mix_miss_p50_ms"):
            res.metrics.pop(name, None)
    res.metric("peak_rss_mb", daemon.peak_rss_kb / 1024.0, "MB")
    res.ok_ratio()
    return res


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

def trace_run(seed, smoke):
    res = Result()
    base = fresh_dir(os.path.join(RUN, "trace"))
    small = os.path.join(base, "small")
    large = os.path.join(base, "large")
    shipped_cache(small, base)
    prewarm(large, base, seed)
    fork_body = os.path.join(base, "fork-probe.rvset")
    with open(fork_body, "w") as f:
        f.write(gen.fork_probe_body())
    out = os.path.join(base, "probe.json")
    _, code, _, _ = spawn([os.path.join(BUILD, "layer_probe"), "layers",
                           "--sets", os.path.join("examples", "sets"),
                           "--golden", os.path.join("tests", "golden"),
                           "--small-cache", small, "--large-cache", large,
                           "--fork-body", fork_body,
                           "--scratch", os.path.join(base, "probe")], out)
    if code != 0:
        raise BenchError("layer_probe exited %d; see %s.err" % (code, out))
    probe = json.loads(read_bytes(out))
    for name, (value, unit) in probe["metrics"].items():
        res.metric(name, value, unit)
    res.attempted += probe["attempted"]
    res.failures += probe["failures"]
    res.detail["probe"] = probe["detail"]

    # serve.transport: socket p50 minus in-process p50, same requests.
    expected = {}
    requests = []
    expected = {}
    for i, s in enumerate(SETS):
        with open(os.path.join("examples", "sets", s + ".rvset")) as f:
            requests.append((s, run_request("t%d" % i, "csv", body=f.read())))
        expected[s] = golden("rv_batch", s + ".csv")
    daemon = Daemon(os.path.join(base, "t.sock"), small, ["--threads", "1"])
    try:
        daemon.wait_ready()
        with no_gc():
            latencies, mismatches, _ = closed_loop(
                daemon.sock_path, requests, expected, 1,
                0.5 if smoke else 2.0, min_requests=0 if smoke else 2000)
    finally:
        code = daemon.stop()
    res.check(code == 0, "rv_serve exited %s" % code)
    res.attempted += len(latencies)
    res.failures += mismatches
    socket_p50 = stats.median([x * 1e6 for _, x, _ in latencies])
    res.metric("serve.transport.us",
               socket_p50 - probe["metrics"]["serve.process.us"][0], "us")

    # serve.hit_ratio / serve.rejected: a fixed count of mix requests,
    # one at a time, against the pre-warmed forked daemon.
    count = 40 if smoke else 200
    schedule = gen.mix_schedule(seed, count)
    bodies = mix_bodies(seed, schedule)
    daemon = Daemon(os.path.join(base, "m.sock"), large,
                    ["--procs", "2", "--threads", "2"])
    try:
        daemon.wait_ready()
        conn = Conn(daemon.sock_path)
        for k, (_, _, fmt) in enumerate(schedule):
            header, _ = conn.call(run_request("m%d" % k, fmt, body=bodies[k]))
            res.check(header.get("reply") == "ok",
                      "mix request %d: %s" % (k, header))
        status = daemon.status(conn)
        conn.close()
    finally:
        code = daemon.stop()
    res.check(code == 0, "rv_serve exited %s" % code)
    cells = status["hits"] + status["misses"]
    res.metric("serve.hit_ratio", status["hits"] / max(1, cells), "ratio")
    res.metric("serve.rejected", status["rejected"], "count")
    res.detail["mix_status"] = status
    return res


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

# Every run reports every end-to-end metric, so the workloads share four
# latency slots (all in ms, lower is better).  Each slot carries one
# workload metric, named in the run record and in README.md.
SLOTS = ("series_a_ms", "series_b_ms", "series_c_ms", "series_d_ms")
SLOT_SOURCES = {
    "reproduce": ("gather_cold_scaled_ms", "sets_cold_scaled_ms",
                  "sets_warm_scaled_ms", "paper_tables_scaled_s"),
    "serve-warm": ("warm_p50_us", "warm_p99_us", "warm_rps",
                   "warm_body_p50_us"),
    "serve-cold-mix": ("mix_p50_ms", "mix_p99_ms", "mix_hit_p99_ms",
                       "mix_miss_p50_ms"),
}


def as_ms(metric):
    """A workload metric as milliseconds (a rate as ms per request)."""
    value, unit = metric["value"], metric["unit"]
    return {"ms": value, "s": value * 1e3, "us": value * 1e-3,
            "1/s": 1e3 / value}[unit]


def end_to_end(workload, named):
    """The reported end-to-end metrics of a workload's named metrics."""
    out = {name: named[name] for name in ("setup_s", "peak_rss_mb", "ok_ratio")}
    for slot, source in zip(SLOTS, SLOT_SOURCES[workload]):
        if source in named:
            out[slot] = {"value": as_ms(named[source]), "unit": "ms"}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="short self-check: one set-up, no sample-count rule")
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    try:
        check_checkout()
        # The compiler's and the programs' temporary files stay in the
        # checkout too.
        tmp = os.path.abspath(os.path.join(RUN, "tmp"))
        os.makedirs(tmp, exist_ok=True)
        os.environ["TMPDIR"] = tmp
        build(probe=args.trace == 1)
        cache = cmake_cache()
        guard(cache)
        ctx = context(args.seed, cache)
        log("context %s" % json.dumps(ctx))
        steal0, wall0 = cpu_steal_s(), time.perf_counter()
        if args.trace:
            res = trace_run(args.seed, args.smoke)
        elif args.workload == "reproduce":
            res = workload_reproduce(args.seed, args.seconds, args.smoke)
        elif args.workload == "serve-warm":
            res = workload_serve_warm(args.seed, args.seconds, args.smoke)
        else:
            res = workload_serve_cold_mix(args.seed, args.seconds, args.smoke)
    except BenchError as e:
        log("error: %s" % e)
        return 2

    # Share of the machine's CPU time the hypervisor stole during the
    # run: context for reading noisy figures.
    ctx["steal_share"] = (cpu_steal_s() - steal0) / (
        (time.perf_counter() - wall0) * (os.cpu_count() or 1))
    for f in res.failures[:20]:
        log("FAILED: %s" % f)
    for why in res.detail.get("invalid", []):
        log("INVALID: %s" % why)
    metrics = res.metrics if args.trace else end_to_end(args.workload,
                                                        res.metrics)
    record = {"workload": args.workload, "trace": args.trace,
              "context": ctx, "valid": res.valid,
              "attempted": res.attempted, "failed": len(res.failures),
              "failures": res.failures, "metrics": metrics,
              "named_metrics": res.metrics, "detail": res.detail}
    results = os.path.join(RUN, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"correct": res.valid and not res.failures,
                      "attempted": max(1, res.attempted),
                      "failed": len(res.failures),
                      "metrics": metrics}))
    return 0 if res.valid else 1


if __name__ == "__main__":
    sys.exit(main())
