#!/usr/bin/env python3
"""The folearn benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a folearn checkout.  It builds the CLI and the
benchmark's in-process helper (perfbench/probe) with dune, makes the
workload's inputs from --seed, measures for --seconds, checks every
output, and prints one JSON object as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.  Details of each run
(samples, per-op records, spans) go to perfbench/_out/.

Workloads (the seed picks graphs, colour classes, targets, samples and
label noise; the programs only see the generated inputs):

  dense-types   one-shot `folearn_cli learn --jobs 1`, one fresh process
                per op.  Brute ERM (k=1, l=1, q=2) on an uncoloured gnp
                graph and a 2-colour grid, counting ERM (q=2) on a
                coloured gnp graph, plus small local and nd ops (q=2) on
                coloured gnp graphs.  Noise-free in-class targets.
                Type computation is nearly all the work.
  sparse-local  one-shot `learn --jobs 1` with q=1 and 10% label noise:
                nd on grids and bounded-degree graphs, local on
                bounded-degree graphs, plus small brute and counting ops
                on sampled examples.  Balls, local types and Splitter
                rounds are the work; a type-kernel change should leave
                learn_nd_s and learn_local_s here unchanged.
  serve-mix     a resident `folearn_cli serve --jobs 1` driven by a
                closed loop of 2 connections (Serve.Client.rpc, in the
                probe) with a seeded mix of short learn ops (all four
                solvers), mc, types --hintikka and game, plus a share of
                submit + poll jobs that checkpoint to --job-dir.  Engine
                work per request is small, so framing, admission,
                queueing and compile-cache hits are a visible share.

Every workload reports every end-to-end metric, so a gain for one solver
cannot hide a loss for another: a one-shot op is a request whose latency
is its process's wall time, and a served learn op is that solver's
per-op time.  One-shot workloads repeat their op list in rounds, each
round on fresh inputs from the seed, until --seconds have passed, and
report medians over rounds.  A round mixes op kinds of very different
cost, so a percentile over all its ops would jump between them; there
req_p50_ms is the round's mean op latency and req_p95_ms the round's
nearest-rank p95 (a fixed rank in a fixed mix of kinds), each the median
over rounds.  set-up is the generation and labelling of a round's inputs
just before it runs (serve-mix: generating the mix, starting the daemon
until /healthz answers, one untimed pass); setup_s is the median of
several.

The traced run (--trace 1) replays the first round, or the serve mix,
in-process (probe trace) with spans around the modules' public calls,
then, for serve-mix, drives a daemon again with client-side spans.  It
re-evaluates each learned witness with Modelcheck.Eval where that is
feasible; the one-shot rounds get one more small local op so that the
local solver's witness is re-evaluated on every workload.
Which end-to-end metric each layer should move:

  cgraph.*, nd.*, local.*, splitter.*   learn_nd_s, learn_local_s on sparse-local
  types.*, hintikka.*, erm.brute/vote   learn_brute_s, peak_rss_mb on dense-types
  types.ltp_*                           learn_local_s on sparse-local
  ctypes.*                              learn_counting_s on dense-types
  fo.parse_ms, compile.*, plan.*        req_p50_ms on serve-mix
  serve.*, resil.*, pulse.*             req_p95_ms, req_per_s on serve-mix
  par.*, fail_frac                      attempted/failed on every workload
"""

import argparse
import atexit
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

CLI = os.path.join("_build", "default", "bin", "folearn_cli.exe")
PROBE = os.path.join("_build", "default", "perfbench", "probe", "probe.exe")
OUT = os.path.join("perfbench", "_out")
JOBS = 1
CONNS = min(2, os.cpu_count() or 1)
SERVE_SETUP_REPEATS = 3
SOLO_SHARE = 0.25
SEGMENTS = 3

WORKLOADS = ("dense-types", "sparse-local", "serve-mix")
SOLVERS = ("brute", "counting", "nd", "local")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(3)


# ---------------------------------------------------------------------------
# inputs


def colour_sets(rng, n, names, share):
    """Disjoint random colour classes, each about `share` of the vertices."""
    verts = list(range(n))
    rng.shuffle(verts)
    size = max(1, int(n * share))
    return ["%s=%s" % (name, ",".join(str(v) for v in sorted(verts[i * size:(i + 1) * size])))
            for i, name in enumerate(names)]


UNCOLOURED_TARGETS = (
    "exists y. (E(x1,y) & exists z. (E(y,z) & ~z = x1))",
    "exists y. exists z. (E(x1,y) & E(x1,z) & ~y = z)",
    "exists y. (E(x1,y) & forall z. (~E(y,z) | z = x1))",
)
RED_BLUE_TARGETS = (
    "exists y. (E(x1,y) & Red(y))",
    "Red(x1) | exists y. (E(x1,y) & Blue(y))",
    "exists y. (E(x1,y) & ~Red(y) & ~Blue(y))",
)
RED_TARGETS = (
    "exists y. (E(x1,y) & Red(y))",
    "Red(x1) | exists y. (E(x1,y) & Red(y))",
    "~Red(x1) & exists y. (E(x1,y) & Red(y))",
)


def learn(solver, graph, target, colors=(), q=1, ell=1, m=0, noise=0.0, seed=1, tmax=2):
    return {"op": "learn", "kind": "call", "params": {
        "graph": graph, "colors": list(colors), "target": target, "k": 1,
        "ell": ell, "q": q, "solver": solver, "tmax": tmax, "noise": noise,
        "m": m, "seed": seed}}


def dense_round(rng):
    """Type-heavy ops, all at q=2 and noise-free."""
    s = lambda: rng.randrange(1, 10 ** 6)  # noqa: E731
    ops = [
        learn("brute", "gnp:22:0.1:%d" % s(), rng.choice(UNCOLOURED_TARGETS), q=2),
        learn("brute", "grid:4x5", rng.choice(RED_BLUE_TARGETS),
              colour_sets(rng, 20, ("Red", "Blue"), 0.25), q=2),
    ]
    # nd on one graph shape, so only colours and targets vary its cost
    for _ in range(3):
        ops.append(learn("nd", "gnp:40:0.12", rng.choice(RED_TARGETS),
                         colour_sets(rng, 40, ("Red",), 0.25), q=2))
    # many small counting and local instances: their cost follows the
    # number of types, which varies from graph to graph
    for _ in range(6):
        ops.append(learn("counting", "gnp:12:0.15:%d" % s(), rng.choice(RED_BLUE_TARGETS),
                         colour_sets(rng, 12, ("Red", "Blue"), 0.25), q=2))
    for _ in range(10):
        ops.append(learn("local", "gnp:14:0.15:%d" % s(), rng.choice(RED_TARGETS),
                         colour_sets(rng, 14, ("Red",), 0.3), q=2))
    return ops


def sparse_round(rng):
    """Sparse ops at q=1 with 10% label noise, so that conflicts force
    Splitter rounds."""
    s = lambda: rng.randrange(1, 10 ** 6)  # noqa: E731
    return [
        learn("nd", "grid:6x6", rng.choice(RED_TARGETS),
              colour_sets(rng, 36, ("Red",), 0.2), m=36, noise=0.1, seed=s()),
        learn("nd", "deg:40:3:%d" % s(), rng.choice(RED_TARGETS),
              colour_sets(rng, 40, ("Red",), 0.2), m=40, noise=0.1, seed=s()),
        learn("local", "deg:120:3:%d" % s(), rng.choice(RED_TARGETS),
              colour_sets(rng, 120, ("Red",), 0.2), m=120, noise=0.1, seed=s()),
        learn("brute", "grid:8x8", rng.choice(RED_TARGETS),
              colour_sets(rng, 64, ("Red",), 0.2), m=32, noise=0.1, seed=s()),
        learn("counting", "deg:64:3:%d" % s(), rng.choice(RED_TARGETS),
              colour_sets(rng, 64, ("Red",), 0.2), m=32, noise=0.1, seed=s()),
    ]


def serve_mix(rng):
    """The requests of the serve mix, in the order the clients cycle
    through them: twenty small noise-free learn ops per solver, five each
    of mc, types --hintikka and game, and five submit + poll jobs with
    label noise.  Many small instances per solver on fixed graph shapes
    (the seed picks colours, targets and samples) keep the mix's cost,
    and so its throughput, alike from seed to seed."""
    s = lambda: rng.randrange(1, 10 ** 6)  # noqa: E731
    calls = []
    for _ in range(20):
        calls += [
            learn("brute", "grid:4x4", rng.choice(RED_BLUE_TARGETS),
                  colour_sets(rng, 16, ("Red", "Blue"), 0.25)),
            learn("counting", "gnp:12:0.2", rng.choice(RED_TARGETS),
                  colour_sets(rng, 12, ("Red",), 0.3)),
            learn("local", "deg:40:3", rng.choice(RED_TARGETS),
                  colour_sets(rng, 40, ("Red",), 0.2), m=20, seed=s()),
            learn("nd", "grid:5x5", rng.choice(RED_TARGETS),
                  colour_sets(rng, 25, ("Red",), 0.2), m=25, seed=s()),
        ]
    for _ in range(5):
        calls += [
            {"op": "mc", "kind": "call", "params": {
                "graph": "gnp:30:0.1",
                "formula": "exists x. exists y. (E(x,y) & forall z. (~E(y,z) | ~E(x,z)))"}},
            {"op": "types", "kind": "call", "params": {
                "graph": "grid:4x4", "colors": colour_sets(rng, 16, ("Red",), 0.25),
                "q": 1, "k": 1, "hintikka": True}},
            {"op": "game", "kind": "call", "params": {"graph": "tree:40", "r": 2}},
        ]
    rng.shuffle(calls)
    for i in (9, 29, 49, 69, 89):
        job = learn("brute", "gnp:12:0.2:%d" % s(), rng.choice(RED_TARGETS),
                    colour_sets(rng, 12, ("Red",), 0.3), m=12, noise=0.1, seed=s())
        job["kind"] = "job"
        calls.insert(i, job)
    return calls


def write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f)


# ---------------------------------------------------------------------------
# processes


def build():
    for need in ("dune-project", os.path.join("bin", "folearn_cli.ml"), "lib"):
        if not os.path.exists(need):
            fail("not a folearn checkout (no %s here)" % need)
    r = subprocess.run(["dune", "build", "--root", ".", CLI, PROBE],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        fail("build failed:\n" + r.stdout[-4000:])


def probe(*args):
    r = subprocess.run([PROBE] + list(args), stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        fail("probe %s failed: %s" % (args[0], r.stderr[-2000:]))
    return json.loads(r.stdout.strip().splitlines()[-1])


def run_child(argv, err_path):
    """Run one process to completion; (seconds, exit code, stdout, peak RSS MB)."""
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err)
        out = p.stdout.read()
        p.stdout.close()
        _, status, ru = os.wait4(p.pid, 0)
        dt = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return dt, p.returncode, out.decode("utf-8", "replace"), ru.ru_maxrss / 1024.0


def cli_args(params):
    a = ["learn", "--jobs", str(JOBS), "-g", params["graph"], "-t", params["target"],
         "-k", str(params["k"]), "-l", str(params["ell"]), "-q", str(params["q"]),
         "--solver", params["solver"], "--tmax", str(params["tmax"]),
         "--noise", repr(params["noise"]), "-m", str(params["m"]),
         "--seed", str(params["seed"])]
    for c in params["colors"]:
        a += ["--color", c]
    return a


def check_learn(solver, bound, code, out):
    if code != 0:
        return ["exit %d" % code]
    errs = [l for l in out.splitlines() if l.startswith("training error: ")]
    if len(errs) != 1:
        return ["no training error in output"]
    err = float(errs[0].split(":")[1])
    # the CLI prints 4 decimals
    if err > bound + 5e-5:
        return ["%s error %.4f above bound %.4f" % (solver, err, bound)]
    return []


# ---------------------------------------------------------------------------
# one-shot workloads


def oneshot(workload, seed, seconds):
    make = dense_round if workload == "dense-types" else sparse_round
    tally = stats.Tally()
    rounds, setups, lat_ms, peak = [], [], [], 0.0
    t_start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - t_start < seconds:
        # set-up: the round's inputs and their expected outcomes, made
        # just before it runs and timed apart from it
        t0 = time.perf_counter()
        ops = make(random.Random("%s/%d/%d" % (workload, seed, r)))
        path = os.path.join(OUT, "ops.json")
        write_json(path, ops)
        exp = probe("expect", path)
        setups.append(time.perf_counter() - t0)
        t_round = time.perf_counter()
        per_solver = dict.fromkeys(SOLVERS, 0.0)
        round_ms = []
        for o, e in zip(ops, exp):
            p = o["params"]
            dt, code, out, rss = run_child([CLI] + cli_args(p), os.path.join(OUT, "stderr.txt"))
            problems = check_learn(p["solver"], e["bound"], code, out)
            tally.record(["round %d %s: %s" % (r, p["solver"], x) for x in problems])
            per_solver[p["solver"]] += dt
            round_ms.append(dt * 1000.0)
            peak = max(peak, rss)
        rounds.append({"wall_s": time.perf_counter() - t_round,
                       "mean_ms": statistics.mean(round_ms),
                       "p95_ms": stats.percentile(round_ms, 95), **per_solver})
        lat_ms += round_ms
        r += 1
    med = lambda k: statistics.median(x[k] for x in rounds)  # noqa: E731
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": med("wall_s"),
        "peak_rss_mb": peak,
        "req_p50_ms": med("mean_ms"),
        "req_p95_ms": med("p95_ms"),
        "req_per_s": (tally.attempted - tally.failed) / sum(x["wall_s"] for x in rounds),
    }
    for s in SOLVERS:
        metrics["learn_%s_s" % s] = med(s)
    walls = [x["wall_s"] for x in rounds]
    detail = {"rounds": rounds, "setups": setups, "lat_ms": lat_ms,
              "round_spread": stats.spread(walls) if len(walls) > 1 else None}
    return tally, metrics, detail


# ---------------------------------------------------------------------------
# serve-mix


def http_get_unix(path, url, timeout=1.0):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(timeout)
    try:
        s.connect(path)
        s.sendall(("GET %s HTTP/1.0\r\n\r\n" % url).encode())
        data = b""
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            data += chunk
        return data.decode("utf-8", "replace")
    finally:
        s.close()


LIVE = []  # daemons not yet stopped; stopped at exit whatever happens


class Daemon:
    def __init__(self, tag):
        self.sock = os.path.join(OUT, "rpc-%s.sock" % tag)
        self.msock = os.path.join(OUT, "m-%s.sock" % tag)
        jobs = os.path.join(OUT, "jobs-%s" % tag)
        shutil.rmtree(jobs, ignore_errors=True)
        self.err = open(os.path.join(OUT, "serve-%s.err" % tag), "wb")
        self.proc = subprocess.Popen(
            [CLI, "serve", "--jobs", str(JOBS), "--listen", "unix:" + self.sock,
             "--metrics-addr", "unix:" + self.msock, "--job-dir", jobs],
            stdout=subprocess.DEVNULL, stderr=self.err)
        LIVE.append(self)
        deadline = time.monotonic() + 30.0
        while True:
            if self.proc.poll() is not None:
                fail("serve exited with %d" % self.proc.returncode)
            try:
                if " 200 " in http_get_unix(self.msock, "/healthz").split("\r\n", 1)[0] \
                        and os.path.exists(self.sock):
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.stop()
                fail("serve did not answer /healthz")
            time.sleep(0.005)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self in LIVE:
            LIVE.remove(self)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.err.close()


def serve_load(daemon, ops_path, seconds, mode, spans_path, conns=CONNS):
    args = ["load", "unix:" + daemon.sock, ops_path, "%.3f" % seconds, str(conns), mode,
            spans_path]
    if mode == "traced":
        args.append("unix:" + daemon.msock)
    return probe(*args)


def serve_setup(seed):
    """Generate the mix, start the daemon, wait for /healthz, warm it up
    with one untimed pass.  Returns (daemon, ops path, seconds)."""
    t0 = time.perf_counter()
    ops = serve_mix(random.Random("serve-mix/%d" % seed))
    path = os.path.join(OUT, "mix.json")
    write_json(path, ops)
    d = Daemon(str(seed))
    w = serve_load(d, path, 0, "warm", os.path.join(OUT, "warm-spans.json"))
    if w["failed"]:
        fail("%d warm-up requests failed" % w["failed"])
    return d, path, time.perf_counter() - t0


def serve_results(reqs, tally):
    lat = [r["lat_ms"] for r in reqs]
    for r in reqs:
        tally.record([] if r["ok"] else ["%s %s: status %s or stdout differs from Serve.Exec"
                                         % (r["op"], r["solver"], r["status"])])
    return lat


def serve_run(seed, seconds):
    """The closed loop takes most of the window.  A solo leg, one
    connection cycling through the learn calls, gives the per-solver
    times without the queueing behind the other connection.  The two
    legs alternate in short segments, so that a slow spell of the host
    does not fall on one leg only."""
    setups = []
    for i in range(SERVE_SETUP_REPEATS):
        d, path, dt = serve_setup(seed)
        setups.append(dt)
        if i < SERVE_SETUP_REPEATS - 1:
            d.stop()
    tally = stats.Tally()
    mix = json.load(open(path))
    solo_path = os.path.join(OUT, "solo.json")
    write_json(solo_path, [o for o in mix if o["op"] == "learn" and o["kind"] == "call"])
    spans = os.path.join(OUT, "spans.json")
    reqs, solo, elapsed = [], [], 0.0
    try:
        for k in range(SEGMENTS):
            # fresh job seeds in every segment: each submission is new work
            seg_path = os.path.join(OUT, "mix-%d.json" % k)
            write_json(seg_path, [dict(o, params=dict(o["params"], seed=o["params"]["seed"]
                                                      + 100000 * k))
                                  if o["kind"] == "job" else o for o in mix])
            res = serve_load(d, seg_path, seconds * (1 - SOLO_SHARE) / SEGMENTS, "timed", spans)
            reqs += res["requests"]
            elapsed += res["elapsed_s"]
            solo += serve_load(d, solo_path, seconds * SOLO_SHARE / SEGMENTS, "timed", spans,
                               conns=1)["requests"]
        rss = d.peak_rss_mb()
    finally:
        d.stop()
    lat = serve_results(reqs, tally)
    serve_results(solo, tally)
    n = len(lat)
    ok = sum(1 for r in reqs if r["ok"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": elapsed * len(mix) / max(1, n),
        "peak_rss_mb": rss,
        "req_p50_ms": stats.percentile(lat, 50),
        "req_p95_ms": stats.percentile(lat, 95),
        "req_per_s": ok / elapsed,
    }
    for s in SOLVERS:
        metrics["learn_%s_s" % s] = statistics.median(
            r["lat_ms"] / 1000.0 for r in solo if r["solver"] == s)
    detail = {"setups": setups, "samples": n, "tail_percentile": stats.tail_percentile(n),
              "elapsed_s": elapsed, "solo_samples": len(solo)}
    return tally, metrics, detail


# ---------------------------------------------------------------------------
# traced runs: per-layer metrics


SERVE_LAYER = ("serve.exec_ms.p50", "serve.overhead_ms.p50", "serve.overhead_ms.p95",
               "serve.frame_ms", "serve.submit_ms", "serve.poll_wait_ms", "serve.requests",
               "serve.completed", "serve.rejected", "serve.overloaded", "serve.shed",
               "serve.bytewise_mismatch", "pulse.scrape_ms")


def check_traced(tr, tally, n_ops):
    """Each learn op's error must meet its bound and, where its witness
    was re-evaluated, equal the re-evaluated error; the other ops have no
    record and pass.  A witness too large to re-evaluate is unchecked,
    not passed, and every solver that ran must have at least one witness
    re-evaluated.  Returns the number of unchecked witnesses."""
    by_op = {r["op"]: r for r in tr["plan_vs_spent"]}
    checked = set()
    for i in range(n_ops):
        r = by_op.get(i)
        problems = []
        if r is not None:
            if r["reeval_err"] is not None:
                checked.add(r["solver"])
                if abs(r["err"] - r["reeval_err"]) > 1e-9:
                    problems.append("op %d: re-evaluated error %.4f, reported %.4f"
                                    % (i, r["reeval_err"], r["err"]))
            if r["err"] > r["bound"] + 1e-9:
                problems.append("op %d: %s error %.4f above bound" % (i, r["solver"], r["err"]))
        tally.record(problems)
    for solver in sorted({r["solver"] for r in by_op.values()} - checked):
        tally.record(["no %s witness re-evaluated" % solver])


def traced(workload, seed, seconds):
    tally = stats.Tally()
    if workload == "serve-mix":
        ops = serve_mix(random.Random("serve-mix/%d" % seed))
        distinct = []
        for o in ops:
            if o not in distinct:
                distinct.append(o)
    else:
        make = dense_round if workload == "dense-types" else sparse_round
        rng = random.Random("%s/%d/0" % (workload, seed))
        distinct = make(rng)
        # small enough that its relativised witness can be re-evaluated
        distinct.append(learn("local", "deg:16:3:%d" % rng.randrange(1, 10 ** 6),
                              rng.choice(RED_TARGETS), colour_sets(rng, 16, ("Red",), 0.25),
                              m=16, noise=0.1, seed=rng.randrange(1, 10 ** 6)))
    path = os.path.join(OUT, "trace-ops.json")
    write_json(path, [dict(o, kind="call") for o in distinct])
    tr = probe("trace", path, os.path.join(OUT, "layer-spans.json"))
    check_traced(tr, tally, len(distinct))
    m = dict(tr["metrics"])
    for k in SERVE_LAYER:
        m[k] = 0.0
    if workload == "serve-mix":
        d, mix_path, _ = serve_setup(seed)
        try:
            res = serve_load(d, mix_path, seconds, "traced", os.path.join(OUT, "serve-spans.json"))
        finally:
            d.stop()
        reqs = res["requests"]
        serve_results(reqs, tally)
        calls = [r for r in reqs if r["kind"] == "call"]
        jobs = [r for r in reqs if r["kind"] == "job"]
        over = [r["lat_ms"] - r["exec_ms"] for r in calls]
        med = lambda xs: statistics.median(xs) if xs else 0.0  # noqa: E731
        m["serve.exec_ms.p50"] = med([r["exec_ms"] for r in calls])
        m["serve.overhead_ms.p50"] = stats.percentile(over, 50)
        m["serve.overhead_ms.p95"] = stats.percentile(over, 95)
        m["serve.frame_ms"] = med([r["frame_ms"] for r in reqs])
        m["serve.submit_ms"] = med([r["submit_ms"] for r in jobs])
        m["serve.poll_wait_ms"] = med([r["poll_wait_ms"] for r in jobs])
        sc = res.get("scrape") or {}
        counters = ((sc.get("metrics") or {}).get("counters")) or {}
        for k in ("serve.requests", "serve.completed", "serve.rejected", "serve.overloaded",
                  "serve.shed"):
            m[k] = float(counters.get(k, 0))
        m["resil.snapshot_writes"] = float(counters.get("resil.snapshot_writes", 0))
        # the warm compile cache lives in the daemon, so its counts come from there
        hits = float(counters.get("modelcheck.compile.cache_hits", 0))
        compiles = float(counters.get("modelcheck.compile.compiles", 0))
        m["modelcheck.compile.cache_hits"] = hits
        m["modelcheck.compile.compiles"] = compiles
        m["compile.hit_ratio"] = hits / (hits + compiles) if hits + compiles else 0.0
        m["serve.bytewise_mismatch"] = float(sum(1 for r in reqs if not r["bytewise"]))
        m["pulse.scrape_ms"] = float(sc.get("scrape_ms", 0.0))
    m["req_samples"] = float(len(res["requests"]) if workload == "serve-mix" else len(distinct))
    m["fail_frac"] = tally.fail_frac()
    m["cores"] = float(os.cpu_count() or 1)
    m["jobs"] = float(JOBS)
    return tally, m, {"plan_vs_spent": tr["plan_vs_spent"]}


def declared_units(trace):
    """The metrics BENCHMARK.json declares for this kind of run, with
    their units."""
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return {x["name"]: x["unit"] for x in bench["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description="folearn benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    atexit.register(lambda: [d.stop() for d in list(LIVE)])
    build()
    units = declared_units(a.trace)
    os.makedirs(OUT, exist_ok=True)
    if a.trace:
        tally, metrics, detail = traced(a.workload, a.seed, a.seconds)
    elif a.workload == "serve-mix":
        tally, metrics, detail = serve_run(a.seed, a.seconds)
    else:
        tally, metrics, detail = oneshot(a.workload, a.seed, a.seconds)
    if set(metrics) != set(units):
        fail("metrics %s do not match BENCHMARK.json" % sorted(set(metrics) ^ set(units)))
    record = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
              "cores": os.cpu_count(), "jobs": JOBS, "connections": CONNS,
              "attempted": tally.attempted, "failed": tally.failed,
              "fail_frac": tally.fail_frac(), "failures": tally.reasons[:50],
              "metrics": metrics, "detail": detail}
    write_json(os.path.join(OUT, "result-%s-%d-%d.json" % (a.workload, a.seed, a.trace)), record)
    for r in tally.reasons[:20]:
        print("perfbench: failed: " + r, file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
