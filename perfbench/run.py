#!/usr/bin/env python3
"""ParaGraph benchmark: one command, four workloads.

    python3 perfbench/run.py --workload train|advise|serve|serve-repeat \
        --seed N --seconds T --trace 0|1 [--inject none|parse2|predict2|window2]

Run from the repository root. The first run builds the libraries, the
paragraph-serve daemon and the pgbench binary into $CARGO_TARGET_DIR (default
.bench_build). The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics are
the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones.
Exit status is 0 only when every correctness gate passed. See
perfbench/README.md for the workloads, the metric map and how to read traces.
"""
import argparse
import json
import os
import re
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train", "advise", "serve", "serve-repeat")
INJECTIONS = ("none", "parse2", "predict2", "window2")

NPROC = len(os.sched_getaffinity(0))
# Set-up repeats per run; setup_s is their median. A daemon start takes
# milliseconds, so the serve workloads repeat it more often.
SETUPS = {"train": 15, "advise": 9, "serve": 31, "serve-repeat": 31}
OMP_WAIT_POLICY = "PASSIVE"  # idle OpenMP threads sleep: CPU time tracks work

# Thread budget. Every component's count is pinned; the daemon's threads
# plus the generator's stay within nproc.
TRAIN_THREADS = min(2, NPROC)
# One in-process caller, engine on the caller's thread. Set-up runs on it
# too: multi-threaded set-up time swung by 80% between host states.
ADVISE_THREADS = 1
SERVE_IO_THREADS = 1
SERVE_WORKERS = max(1, min(2, NPROC - 2))
SERVE_OMP_THREADS = 1  # via OMP_NUM_THREADS: --threads only reaches the main thread
GEN_THREADS = 1
GEN_CONNECTIONS = min(4, NPROC)
SERVE_WINDOW_US = 200
SERVE_BATCH_MAX = 16
SERVE_QUEUE = 256
SERVE_CACHE_CAP = 1024
# The repo's documented cache traffic model (docs/SERVING.md, BENCH_ann.json).
REPEAT_ZIPF = 1.1
GEN_BOTTLENECK_UTIL = 0.9  # generator thread busier than this: run invalid

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures once, then (re)builds only what the benchmark runs."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no ParaGraph source tree next to perfbench/; run from a checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "pgbench",
                    "paragraph-serve", "-j", str(NPROC)],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "pgbench"), \
        os.path.join(out, "paragraph", "tools", "paragraph-serve")


def omp_env(threads):
    """The caller's environment without any ParaGraph or OpenMP knob, so
    stray settings (PARAGRAPH_SERVE_CACHE, PARAGRAPH_SIMD, OMP_PROC_BIND, ...)
    cannot change what a workload runs; then the benchmark's own thread
    count and wait policy."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PARAGRAPH_", "OMP_", "GOMP_"))}
    env["OMP_NUM_THREADS"] = str(threads)
    env["OMP_WAIT_POLICY"] = OMP_WAIT_POLICY
    return env


def run_json(cmd, env):
    """Runs a pgbench mode and returns its last stdout line as JSON."""
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s exited %d" % (os.path.basename(cmd[1]) if
                                             len(cmd) > 1 else cmd[0],
                                             proc.returncode))
    return json.loads(lines[-1])


# --- daemon lifecycle -------------------------------------------------------

PING = struct.pack("<4sHHQQ", b"PGSV", 1, 0x0002, 1, 0)
PONG_KIND = 0x0084


def ping(port):
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        s.sendall(PING)
        reply = b""
        while len(reply) < 24:
            chunk = s.recv(24 - len(reply))
            if not chunk:
                raise RuntimeError("daemon closed the connection on ping")
            reply += chunk
    magic, _, kind, _, _ = struct.unpack("<4sHHQQ", reply)
    if magic != b"PGSV" or kind != PONG_KIND:
        raise RuntimeError("bad pong from daemon")


class Daemon:
    """One paragraph-serve process; start() returns exec-to-first-pong."""

    def __init__(self, binary, rundir, checkpoint, window_us, cache):
        self.rundir = rundir
        self.cache = cache
        self.window_us = window_us
        self.args = [binary, "--checkpoint", checkpoint, "--port", "0",
                     "--workers", str(SERVE_WORKERS),
                     "--io-threads", str(SERVE_IO_THREADS),
                     "--queue-depth", str(SERVE_QUEUE),
                     "--batch-max", str(SERVE_BATCH_MAX),
                     "--window-us", str(window_us)]
        if cache:
            self.args += ["--cache", "--cache-cap", str(SERVE_CACHE_CAP)]
        self.proc = None
        self.port = None
        self.output = ""

    def start(self):
        """Blocks on the daemon's "listening on" line, then pings it."""
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            self.args, env=omp_env(SERVE_OMP_THREADS), stdout=subprocess.PIPE,
            stderr=open(os.path.join(self.rundir, "daemon.err"), "w"),
            text=True, encoding="utf-8", errors="replace")
        line = self.proc.stdout.readline()
        m = re.search(r"listening on 127\.0\.0\.1:(\d+) .*, (\d+) io threads, "
                      r"(\d+) workers, queue (\d+), batch (\d+)@(\d+)us, "
                      r"cache (on|off)\)", line)
        if not m:
            self.stop()
            raise RuntimeError("daemon failed at start-up")
        # The daemon must run exactly the configuration this workload names.
        want = (SERVE_IO_THREADS, SERVE_WORKERS, SERVE_QUEUE, SERVE_BATCH_MAX,
                self.window_us, "on" if self.cache else "off")
        got = tuple(int(g) for g in m.groups()[1:6]) + (m.group(7),)
        if got != want:
            self.stop()
            raise RuntimeError("daemon configuration %s, expected %s" % (got, want))
        self.port = int(m.group(1))
        ping(self.port)
        return time.perf_counter() - t0

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        """SIGTERM, wait for the drain; returns the exit code."""
        if self.proc is None:
            return 0
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            self.output, _ = proc.communicate(timeout=30)
            return proc.returncode
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return -9

    def stats(self):
        """Counters from the daemon's shutdown stat lines."""
        text = self.output
        num = r"(\d+(?:\.\d+)?)"
        patterns = {
            "stopped": r"(\d+) connections, (\d+) predictions in (\d+) batches,"
                       r" (\d+) errors, (\d+) busy, (\d+) pings",
            "reactor": r"(\d+) reply frames in (\d+) gathered writes \(" + num +
                       r" frames/write\), (\d+) reads gated",
            "sched": r"(\d+) fused chunks, (\d+) node rows \(" + num +
                     r" rows/chunk\), (\d+) intra-parallel chunks",
            "cache": r"(\d+) hits, (\d+) misses, (\d+) evictions",
        }
        found = {}
        for key, pattern in patterns.items():
            m = re.search(pattern, text)
            if m:
                found[key] = [float(g) for g in m.groups()]
        if "stopped" not in found or "reactor" not in found or "sched" not in found:
            raise RuntimeError("daemon stat lines missing")
        conns, preds, batches, errors, busy, pings = found["stopped"]
        frames, writes, per_write, gated = found["reactor"]
        chunks, rows, rows_per_chunk, intra = found["sched"]
        hits, misses, evictions = found.get("cache", [0.0, 0.0, 0.0])
        return {
            "predictions": preds, "errors": errors,
            # Cache hits never reach a batch.
            "serve.batch_size_mean": (preds - hits) / batches if batches else 0.0,
            "serve.busy_fraction": busy / (preds + busy) if preds + busy else 0.0,
            "serve.frames_per_write": per_write,
            "serve.read_gated": gated,
            "serve.rows_per_chunk": rows_per_chunk,
            "engine.intra_chunks": intra,
            "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "cache.evictions": evictions,
        }


# --- workloads ----------------------------------------------------------------

def run_train(bins, args):
    pgbench = bins[0]
    r = run_json([pgbench, "train", "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--threads", str(TRAIN_THREADS), "--setups", str(SETUPS[args.workload]),
                  "--trace-out", args.trace_out],
                 omp_env(TRAIN_THREADS))
    gates = {
        "val_norm_rmse_reproducible": r["deterministic"] == 1,
        "val_norm_rmse_beats_mean": r["val_norm_rmse"] < r["mean_baseline_norm_rmse"],
    }
    if args.trace:
        gates["traced_equals_untraced"] = (
            r["traced.deterministic"] == 1 and
            r["traced.val_norm_rmse"] == r["val_norm_rmse"])
    attempted = int(r["samples"] + r.get("traced.samples", 0))
    e2e = {k: r[k] for k in ("setup_s", "throughput_per_s", "cpu_us_per_op",
                             "latency_p50_us", "peak_rss_mb")}
    layer = {
        "dataset.generate_s": r["dataset.generate_s"],
        "dataset.sample_build_s": r["dataset.sample_build_s"],
        "quality.val_norm_rmse": r["val_norm_rmse"],
        "quality.mean_baseline_norm_rmse": r["mean_baseline_norm_rmse"],
    }
    if args.trace:
        for k in ("engine.us_per_graph", "engine.graphs_per_call",
                  "engine.rows_per_chunk", "engine.intra_chunks",
                  "trainer.epoch_s", "trainer.first_epoch_s",
                  "trainer.forward_share", "trace.attributed_share"):
            layer[k] = r[k]
        layer["trace.overhead_fraction"] = overhead(
            r["throughput_per_s"], r["traced.throughput_per_s"])
    header = machine_header(r, {"pgbench_omp": TRAIN_THREADS})
    return e2e, layer, gates, attempted, 0, header


def run_advise(bins, args):
    pgbench = bins[0]
    r = run_json([pgbench, "advise", "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--threads", str(ADVISE_THREADS),
                  "--setups", str(SETUPS[args.workload]), "--inject", args.inject,
                  "--trace-out", args.trace_out],
                 omp_env(ADVISE_THREADS))
    slowdown = r["advise_slowdown"]
    gates = {
        "batch_equals_predict_one": r["failed"] == 0 and r.get("traced.failed", 0) == 0,
        "beats_random_pick": slowdown < r["random_slowdown"],
    }
    attempted = int(r["queries"] + r.get("traced.queries", 0))
    failed = int(r["failed"] + r.get("traced.failed", 0))
    e2e = {k: r[k] for k in ("setup_s", "throughput_per_s", "cpu_us_per_op",
                             "latency_p50_us", "peak_rss_mb")}
    layer = {
        "dataset.generate_s": r["dataset.generate_s"],
        "dataset.sample_build_s": r["dataset.sample_build_s"],
        "frontend.parse_calls": r["parse_calls"],
        "graph.nodes_per_graph": r["nodes_per_graph"],
        "graph.edges_per_graph": r["edges_per_graph"],
        "latency_p99_us": r["latency_p99_us"],
        "latency_p99_beyond": r["latency_p99_beyond"],
        "quality.val_norm_rmse": r["val_norm_rmse"],
        "quality.advise_slowdown": slowdown,
        "quality.random_slowdown": r["random_slowdown"],
    }
    if args.trace:
        for k in ("dataset.instantiate_us", "frontend.parse_us", "graph.build_us",
                  "model.encode_us", "engine.us_per_graph", "engine.graphs_per_call",
                  "engine.rows_per_chunk", "engine.intra_chunks",
                  "trace.attributed_share"):
            layer[k] = r[k]
        layer["trace.overhead_fraction"] = overhead(
            r["throughput_per_s"], r["traced.throughput_per_s"])
    header = machine_header(r, {"pgbench_omp": ADVISE_THREADS})
    return e2e, layer, gates, attempted, failed, header


def run_serve(bins, args, rundir, repeat):
    pgbench, serve_bin = bins
    prep = run_json([pgbench, "prepare", "--seed", str(args.seed), "--dir", rundir],
                    omp_env(NPROC))
    window_us = SERVE_WINDOW_US * (2 if args.inject == "window2" else 1)
    daemon = Daemon(serve_bin, rundir, os.path.join(rundir, "serve.ckpt"),
                    window_us, cache=repeat)
    try:
        ready = []
        setups = SETUPS[args.workload]
        for i in range(setups):
            ready.append(daemon.start())
            if i + 1 < setups and daemon.stop() != 0:
                raise RuntimeError("daemon did not drain cleanly")
        g = run_json([pgbench, "gen", "--port", str(daemon.port), "--dir", rundir,
                      "--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--seed", str(args.seed), "--connections", str(GEN_CONNECTIONS),
                      "--zipf", str(REPEAT_ZIPF if repeat else 0.0),
                      "--daemon-pid", str(daemon.proc.pid),
                      "--trace-out", args.trace_out],
                     omp_env(GEN_THREADS))
        rss = daemon.peak_rss_mb()
        code = daemon.stop()
        stats = daemon.stats()
    finally:
        daemon.stop()

    util = max(g["gen_thread_util"], g.get("traced.gen_thread_util", 0.0))
    gates = {
        "replies_equal_predict_one": g["failed"] == 0 and g.get("traced.failed", 0) == 0,
        "no_busy_replies": g["busy"] == 0 and g.get("traced.busy", 0) == 0,
        "daemon_drained": code == 0 and stats["errors"] == 0,
        "generator_not_bottleneck": util < GEN_BOTTLENECK_UTIL,
    }
    attempted = int(g["sent"] + g.get("traced.sent", 0))
    failed = int(g["failed"] + g.get("traced.failed", 0))
    e2e = {
        "setup_s": statistics.median(ready),
        "throughput_per_s": g["throughput_per_s"],
        "cpu_us_per_op": g["cpu_us_per_op"],
        "latency_p50_us": g["latency_p50_us"],
        "peak_rss_mb": rss,
    }
    layer = dict((k, v) for k, v in stats.items() if "." in k)
    layer.update({
        "serve.ready_s": statistics.median(ready),
        "io.sample_encode_us": prep["io.sample_encode_us"],
        "engine.graphs_per_call": stats["serve.batch_size_mean"],
        "engine.rows_per_chunk": stats["serve.rows_per_chunk"],
        "latency_p99_us": g["latency_p99_us"],
        "latency_p99_beyond": g["latency_p99_beyond"],
        "gen.cpu_share": g["gen_cpu_share"],
        "gen.thread_util": g["gen_thread_util"],
        "gen.warmup_sent": g["warmup.sent"], "gen.warmup_ok": g["warmup.ok"],
        "gen.warmup_failed": g["warmup.failed"], "gen.warmup_busy": g["warmup.busy"],
        "gen.sent": g["sent"], "gen.ok": g["ok"], "gen.failed": g["failed"],
        "gen.busy": g["busy"],
    })
    if args.trace:
        batch = max(1, round(stats["serve.batch_size_mean"]))
        rep = run_json([pgbench, "replay", "--dir", rundir, "--batch", str(batch)],
                       omp_env(1))
        layer["engine.us_per_graph"] = rep["engine.us_per_graph"]
        layer["io.reply_decode_us"] = g["io.reply_decode_us"]
        layer["trace.attributed_share"] = g["trace.attributed_share"]
        layer["trace.overhead_fraction"] = overhead(
            g["throughput_per_s"], g["traced.throughput_per_s"])
    header = machine_header(g, {"daemon_io_threads": SERVE_IO_THREADS,
                                "daemon_workers": SERVE_WORKERS,
                                "daemon_omp_per_worker": SERVE_OMP_THREADS,
                                "generator_threads": GEN_THREADS,
                                "generator_connections": GEN_CONNECTIONS})
    return e2e, layer, gates, attempted, failed, header


def overhead(untraced, traced):
    """Throughput lost to tracing, as a share of the untraced figure."""
    return (untraced - traced) / untraced if untraced else 0.0


def machine_header(r, threads):
    return {"simd": r.get("simd"), "compiler": r.get("compiler"),
            "build_type": r.get("build_type"), "threads": threads}


# --- metric catalogue -------------------------------------------------------------

def metric_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=INJECTIONS, default="none",
                    help="layer-sensitivity self-check (benchmark tests only)")
    args = ap.parse_args()
    # A terminated benchmark still stops the daemon it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds <= 0:
        fail("--seconds must be positive")

    load_at_start = os.getloadavg()
    e2e_units, layer_units = metric_units()
    bins = build()
    runs = os.path.join(ROOT, ".bench_run")
    rundir = os.path.join(runs, "%s-seed%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(rundir)
    args.trace_out = ""
    if args.trace:
        os.makedirs(os.path.join(runs, "traces"), exist_ok=True)
        args.trace_out = os.path.join(runs, "traces", "%s-seed%d.csv"
                                      % (args.workload, args.seed))
    try:
        if args.workload == "train":
            result = run_train(bins, args)
        elif args.workload == "advise":
            result = run_advise(bins, args)
        else:
            result = run_serve(bins, args, rundir, args.workload == "serve-repeat")
    except (RuntimeError, subprocess.SubprocessError, OSError, KeyError) as e:
        log("perfbench: %s run failed: %s" % (args.workload, e))
        sys.exit(1)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    e2e, layer, gates, attempted, failed, header = result

    correct = all(gates.values())
    if not correct:
        failed = attempted  # a run-level gate fails every operation it covers
    attempted = max(1, attempted)
    e2e["success_fraction"] = (attempted - failed) / attempted

    header.update({"workload": args.workload, "seed": args.seed,
                   "nproc": NPROC, "omp_wait_policy": OMP_WAIT_POLICY,
                   "loadavg_at_start": load_at_start[0], "gates": gates,
                   "inject": args.inject})
    print("# header " + json.dumps(header, sort_keys=True))
    for name in ("throughput_per_s", "latency_p50_us"):
        layer[name] = e2e[name]
    if args.trace:
        metrics = {n: {"value": float(layer.get(n, 0.0)), "unit": u}
                   for n, u in layer_units.items()}
    else:
        metrics = {n: {"value": float(e2e[n]), "unit": u}
                   for n, u in e2e_units.items()}
    for name, m in metrics.items():
        print("# %-32s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
