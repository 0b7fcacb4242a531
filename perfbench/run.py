#!/usr/bin/env python3
"""End-to-end benchmark of the kpjd query service.

Builds kpj_cli and kpjd from the checkout this file sits in, prepares one
synthetic road network with the CAL-like point-of-interest categories, boots
the daemon on a loopback port and drives it over the wire protocol
(docs/PROTOCOL.md) from one closed-loop client connection, client and
daemon sharing one CPU, the quietest at the time (move_to_quietest_cpu):

  python3 perfbench/run.py --workload cold_kpj --seed 1 --seconds 45 --trace 0

The traffic is the paper's experiment workload (DESIGN.md, experiment
index, Fig. 7): destinations are the CAL categories Lake, Crater and Harbor
(8, 14 and 94 nodes, as `kpj_cli pois --cal` assigns them), k is one of
10/20/30/50, and sources come from the distance quintiles Q1..Q5 of their
category (src/gen/query_gen). The road network and its categories are
fixed, as a deployment serves one map; --seed draws the requests.

  cold_kpj       that traffic with the daemon's caches off: every query
                 pays the solver and the SSSP substrate in full.
  zipf_auto      sources drawn with kpj_loadgen's zipf skew (s = 1.1) and
                 every request asking for the adaptive planner
                 ("algorithm": "auto"), cache on: hot sources repeat.

Every request belongs to a stratum (category x quintile x k); a run walks
the strata in seed-shuffled rounds, so each part of the run sees the same
mix and the figures do not hinge on a few expensive draws.

Before measuring, every workload hot-swaps the serving graph a few times
(the load layer) and checks that a probe query gets byte-identical paths
from every epoch.

With --trace 0 the last stdout line reports end-to-end latency percentiles,
throughput and set-up time; with --trace 1 every request asks the daemon to
echo its spans and the line reports per-layer times and work counts
instead. Every run checks the answers: each sampled path is walked on the
graph, the first length is compared with a reference Dijkstra, and a sample
is re-run with the DA solver and must give the same length profile.
"""

import argparse
import bisect
import gc
import heapq
import json
import os
import random
import shutil
import socket
import statistics
import struct
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

NODES = 60000          # road network size; a cold query takes ~1.5-5 ms
GRAPH_SEED = 11        # fixed map: seeds vary the traffic, not the network
CATEGORIES = ("Lake", "Crater", "Harbor")   # CAL categories of Fig. 7
K_VALUES = (10, 20, 30, 50)                 # k values of Fig. 7
QUINTILES = 5                               # Q1..Q5 of the paper's §7
ZIPF_S = 1.1           # kpj_loadgen's default --zipf-s
LANDMARKS = 16         # kpj_cli landmarks default --count
SETUP_REPS = 9         # set-up is repeated and its median reported
WARM_SWAPS = 3         # hot swaps before measuring: the load layer
WARMUP_QUERIES = 500   # lets the planner profile and the cache settle
WARMUP_SEED = 0
WINDOW_S = 0.25        # end-to-end figures are taken per window of the run
CHECK_PATHS = 40       # answers walked on the graph per run
CHECK_DIJKSTRA = 4     # first lengths compared with a reference Dijkstra
CHECK_SOLVER = 4       # answers re-run with a second solver
REFERENCE_SOLVER = "DA"
IO_TIMEOUT_S = 60

WORKLOADS = ("cold_kpj", "zipf_auto")
CPUS = sorted(os.sched_getaffinity(0))
MOVE_S = 1.0           # how often the timed loop moves to the quietest CPU


class BenchError(Exception):
    pass


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def run_tool(args, timeout=600):
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        raise BenchError("%s failed (%d):\n%s" % (
            os.path.basename(args[0]), proc.returncode,
            proc.stdout.decode(errors="replace")[-4000:]))


# --- build ------------------------------------------------------------------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isdir(os.path.join(ROOT, "tools"))):
        raise BenchError("no program sources beside the benchmark in " + ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_tool(["cmake", "-S", ROOT, "-B", BUILD_DIR,
                  "-DCMAKE_BUILD_TYPE=Release", "-DKPJ_BUILD_TESTS=OFF",
                  "-DKPJ_BUILD_BENCHMARKS=OFF", "-DKPJ_BUILD_EXAMPLES=OFF"])
    run_tool(["cmake", "--build", BUILD_DIR, "--target", "kpj_cli", "kpjd",
              "-j", "2"], timeout=850)
    tools = {}
    for name in ("kpj_cli", "kpjd"):
        path = os.path.join(BUILD_DIR, "tools", name)
        if not os.access(path, os.X_OK):
            raise BenchError("build produced no " + path)
        tools[name] = path
    return tools


def spin_ms():
    start = time.perf_counter()
    x = 0
    for i in range(20000):
        x += i * i
    return (time.perf_counter() - start) * 1e3


def move_to_quietest_cpu(daemon_pid=None):
    """Puts the client, the processes it starts from now on (they inherit
    the mask) and every thread of the daemon on the one CPU that runs a
    short spin loop fastest right now.

    One CPU: kpjd serves with one worker, so this takes no parallelism from
    it; what it removes is the cross-CPU wake-up at each hand-off between
    client, connection thread and worker, which on a shared virtual machine
    waits for the host to reschedule an idle virtual CPU (back to back,
    zipf_auto's p50 read 2.30 ms spread over the CPUs and 1.12 ms on one).
    The fastest one: other tenants slow each virtual CPU by up to half, in
    turns of a few seconds (a spin loop read 6.3 ms or 9 ms on the same CPU
    five seconds apart, while the fastest of the four stayed within 4%)."""
    best, best_ms = None, None
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        ms = min(spin_ms(), spin_ms())
        if best_ms is None or ms < best_ms:
            best, best_ms = cpu, ms
    os.sched_setaffinity(0, {best})
    if daemon_pid is None:
        return
    for tid in os.listdir("/proc/%d/task" % daemon_pid):
        try:
            os.sched_setaffinity(int(tid), {best})
        except OSError:
            pass        # the thread ended meanwhile


# --- wire client ------------------------------------------------------------

def _recv_exact(sock, n):
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        r = sock.recv_into(view[got:], n - got)
        if r == 0:
            raise BenchError("daemon closed the connection")
        got += r
    return buf


class Client:
    """One connection speaking the length-prefixed JSON protocol."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=IO_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.next_id = 1

    def close(self):
        self.sock.close()

    def call_raw(self, kind, payload, trace_id=0):
        """Returns (response bytes, round-trip seconds). The round trip runs
        from the first byte sent to the last byte received, so client-side
        JSON work stays out of it."""
        envelope = {"v": 1, "id": self.next_id, "type": kind,
                    "payload": payload}
        self.next_id += 1
        if trace_id:
            envelope["trace"] = {"id": "%016x" % trace_id, "collect": True}
        body = json.dumps(envelope, separators=(",", ":")).encode()
        frame = struct.pack(">I", len(body)) + body
        start = time.perf_counter()
        self.sock.sendall(frame)
        (size,) = struct.unpack(">I", _recv_exact(self.sock, 4))
        data = _recv_exact(self.sock, size)
        return data, time.perf_counter() - start

    def call(self, kind, payload=None):
        response = json.loads(self.call_raw(kind, payload)[0])
        if response.get("status") != "ok":
            raise BenchError("%s request failed: %s %s" % (
                kind, response.get("status"), response.get("message")))
        return response

    def metrics(self):
        body = self.call("metrics", {"format": "json"})["payload"]["body"]
        return json.loads(body)

    def swap(self, graph):
        return self.call("swap", {"graph": graph})["payload"]


# --- daemon -----------------------------------------------------------------

class Daemon:
    def __init__(self, kpjd, graph, workdir, flags):
        self.port_file = os.path.join(workdir, "kpjd.port")
        if os.path.exists(self.port_file):
            os.remove(self.port_file)
        self.log = open(os.path.join(workdir, "kpjd.log"), "wb")
        self.proc = subprocess.Popen(
            [kpjd, "--graph", graph, "--port", "0", "--port-file",
             self.port_file] + flags,
            stdout=self.log, stderr=subprocess.STDOUT)
        self.port = None

    def wait_ready(self, timeout=60):
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            if self.proc.poll() is not None:
                raise BenchError("kpjd exited with %d" % self.proc.returncode)
            try:
                with open(self.port_file) as f:
                    text = f.read().strip()
                if text:
                    self.port = int(text)
                    client = Client(self.port)
                    try:
                        health = client.call("health")
                    finally:
                        client.close()
                    if health["payload"].get("serving"):
                        return
            except (OSError, ValueError):
                pass
            time.sleep(0.002)
        raise BenchError("kpjd did not come up within %d s" % timeout)

    def stop(self):
        if self.proc.poll() is None and self.port is not None:
            try:
                client = Client(self.port)
                client.call("drain")
                client.close()
            except (OSError, BenchError):
                pass
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


# --- inputs -----------------------------------------------------------------

def load_dimacs(path):
    """Reads the DIMACS text graph into [{v: weight}] with 0-based ids."""
    adj = None
    with open(path) as f:
        for line in f:
            if line.startswith("a "):
                _, u, v, w = line.split()
                u, v, w = int(u) - 1, int(v) - 1, int(w)
                row = adj[u]
                if v not in row or w < row[v]:
                    row[v] = w
            elif line.startswith("p "):
                adj = [dict() for _ in range(int(line.split()[2]))]
    if not adj:
        raise BenchError("empty graph in " + path)
    return adj


def load_categories(path, names):
    """Reads the named categories from a kpj_cli pois file (the KPJCAT01
    layout of src/index/category_index.cc, little endian)."""
    with open(path, "rb") as f:
        data = f.read()
    magic, _, count = struct.unpack_from("<QIQ", data, 0)
    if magic != 0x4b504a4341543031:
        raise BenchError(path + ": not a category file")
    offset = 20
    found = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<Q", data, offset)
        offset += 8
        name = data[offset:offset + name_len].decode()
        offset += name_len
        (size,) = struct.unpack_from("<Q", data, offset)
        offset += 8
        found[name] = list(struct.unpack_from("<%dI" % size, data, offset))
        offset += 4 * size
    missing = [n for n in names if n not in found]
    if missing:
        raise BenchError("%s lacks categories %s" % (path, missing))
    return [found[n] for n in names]


def dijkstra(adj, sources, stop_at=()):
    """Multi-source Dijkstra. Returns the distance of the first node settled
    in `stop_at` (other than a source), or every distance if it is empty."""
    dist = {s: 0 for s in sources}
    heap = [(0, s) for s in sources]
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if u in stop_at and u not in sources:
            return d
        for v, w in adj[u].items():
            nd = d + w
            if nd < dist.get(v, nd + 1):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return None if stop_at else dist


def quintiles(reverse_adj, targets):
    """The paper's query strata, as src/gen/query_gen.cc builds them: nodes
    that reach the category and are not in it, sorted by distance to it,
    cut into five equal groups (Q1 nearest)."""
    dist = dijkstra(reverse_adj, set(targets))
    members = set(targets)
    pool = sorted((d, u) for u, d in dist.items() if u not in members)
    total = len(pool)
    return [[u for _, u in pool[total * g // QUINTILES:
                                 total * (g + 1) // QUINTILES]]
            for g in range(QUINTILES)]


class Traffic:
    """The request stream: the fixed map's categories and quintiles, and the
    seed's draws over them."""

    def __init__(self, workload, adj, categories, rng):
        self.rng = rng
        self.nodes = len(adj)
        self.categories = categories
        self.members = [set(t) for t in categories]
        self.zipf = workload == "zipf_auto"
        self.extra = {"algorithm": "auto"} if self.zipf else {}
        if self.zipf:
            # kpj_loadgen's NodeSampler: Zipf(s) over ranks 1..n, node id =
            # rank - 1, so low ids are the hot ones.
            total, cdf = 0.0, []
            for rank in range(1, len(adj) + 1):
                total += rank ** -ZIPF_S
                cdf.append(total)
            self.cdf = [c / total for c in cdf]
            self.strata = [(c, None, k) for c in range(len(categories))
                           for k in K_VALUES]
        else:
            reverse = [dict() for _ in adj]
            for u, row in enumerate(adj):
                for v, w in row.items():
                    reverse[v][u] = w
            self.quintiles = [quintiles(reverse, t) for t in categories]
            self.strata = [(c, q, k) for c in range(len(categories))
                           for q in range(QUINTILES) for k in K_VALUES]
        self.round = []

    def source(self, category, quintile):
        if quintile is not None:
            return self.rng.choice(self.quintiles[category][quintile])
        members = self.members[category]
        while True:
            u = min(bisect.bisect_left(self.cdf, self.rng.random()),
                    len(self.cdf) - 1)
            if u not in members:
                return u

    def next(self):
        if not self.round:
            self.round = list(self.strata)
            self.rng.shuffle(self.round)
        category, quintile, k = self.round.pop()
        return dict({"sources": [self.source(category, quintile)],
                     "targets": self.categories[category], "k": k},
                    **self.extra)

    def probe(self):
        """A fixed query for the epoch check."""
        source = next(u for u in range(self.nodes // 2, self.nodes)
                      if u not in self.members[0])
        return {"sources": [source], "targets": self.categories[0], "k": 20}


def daemon_flags(workload):
    return ["--no-cache"] if workload == "cold_kpj" else []


# --- set-up -----------------------------------------------------------------

def prepare_network(tools, work):
    gr = os.path.join(work, "road.gr")
    binary = os.path.join(work, "road.bin")
    pois = os.path.join(work, "road.cat")
    run_tool([tools["kpj_cli"], "generate", "--nodes", str(NODES), "--seed",
              str(GRAPH_SEED), "--out", gr])
    run_tool([tools["kpj_cli"], "convert", "--in", gr, "--out", binary])
    run_tool([tools["kpj_cli"], "pois", "--graph", binary, "--out", pois,
              "--cal"])
    return gr, binary, pois


def set_up_once(tools, binary, rep_dir, workload):
    """What a deployment does per map: landmark index, packed v4 file in
    hybrid order, daemon boot until it answers health as serving."""
    os.makedirs(rep_dir, exist_ok=True)
    landmarks = os.path.join(rep_dir, "road.lm")
    packed = os.path.join(rep_dir, "road_a.v4")
    move_to_quietest_cpu()
    start = time.perf_counter()
    run_tool([tools["kpj_cli"], "landmarks", "--graph", binary, "--out",
              landmarks, "--count", str(LANDMARKS), "--threads", "1"])
    run_tool([tools["kpj_cli"], "convert", "--in", binary, "--out", packed,
              "--format", "v4", "--reorder", "hybrid", "--landmarks",
              landmarks])
    daemon = Daemon(tools["kpjd"], packed, rep_dir, daemon_flags(workload))
    try:
        daemon.wait_ready()
    except BaseException:
        daemon.stop()
        raise
    return daemon, packed, time.perf_counter() - start


# --- measurement ------------------------------------------------------------

COUNTERS = ("algo_bound_cache_hits", "algo_bound_cache_misses",
            "algo_spt_cache_hits", "algo_spt_cache_misses",
            "algo_candidates_generated")


def span_layers(spans, rtt_s):
    """Splits one traced round trip into per-layer milliseconds."""
    by = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)
    server = [s for name in ("server.parse", "server.queue", "server.execute",
                             "server.serialize") for s in by.get(name, [])]
    if not server or "solver.run" not in by or "server.execute" not in by:
        raise BenchError("traced response lacks server/solver spans: %s"
                         % sorted(by))
    window_us = (max(s["ts"] + s["dur"] for s in server)
                 - min(s["ts"] for s in server))

    def dur(name):
        return sum(s["dur"] for s in by.get(name, []))

    execute = dur("server.execute")
    queue = dur("server.queue")
    prepare = dur("instance.prepare")
    solver = dur("solver.run")
    return {
        "wire_ms": rtt_s * 1e3 - window_us / 1e3,
        "server_ms": (window_us - execute - queue) / 1e3,
        "queue_ms": queue / 1e3,
        "engine_ms": (execute - prepare - solver) / 1e3,
        "prepare_ms": prepare / 1e3,
        "solver_ms": solver / 1e3,
    }


def paths_of(payload):
    return [(tuple(p["nodes"]), p["length"]) for p in payload["paths"]]


def warm_swaps(control, files, probe, errors):
    """Hot-swaps between the two copies of the packed file; the probe query
    must get byte-identical paths from every epoch."""
    load_ms = []
    first = paths_of(control.call("query", probe)["payload"])
    epochs = set()
    for i in range(WARM_SWAPS):
        load_ms.append(float(control.swap(files[(i + 1) % 2])["load_ms"]))
        payload = control.call("query", probe)["payload"]
        epochs.add(payload["epoch"])
        if paths_of(payload) != first:
            errors.append("probe query changed answer in epoch %d"
                          % payload["epoch"])
    if len(epochs) != WARM_SWAPS:
        errors.append("%d swaps served %d epochs" % (WARM_SWAPS, len(epochs)))
    return load_ms


def measure(port, daemon_pid, seconds, trace, traffic, files, sample_rng,
            errors):
    client = Client(port)
    control = Client(port)
    load_ms = warm_swaps(control, files, traffic.probe(), errors)

    # Fault in the mapped graph and warm the solver workspaces first; a
    # long-running daemon has paid that before any user query. The warm-up
    # stream is the same for every seed, so the planner profile and the
    # cache enter the measured window in the same state on every run.
    seeded = traffic.rng
    traffic.rng = random.Random(WARMUP_SEED)
    for _ in range(WARMUP_QUERIES):
        client.call("query", traffic.next())
    traffic.rng, traffic.round = seeded, []
    baseline = control.metrics()

    sample = []         # (query, payload): a uniform sample kept for check()
    latencies = []
    done_at = []        # completion time of each answer, from window start
    layers = []
    failed = answered = nodes_settled = sp_computations = 0
    # Responses are trees, freed by reference counting; the cycle collector
    # would only add pauses of up to half a second to the client's loop.
    gc.disable()
    try:
        start = time.perf_counter()
        end = start + seconds
        next_move = start
        sent = 0
        while time.perf_counter() < end:
            if time.perf_counter() >= next_move:
                move_to_quietest_cpu(daemon_pid)
                next_move += MOVE_S
            query = traffic.next()
            sent += 1
            data, rtt = client.call_raw("query", query, sent if trace else 0)
            response = json.loads(data)
            payload = response.get("payload") or {}
            if response.get("status") != "ok" or payload.get("status") != "ok":
                failed += 1
                continue
            latencies.append(rtt)
            done_at.append(time.perf_counter() - start)
            answered += 1
            nodes_settled += payload["nodes_settled"]
            sp_computations += payload["sp_computations"]
            if len(sample) < CHECK_PATHS:
                sample.append((query, payload))
            else:
                slot = sample_rng.randrange(answered)
                if slot < CHECK_PATHS:
                    sample[slot] = (query, payload)
            if trace:
                layers.append(span_layers(response["trace"]["spans"], rtt))
        wall = time.perf_counter() - start
    finally:
        gc.enable()
    final = control.metrics()
    client.close()
    counters = {c: int(final.get(c, 0)) - int(baseline.get(c, 0))
                for c in COUNTERS}
    return {"sample": sample, "answered": answered,
            "nodes_settled": nodes_settled,
            "sp_computations": sp_computations, "latencies": latencies,
            "done_at": done_at, "layers": layers, "failed": failed,
            "wall": wall, "counters": counters, "load_ms": load_ms,
            "control": control}


# --- correctness ------------------------------------------------------------

def check_answer(adj, query, payload, errors):
    paths = payload["paths"]
    source = query["sources"][0]
    targets = set(query["targets"]) - {source}
    if len(paths) != query["k"]:
        errors.append("expected %d paths, got %d" % (query["k"], len(paths)))
        return
    seen = set()
    previous = -1
    for p in paths:
        nodes = p["nodes"]
        if nodes[0] != source or nodes[-1] not in targets:
            errors.append("path %s does not join source to a target" % nodes)
            return
        if len(set(nodes)) != len(nodes):
            errors.append("path %s is not simple" % nodes)
            return
        length = 0
        for u, v in zip(nodes, nodes[1:]):
            w = adj[u].get(v)
            if w is None:
                errors.append("path uses missing arc %d->%d" % (u, v))
                return
            length += w
        if length != p["length"] or length < previous:
            errors.append("path length %d (walked %d) out of order" % (
                p["length"], length))
            return
        previous = length
        seen.add(tuple(nodes))
    if len(seen) != len(paths):
        errors.append("duplicate paths in one answer")


def check(result, adj, errors):
    sample = result["sample"]
    if not sample:
        errors.append("no query was answered")
        return
    for query, payload in sample:
        check_answer(adj, query, payload, errors)
    for query, payload in sample[:CHECK_DIJKSTRA]:
        best = dijkstra(adj, {query["sources"][0]}, set(query["targets"]))
        if best != payload["paths"][0]["length"]:
            errors.append("shortest length %s, reference Dijkstra %s" % (
                payload["paths"][0]["length"], best))
    control = result["control"]
    for query, payload in sample[:CHECK_SOLVER]:
        again = control.call("query", dict(query, algorithm=REFERENCE_SOLVER))
        want = [p["length"] for p in again["payload"]["paths"]]
        got = [p["length"] for p in payload["paths"]]
        if want != got:
            errors.append("length profile %s differs from %s's %s" % (
                got, REFERENCE_SOLVER, want))


# --- report -----------------------------------------------------------------

def ratio(hits, misses):
    total = hits + misses
    return hits / total if total else 0.0


def quiet_share(values, better):
    """The boundary of the best twentieth of the per-window figures.
    Interference from other tenants of a shared host comes in phases of
    seconds to minutes that slow the CPU by up to half and only ever make a
    window slower, so the best windows of the run are the program's own
    speed (the min-of-rounds rule, kept robust to a few lucky windows)."""
    ventiles = statistics.quantiles(values, n=20)
    return ventiles[0] if better == "lower" else ventiles[-1]


def end_to_end_metrics(result, setup_s):
    """Each figure is taken per equal time window of the run, then reduced
    over the windows with quiet_share."""
    count = max(10, round(result["wall"] / WINDOW_S))
    width = result["wall"] / count
    windows = [[] for _ in range(count)]
    for done, rtt in zip(result["done_at"], result["latencies"]):
        windows[min(int(done / width), count - 1)].append(rtt * 1e3)
    deciles = [statistics.quantiles(w, n=10, method="inclusive")
               for w in windows if len(w) > 1]
    return {
        "latency_p50_ms": (quiet_share([d[4] for d in deciles], "lower"),
                           "ms"),
        "latency_p90_ms": (quiet_share([d[8] for d in deciles], "lower"),
                           "ms"),
        "throughput_qps": (quiet_share(
            [len(w) / width for w in windows], "higher"), "1/s"),
        "setup_s": (statistics.median(setup_s), "s"),
    }


def per_layer_metrics(result):
    layers = result["layers"]
    q = result["answered"]
    c = result["counters"]
    out = {"rtt_ms": (statistics.fmean(x * 1e3 for x in result["latencies"]),
                      "ms")}
    for name in ("wire_ms", "server_ms", "queue_ms", "engine_ms",
                 "prepare_ms", "solver_ms"):
        out[name] = (statistics.fmean(layer[name] for layer in layers), "ms")
    out["load_ms"] = (statistics.median(result["load_ms"]), "ms")
    out["nodes_settled_per_query"] = (result["nodes_settled"] / q, "count")
    out["sp_computations_per_query"] = (result["sp_computations"] / q,
                                        "count")
    out["candidates_per_query"] = (c["algo_candidates_generated"] / q, "count")
    out["bound_cache_hit_ratio"] = (
        ratio(c["algo_bound_cache_hits"], c["algo_bound_cache_misses"]),
        "ratio")
    out["spt_cache_hit_ratio"] = (
        ratio(c["algo_spt_cache_hits"], c["algo_spt_cache_misses"]), "ratio")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    tools = build()
    work = os.path.join(WORK_ROOT, "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    daemons = []
    try:
        gr, binary, pois = prepare_network(tools, work)
        setup_s = []
        for rep in range(SETUP_REPS):
            daemon, packed, seconds = set_up_once(
                tools, binary, os.path.join(work, "rep%d" % rep),
                args.workload)
            daemons.append(daemon)
            setup_s.append(seconds)
            if rep + 1 < SETUP_REPS:
                daemon.stop()
        other = packed.replace("road_a", "road_b")
        shutil.copyfile(packed, other)
        adj = load_dimacs(gr)
        traffic = Traffic(args.workload, adj,
                          load_categories(pois, CATEGORIES),
                          random.Random(args.seed))
        errors = []
        result = measure(daemon.port, daemon.proc.pid, args.seconds,
                         args.trace == 1, traffic,
                         [packed, other], random.Random(args.seed + 1),
                         errors)
        check(result, adj, errors)
        result["control"].close()
        for e in errors[:10]:
            log("check failed: " + e)
        metrics = (per_layer_metrics(result) if args.trace
                   else end_to_end_metrics(result, setup_s))
        report = {
            "correct": not errors,
            "attempted": result["answered"] + result["failed"],
            "failed": result["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
    finally:
        for daemon in daemons:
            daemon.stop()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log("error: %s" % e)
        sys.exit(2)
