#!/usr/bin/env python3
"""Outside-in benchmark for bandwall.

Builds the `bandwall` binary from the checkout it runs in, then drives
it the way its users do, through one of three workloads:

  v1_open_loop   `bandwall serve` under open-loop /v1 traffic
  fig14_long     back-to-back seeded Figure 14 simulations (`bandwall run`)
  registry_full  the whole experiment registry (`bandwall run --all`)

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload fig14_long --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the run records a
span around each call into a layer, writes the spans to `.bench_out/`,
and reports the per-layer metrics instead. See perfbench/README.md.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import traffic  # noqa: E402

# Cold starts timed per run; `setup_s` is their median.
SETUP_REPEATS = 41
# Runs of consecutive operations `p50_ms` takes the median over.
SLICES = 10
# Open-loop arrival rate of v1_open_loop, in requests per second: well
# below what the client itself can send, so lateness stays the server's.
RATE = 500
# Seconds a request may stay unanswered after the last one was due.
GRACE = 10.0
# Seconds a run may take beyond `--seconds` (after the build) before the
# watchdog stops it.
WATCHDOG_SLACK = 60
# Seconds a traced run spends on each other workload, so that every
# per-layer metric is measured whichever workload is traced.
CENSUS_SECONDS = 1.0

FIG14 = "fig14_parsec_sharing"
# Paper values of the Figure 14 shared-line fractions (4, 8, 16 cores).
FIG14_PAPER = {"shared_fraction_4": 0.173, "shared_fraction_8": 0.162, "shared_fraction_16": 0.152}
FIG14_TOLERANCE = 0.1

# Registry metrics the paper states exactly: (experiment, metric, value).
REGISTRY_ANCHORS = [
    ("fig02_traffic_vs_cores", "supportable_cores", 11),
    ("fig03_die_allocation", "supportable_cores_16x", 24),
    ("fig15_technique_sweep", "dram_realistic_16x", 47),
    ("fig16_combinations", "full_combination_16x", 183),
    ("cxl_harvesting", "cores_cxl_1x_50pct", 13),
]

# The simulator-backed experiments, timed one by one in the traced
# registry run; each analytic one takes about as long as a cold start.
TIMED_EXPERIMENTS = [
    "fig01_power_law",
    "ablate_replacement",
    "ablate_inclusion",
    "coherence_study",
    "validate_writeback",
    "fig14_parsec_sharing",
    "combo_sim",
    "validate_line_size",
    "predictor_study",
    "validate_compression",
    "throughput_wall",
]

# What v1_open_loop times separately: each endpoint, solves split into
# memo misses and hits, and requests that opened their connection or
# rode one an earlier request opened.
SERVE_SPLITS = ["solve", "solve_repeat", "sweep", "batch", "fresh_conn", "keepalive"]

END_TO_END = {"p50_ms": "ms", "cpu_ms_per_op": "ms", "setup_s": "s"}

PER_LAYER = dict(
    [(f"{e}_p50_ms", "ms") for e in SERVE_SPLITS]
    + [
        ("connect_p50_ms", "ms"),
        ("server_p50_ms", "ms"),
        ("late_p99_ms", "ms"),
        ("serve_start_ms", "ms"),
        ("memo_hits", "count"),
        ("memo_misses", "count"),
        ("repeat_hits_pct", "%"),
        ("fig14_all_cpus_ms", "ms"),
        ("fig14_one_cpu_ms", "ms"),
        ("cli_start_ms", "ms"),
        ("registry_serial_s", "s"),
    ]
    + [(f"exp_{e}_ms", "ms") for e in TIMED_EXPERIMENTS]
)


class BenchError(Exception):
    """A failure that leaves no result to report."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def percentile(values, p):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def median(values):
    return statistics.median(values) if values else 0.0


def sliced_median(values):
    """The median over SLICES runs of consecutive operations, in the
    order they started, of each run's median. A host stall that spans
    less than half the timed window moves it little."""
    k = min(SLICES, len(values))
    cuts = [len(values) * i // k for i in range(k + 1)]
    return statistics.median(statistics.median(values[a:b]) for a, b in zip(cuts, cuts[1:]))


def children_cpu():
    """User plus system seconds of every child reaped so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def seeds(seed):
    """The endless stream of simulator seeds a run draws from."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(32)


def one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Processes:
    """Every child this run starts, so each is stopped and reaped even
    when the run fails part way."""

    def __init__(self):
        self.live = []

    def spawn(self, argv, **kwargs):
        proc = subprocess.Popen(argv, **kwargs)
        self.live.append(proc)
        return proc

    def run(self, argv, preexec_fn=None, ok=(0,)):
        """Runs `argv` to completion; returns its exit code, one of `ok`,
        and its stdout as text."""
        proc = self.spawn(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, preexec_fn=preexec_fn)
        out, err = proc.communicate()
        self.live.remove(proc)
        if proc.returncode not in ok:
            raise BenchError(f"{' '.join(argv[1:])} exited {proc.returncode}: {err.strip()[-500:]}")
        return proc.returncode, out

    def stop_all(self):
        for proc in self.live:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        self.live.clear()


def build(root):
    """Builds `bandwall` in release mode; returns the binary's path."""
    for needed in ("Cargo.toml", os.path.join("crates", "bench", "Cargo.toml")):
        if not os.path.isfile(os.path.join(root, needed)):
            raise BenchError(f"no {needed} here: run from the root of a bandwall checkout")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    command = ["cargo", "build", "--release", "--offline", "--workspace", "--bin", "bandwall"]
    done = subprocess.run(command, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise BenchError(f"cargo build exited {done.returncode}")
    binary = os.path.join(root, target, "release", "bandwall")
    if not os.access(binary, os.X_OK):
        raise BenchError(f"build left no executable at {binary}")
    return binary


class Run:
    """What one workload run measured."""

    def __init__(self):
        self.setup = []  # seconds per cold start
        self.latencies = []  # seconds per operation that passed its checks
        self.failed_times = []  # seconds per failed operation that ended
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.layers = {}
        self.spans = []

    def record(self, seconds, problem):
        """Counts one operation, its latency (`None` if it never ended)
        and the check it failed, if any."""
        self.attempted += 1
        if problem:
            self.failed += 1
            self.error(problem)
            if seconds is not None:
                self.failed_times.append(seconds)
        else:
            self.latencies.append(seconds)

    def error(self, message):
        if len(self.errors) < 20:
            self.errors.append(message)

    def fail(self, message):
        """Counts a failed check that belongs to no one operation."""
        self.failed += 1
        self.error(message)

    def span(self, name, start, end, parent=None, **fields):
        """Records one span; returns its id."""
        self.spans.append(dict(id=len(self.spans), name=name, start=start, end=end, parent=parent, **fields))
        return len(self.spans) - 1


def cli_start(procs, binary):
    """One `bandwall list`: process start plus registry construction.
    Returns the registry's experiment ids."""
    return [line.split()[0] for line in procs.run([binary, "list"])[1].splitlines() if line.strip()]


def cli_setup(procs, binary, run):
    """Times the cold starts; returns the experiment ids."""
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ids = cli_start(procs, binary)
        run.setup.append(time.perf_counter() - start)
    run.layers["cli_start_ms"] = median(run.setup) * 1e3
    return ids


# ---------------------------------------------------------------- fig14


def run_reports(procs, argv, preexec_fn=None):
    """Runs `bandwall run ...`; returns its exit code and reports. It
    exits 1 when an experiment fails but still prints every report, so
    that failure is left to the checks."""
    code, out = procs.run(argv, preexec_fn, ok=(0, 1))
    try:
        reports = json.loads(out)
    except ValueError:
        reports = None
    if not isinstance(reports, list) or not all(isinstance(r, dict) for r in reports):
        raise BenchError(f"{' '.join(argv[1:])} exited {code} without a report list: {out[:200]!r}")
    return code, reports


def check_failures(code, reports):
    """The failed reports of one `bandwall run`, or its exit code when
    it failed with none."""
    failed = [f"{r.get('id')}: {r['error']}" for r in reports if "error" in r]
    if failed:
        return f"experiments failed: {failed}"
    return f"exited {code} with no failed report" if code else None


def check_single(code, reports, experiment):
    """Checks the output of `bandwall run <experiment>`."""
    if len(reports) != 1 or reports[0].get("id") != experiment:
        return f"unexpected {experiment} output: {json.dumps(reports)[:200]}"
    problem = check_failures(code, reports)
    if problem is None and experiment == FIG14:
        problem = check_fig14(reports[0])
    return problem


def findings(reports):
    """What the reports of one `bandwall run` state: ids, metrics and
    tables. Two runs with one seed must agree on these exactly; a field
    that describes the run itself, such as a wall time, may differ."""
    return [(r.get("id"), r.get("metrics"), r.get("blocks")) for r in reports]


def check_fig14(report):
    """The paper's Figure 14 trend: the shared fraction falls with cores."""
    metrics = {m["name"]: m["model"] for m in report["metrics"]}
    fractions = [metrics.get(name) for name in FIG14_PAPER]
    if any(f is None or not 0 < f < 1 for f in fractions):
        return f"shared fractions {fractions} missing or outside (0, 1)"
    if not fractions[0] > fractions[1] > fractions[2]:
        return f"shared fraction does not decline with cores: {fractions}"
    for name, paper in FIG14_PAPER.items():
        if abs(metrics[name] - paper) > FIG14_TOLERANCE:
            return f"{name} = {metrics[name]:.3f}, paper {paper} +- {FIG14_TOLERANCE}"
    return None


def fig14_long(procs, binary, seed, seconds, trace):
    """Seeded Figure 14 simulations, one process each. Traced, every
    other run is held to one CPU, to split off the banked engine's use
    of the rest."""
    run = Run()
    cli_setup(procs, binary, run)
    argv = lambda s: [binary, "run", FIG14, "--seed", str(s), "--format", "json"]  # noqa: E731
    stream = seeds(seed)
    first = next(stream)
    # Untimed warm-up on one CPU. The banked engine gives the same report
    # at every thread count, so the first timed run, on every CPU and
    # with the same seed, must state the same findings.
    reference = findings(run_reports(procs, argv(first), one_cpu)[1])
    split = {"fig14_all_cpus_ms": [], "fig14_one_cpu_ms": []}
    deadline = time.perf_counter() + seconds
    cpu0 = children_cpu()
    s = first
    while True:
        pinned = trace and run.attempted % 2 == 1
        start = time.perf_counter()
        code, reports = run_reports(procs, argv(s), one_cpu if pinned else None)
        end = time.perf_counter()
        problem = check_single(code, reports, FIG14)
        if problem is None and run.attempted == 0 and findings(reports) != reference:
            problem = f"{FIG14} --seed {s} reported differently on one CPU and on all"
        run.record(end - start, problem)
        name = "fig14_one_cpu_ms" if pinned else "fig14_all_cpus_ms"
        split[name].append(end - start)
        run.span(name[:-3], start, end, seed=s)
        # Two runs at least, so a traced run times both kinds.
        if end >= deadline and run.attempted >= 2:
            break
        s = next(stream)
    run.layers["cpu_ms_per_op"] = (children_cpu() - cpu0) / run.attempted * 1e3
    for name, values in split.items():
        if values:
            run.layers[name] = median(values) * 1e3
    return run


# ------------------------------------------------------------- registry


def check_registry(code, reports, ids):
    got = [r.get("id") for r in reports]
    if got != ids:
        return f"reports {got} do not follow the registry {ids}"
    problem = check_failures(code, reports)
    if problem:
        return problem
    by_id = {r["id"]: {m["name"]: m["model"] for m in r["metrics"]} for r in reports}
    for experiment, metric, value in REGISTRY_ANCHORS:
        got = by_id.get(experiment, {}).get(metric)
        if got != value:
            return f"{experiment} {metric} = {got}, paper says {value}"
    for r in reports:
        for m in r["metrics"]:
            if not isinstance(m["model"], (int, float)) or not math.isfinite(m["model"]):
                return f"{r['id']} {m['name']} is not a finite number"
    return check_fig14(reports[ids.index(FIG14)])


def registry_full(procs, binary, seed, seconds, trace):
    """`bandwall run --all`, each pass with a fresh seed. Traced, every
    experiment runs in its own process instead, one span each."""
    run = Run()
    ids = cli_setup(procs, binary, run)
    missing = [e for e in TIMED_EXPERIMENTS + [r[0] for r in REGISTRY_ANCHORS] if e not in ids]
    if missing:
        raise BenchError(f"registry lacks {missing}")
    if trace:
        return registry_traced(procs, binary, ids, seeds(seed), seconds, run)
    argv = lambda s: [binary, "run", "--all", "--seed", str(s), "--format", "json"]  # noqa: E731
    stream = seeds(seed)
    first = next(stream)
    reference = findings(run_reports(procs, argv(first))[1])
    deadline = time.perf_counter() + seconds
    cpu0 = children_cpu()
    s = first
    while True:
        start = time.perf_counter()
        code, reports = run_reports(procs, argv(s))
        end = time.perf_counter()
        problem = check_registry(code, reports, ids)
        if problem is None and run.attempted == 0 and findings(reports) != reference:
            problem = f"run --all --seed {s} reported differently on two runs"
        run.record(end - start, problem)
        if end >= deadline:
            break
        s = next(stream)
    run.layers["cpu_ms_per_op"] = (children_cpu() - cpu0) / run.attempted * 1e3
    return run


def registry_traced(procs, binary, ids, stream, seconds, run):
    """Passes over the registry, one process per experiment, until
    `seconds` are spent."""
    per_experiment = {e: [] for e in ids}
    passes = []
    deadline = time.perf_counter() + seconds
    cpu0 = children_cpu()
    for s in stream:
        pass_start = time.perf_counter()
        parent = run.span("registry_pass", pass_start, None, seed=s)
        for experiment in ids:
            start = time.perf_counter()
            code, reports = run_reports(procs, [binary, "run", experiment, "--seed", str(s), "--format", "json"])
            end = time.perf_counter()
            run.record(end - start, check_single(code, reports, experiment))
            per_experiment[experiment].append(end - start)
            run.span(experiment, start, end, parent)
        run.spans[parent]["end"] = time.perf_counter()
        passes.append(run.spans[parent]["end"] - pass_start)
        if time.perf_counter() >= deadline:
            break
    run.layers["cpu_ms_per_op"] = (children_cpu() - cpu0) / run.attempted * 1e3
    for experiment in TIMED_EXPERIMENTS:
        run.layers[f"exp_{experiment}_ms"] = median(per_experiment[experiment]) * 1e3
    run.layers["registry_serial_s"] = median(passes)
    return run


# ---------------------------------------------------------------- serve


class Server:
    """One `bandwall serve` on an ephemeral localhost port."""

    def __init__(self, procs, binary):
        start = time.perf_counter()
        # Default settings, but a queue deeper than the client ever keeps
        # open: a host stall then shows as latency, not as shed requests.
        self.proc = procs.spawn(
            [binary, "serve", "--addr", "127.0.0.1:0", "--queue", str(2 * traffic.MAX_OPEN)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.procs = procs
        line = self.proc.stderr.readline()
        found = re.search(r"serving on (\S+):(\d+)", line)
        if not found:
            raise BenchError(f"bandwall serve did not come up: {line.strip()!r}")
        self.addr = (found.group(1), int(found.group(2)))
        while True:
            try:
                if traffic.call(self.addr, "GET", "/healthz")[0] == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() - start > 30:
                raise BenchError("bandwall serve never answered /healthz")
            time.sleep(0.0005)
        self.ready_after = time.perf_counter() - start

    def drain(self):
        """SIGTERM, wait for the graceful drain, return its stats."""
        self.proc.send_signal(signal.SIGTERM)
        out, err = self.proc.communicate(timeout=60)
        self.procs.live.remove(self.proc)
        if self.proc.returncode != 0:
            raise BenchError(f"bandwall serve drained with exit {self.proc.returncode}: {err.strip()}")
        return json.loads(out.strip().splitlines()[-1])


def v1_open_loop(procs, binary, seed, seconds, trace):
    """Open-loop /v1 traffic at RATE requests per second, each timed from
    when it was due; the server's CPU is charged per request."""
    run = Run()
    for _ in range(SETUP_REPEATS - 1):
        server = Server(procs, binary)
        run.setup.append(server.ready_after)
        server.drain()
    server = Server(procs, binary)
    run.setup.append(server.ready_after)
    due, connections = traffic.generate(seed, RATE, seconds)
    cpu0 = children_cpu()
    outcomes = traffic.drive(server.addr, due, connections, GRACE)
    for problem in traffic.spot_checks(server.addr):
        run.fail(problem)
    stats = server.drain()
    pairs = [p for requests, outs in zip(connections, outcomes) for p in zip(requests, outs)]
    run.layers["cpu_ms_per_op"] = (children_cpu() - cpu0) / len(pairs) * 1e3

    verifier = traffic.Verifier()
    splits = {name: [] for name in SERVE_SPLITS}
    done = []
    for request, out in pairs:
        problem = out.error
        if problem is None and out.status != 200:
            problem = f"{request.label}: HTTP {out.status} {out.body[:200]!r}"
        if problem is None:
            problem = verifier.check(request, out.body)
        run.record(out.done - out.due if out.done else None, problem)
        if problem:
            continue
        done.append((request, out))
        splits[request.label].append(out.done - out.due)
        splits["keepalive" if out.reused else "fresh_conn"].append(out.done - out.due)
        if trace:
            root = run.span(request.label, out.due, out.done, late=out.launch - out.due, reused=out.reused)
            run.span("connect", out.launch, out.connected, root)
            run.span("send", out.connected, out.sent, root)
            run.span("server", out.sent, out.first, root)
            run.span("read", out.first, out.done, root)
    problem = verifier.finish()
    if problem:
        run.fail(problem)
    if stats["internal"] or stats["worker_respawns"] or stats["shed"]:
        run.fail(f"server stats at drain: {stats}")
    for name, values in splits.items():
        run.layers[f"{name}_p50_ms"] = median(values) * 1e3
    opened = [o for _, o in done if not o.reused]
    repeats = [o for r, o in done if r.label == "solve_repeat"]
    run.layers["connect_p50_ms"] = median([o.connected - o.launch for o in opened]) * 1e3
    run.layers["server_p50_ms"] = median([o.first - o.sent for _, o in done]) * 1e3
    run.layers["late_p99_ms"] = percentile([o.launch - o.due for o in opened] or [0.0], 99) * 1e3
    run.layers["serve_start_ms"] = median(run.setup) * 1e3
    run.layers["memo_hits"] = stats["cache_hits"]
    run.layers["memo_misses"] = stats["cache_misses"]
    run.layers["repeat_hits_pct"] = 100 * sum(o.cache == "hit" for o in repeats) / max(1, len(repeats))
    return run


# ----------------------------------------------------------------- main

WORKLOADS = {"v1_open_loop": v1_open_loop, "fig14_long": fig14_long, "registry_full": registry_full}


def traced(procs, binary, workload, seed, seconds):
    """The traced run: the workload itself, then CENSUS_SECONDS of each
    other workload for the layers it does not reach. The workload's own
    figures win where both measure a layer."""
    run = WORKLOADS[workload](procs, binary, seed, seconds, True)
    spans = {workload: run.spans}
    for other, fn in WORKLOADS.items():
        if other == workload:
            continue
        census = fn(procs, binary, seed, CENSUS_SECONDS, True)
        spans[other] = census.spans
        run.attempted += census.attempted
        run.failed += census.failed
        run.errors += census.errors
        for name, value in census.layers.items():
            run.layers.setdefault(name, value)
    run.spans = spans
    return run


def result(run, trace):
    if trace:
        values = run.layers
        names = PER_LAYER
    else:
        # When every operation failed, the run is reported incorrect with
        # the times of those that ended.
        latencies = run.latencies or run.failed_times
        if not latencies:
            raise BenchError("no operation ended")
        values = {
            "p50_ms": sliced_median(latencies) * 1e3,
            "cpu_ms_per_op": run.layers["cpu_ms_per_op"],
            "setup_s": median(run.setup),
        }
        names = END_TO_END
    return {
        "correct": run.failed == 0 and not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names.items()},
    }


def write_spans(root, workload, seed, spans):
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans_{workload}_seed{seed}.json")
    with open(path, "w") as f:
        json.dump(spans, f)
    log(f"wrote spans to {path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    root = os.getcwd()
    procs = Processes()

    def on_alarm(_signum, _frame):
        raise BenchError("run overran its time limit")

    try:
        binary = build(root)
        signal.signal(signal.SIGALRM, on_alarm)
        signal.alarm(int(args.seconds) + WATCHDOG_SLACK)
        if args.trace:
            run = traced(procs, binary, args.workload, args.seed, args.seconds)
        else:
            run = WORKLOADS[args.workload](procs, binary, args.seed, args.seconds, False)
        report = result(run, args.trace)
        signal.alarm(0)
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 2
    finally:
        procs.stop_all()
    for message in run.errors:
        log(f"check failed: {message}")
    if args.trace:
        write_spans(root, args.workload, args.seed, run.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
