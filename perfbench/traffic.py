"""Open-loop /v1 traffic against a running `bandwall serve`.

The traffic follows the repository's own documented use of the service:

- `POST /v1/solve`, `/v1/sweep` and `/v1/batch` share the requests 7:2:1,
  the `--mix solve=7,sweep=2,batch=1` example of `bandwall loadgen` in
  README.md.
- Half the requests ride keep-alive connections, each carrying one cycle
  of that mix back to back, in the order loadgen's `--mix` kernel sends
  it on its keep-alive connection. The other half open a fresh
  connection each (`Connection: close`), which is the only way the
  acceptor and the admission queue see every request.
- Each endpoint gets cold and memoized requests in equal shares, as
  loadgen times a cold and a memoized kernel per endpoint: half the
  solves repeat a recent problem; half the sweeps are named figure
  sweeps, memoized after their first request, and half are custom sweeps
  of a fresh base and one technique, the shape of loadgen's cold sweep;
  every batch has the shape of loadgen's mixed batch: a solve of a
  recent problem, a named sweep, and one job that must come back
  `invalid_request`.

Three things are assumptions, not documented use: the half of the
requests on keep-alive, the contents of a fresh problem (see `_problem`),
and the rate `run.py` sends at.

Connections open on a seeded Poisson schedule. A request is timed from
when it was due: the first request of a connection from its scheduled
arrival, a later one from the moment the reply before it arrived. A
stall in the server therefore also charges the requests queued behind
it; how late the generator itself opened each connection is recorded
separately.

The problems, schedule and mix come from the seed alone: the technique
specs and named sweeps below are fixed here rather than read from the
server, so a change to the catalogue cannot change the inputs. Replies
are kept in memory and checked after the timed window.
"""

import errno
import gc
import json
import random
import re
import select
import socket
import time
from collections import deque

# Request-ready technique specs, grouped by technique: the assumption
# levels `GET /v1/techniques` advertises for each catalogue entry.
TECHNIQUES = {
    "cache_compression": [{"ratio": 1.25}, {"ratio": 2}, {"ratio": 3.5}],
    "dram_cache": [{"density": 4}, {"density": 8}, {"density": 16}],
    "stacked_cache": [{"layers": 1}],
    "unused_data_filter": [{"unused_fraction": f} for f in (0.1, 0.4, 0.8)],
    "smaller_cores": [{"area_fraction": f} for f in (1 / 9, 0.025, 0.0125)],
    "link_compression": [{"ratio": 1.25}, {"ratio": 2}, {"ratio": 3.5}],
    "sectored_cache": [{"unused_fraction": f} for f in (0.1, 0.4, 0.8)],
    "small_cache_lines": [{"unused_fraction": f} for f in (0.1, 0.4, 0.8)],
    "cache_link_compression": [{"ratio": 1.25}, {"ratio": 2}, {"ratio": 3.5}],
    "thermal_capped_3d": [
        {"layers": 2, "layer_density": 8, "thermal_derate": 0.5},
        {"layers": 4, "layer_density": 8, "thermal_derate": 0.7},
        {"layers": 8, "layer_density": 16, "thermal_derate": 0.85},
    ],
    "cxl_harvesting": [
        {"io_bandwidth_ratio": 0.25, "idle_fraction": 0.25},
        {"io_bandwidth_ratio": 0.5, "idle_fraction": 0.5},
        {"io_bandwidth_ratio": 1, "idle_fraction": 0.8},
    ],
}

NAMED_SWEEPS = [
    "fig04_cache_compression",
    "fig05_dram_cache",
    "fig06_3d_cache",
    "fig07_filtering",
    "fig08_smaller_cores",
    "fig09_link_compression",
    "fig10_sectored",
    "fig11_small_lines",
    "fig12_cache_link",
    "thermal_capped_3d",
    "cxl_harvesting",
]

# Problems whose supportable core count the paper states (Figures 2, 3
# and 15): checked after the timed window, each must come out exact.
ANCHORS = [
    ({"total_ceas": 32}, 11),
    ({"total_ceas": 256}, 24),
    ({"total_ceas": 256, "techniques": [{"kind": "dram_cache", "density": 8}]}, 47),
]

# Shares of the three endpoints: `bandwall loadgen --mix solve=7,sweep=2,batch=1`.
MIX = [("solve", 7), ("sweep", 2), ("batch", 1)]


def _cycle(mix):
    """One cycle of `mix` in the order `bandwall loadgen --mix` sends it:
    round-robin over the endpoints that still have weight left."""
    left = dict(mix)
    order = []
    while any(left.values()):
        for kind, _ in mix:
            if left[kind]:
                order.append(kind)
                left[kind] -= 1
    return order


# The requests of one keep-alive connection.
SESSION = _cycle(MIX)
# Every SESSION_EVERY-th connection is a keep-alive one and the others
# carry one request each, so that half the requests ride keep-alive.
SESSION_EVERY = len(SESSION) + 1
# Share of the solves and of the sweeps the memo cache answers.
MEMOIZED = 0.5
# Repeats are drawn from the last WINDOW fresh problems. The server's
# default memo cache holds 4096 entries in 16 FIFO shards; at 500
# requests per second a problem leaves the window after about 6 s and
# 1,600 memo inserts, a hundred per shard of 256, so every repeat is a
# memo hit whatever the run length.
WINDOW = 1000
# The job of loadgen's mixed batch that must fail in its slot.
INVALID_JOB = {"kind": "solve", "problem": {"total_ceas": -1}}

PATHS = {"solve": "/v1/solve", "sweep": "/v1/sweep", "batch": "/v1/batch"}

# Connections the client keeps open at once. `select` times the schedule
# to the microsecond (`poll` and `epoll` round up to whole milliseconds)
# but cannot watch descriptors past 1023, so a server stall long enough
# to pile up this many connections fails the ones that arrive during it.
MAX_OPEN = 900

RESULT_KEYS = {
    "total_ceas",
    "bandwidth_growth",
    "supportable_cores",
    "ideal_cores",
    "crossover_cores",
    "relative_traffic",
    "core_area_fraction",
    "scaling_efficiency",
    "problem_digest",
}


class Request:
    """One generated request, the name its latency is reported under,
    and what its reply must satisfy."""

    __slots__ = ("label", "wire", "check")

    def __init__(self, kind, label, body, check, close):
        payload = json.dumps(body, separators=(",", ":")).encode()
        head = f"POST {PATHS[kind]} HTTP/1.1\r\nhost: bench\r\n"
        if close:
            head += "connection: close\r\n"
        head += f"content-type: application/json\r\ncontent-length: {len(payload)}\r\n\r\n"
        self.label = label
        self.wire = head.encode() + payload
        self.check = check


def _technique(rng, kind):
    return dict({"kind": kind}, **rng.choice(TECHNIQUES[kind]))


def _problem(rng, techniques=True):
    """A fresh problem: 33 to 512 CEAs (32, the named sweeps' die, is
    left to them), half of them with a bandwidth growth, and up to three
    techniques at the levels the catalogue advertises."""
    problem = {"total_ceas": rng.randrange(33, 513)}
    if rng.random() < 0.5:
        problem["bandwidth_growth"] = rng.choice([1.25, 1.5, 2.0, 3.0])
    kinds = rng.sample(sorted(TECHNIQUES), rng.choice([0, 1, 1, 2, 2, 3]) if techniques else 0)
    if kinds:
        problem["techniques"] = [_technique(rng, k) for k in kinds]
    return problem


def _key(problem):
    """A problem as the memo cache tells problems apart: technique order
    aside, equal keys are one cache entry."""
    techniques = sorted(json.dumps(t, sort_keys=True) for t in problem.get("techniques", []))
    return json.dumps(dict(problem, techniques=techniques), sort_keys=True, separators=(",", ":"))


class _Contents:
    """Draws request contents. Keeps the recent fresh problems for
    repeats, and every memo key sent so far, so that a fresh problem or
    custom sweep is one the server has not solved yet."""

    def __init__(self, rng):
        self.rng = rng
        self.recent = deque(maxlen=WINDOW)
        self.keys = set()

    def _new(self, problems):
        keys = [_key(p) for p in problems]
        if any(k in self.keys for k in keys):
            return False
        self.keys.update(keys)
        return True

    def fresh(self):
        while True:
            problem = _problem(self.rng)
            if self._new([problem]):
                self.recent.append(problem)
                return problem

    def repeat(self):
        return self.rng.choice(self.recent) if self.recent else self.fresh()

    def request(self, kind, close):
        rng = self.rng
        if kind == "solve":
            if self.recent and rng.random() < MEMOIZED:
                label, problem = "solve_repeat", self.repeat()
            else:
                label, problem = "solve", self.fresh()
            return Request(kind, label, problem, ("solve", _key(problem), problem), close)
        if kind == "sweep":
            if rng.random() < MEMOIZED:
                return Request(kind, kind, {"sweep": rng.choice(NAMED_SWEEPS)}, ("sweep", None), close)
            while True:
                base = _problem(rng, techniques=False)
                technique = _technique(rng, rng.choice(sorted(TECHNIQUES)))
                if self._new([base, dict(base, techniques=[technique])]):
                    break
            body = {"base": base, "variants": [{"label": "base"}, {"technique": technique}]}
            return Request(kind, kind, body, ("sweep", 2), close)
        problem = self.repeat()
        jobs = [
            {"kind": "solve", "problem": problem},
            {"kind": "sweep", "sweep": rng.choice(NAMED_SWEEPS)},
            INVALID_JOB,
        ]
        return Request(kind, kind, {"jobs": jobs}, ("batch", _key(problem), problem), close)


def generate(seed, rate, seconds):
    """Returns `(due, connections)` for one run: Poisson arrival offsets
    over `seconds`, carrying `rate` requests per second on average, and
    the requests each connection sends, in order."""
    rng = random.Random(seed)
    contents = _Contents(rng)
    kinds = [k for k, _ in MIX]
    weights = [w for _, w in MIX]
    per_connection = (len(SESSION) + SESSION_EVERY - 1) / SESSION_EVERY
    due, connections = [], []
    t = 0.0
    while True:
        t += rng.expovariate(rate / per_connection)
        if t >= seconds:
            break
        due.append(t)
        order = SESSION if len(due) % SESSION_EVERY == 0 else rng.choices(kinds, weights)
        connections.append([contents.request(k, i == len(order) - 1) for i, k in enumerate(order)])
    return due, connections


class Outcome:
    """Timestamps (perf_counter seconds) and reply of one request.
    `reused` is whether it rode a connection an earlier request opened."""

    __slots__ = ("due", "launch", "reused", "connected", "sent", "first", "done", "status", "body", "cache", "error")

    def __init__(self, due, launch, reused):
        self.due = due
        self.launch = launch
        self.reused = reused
        self.connected = self.sent = self.first = self.done = None
        self.status = self.body = self.cache = self.error = None


def drive(addr, due, connections, grace):
    """Opens connection `i` at `start + due[i]` and sends its requests one
    after another, each once the reply before it is in; if the server
    closes the connection between two of them, the next one opens a new
    connection, as any HTTP client would. Returns, per connection, one
    `Outcome` per request; whatever is still open `grace` seconds after
    the last connection was due fails."""
    # The loop makes no reference cycles, and a collector pass over the
    # generated requests would hold up the schedule by milliseconds.
    gc.disable()
    try:
        return _drive(addr, due, connections, grace)
    finally:
        gc.enable()


def _drive(addr, due, connections, grace):
    outcomes = [[] for _ in connections]
    live = {}  # socket -> [connection index, bytes left to send, reply bytes]

    def fail(i, error, sock=None):
        """Closes connection `i`; fails its request in flight and every
        one not sent yet."""
        if sock is not None:
            del live[sock]
            sock.close()
        outs = outcomes[i]
        if outs and outs[-1].done is None and outs[-1].error is None:
            outs[-1].error = error
        while len(outs) < len(connections[i]):
            out = Outcome(None, None, False)
            out.error = f"not sent: {error}"
            outs.append(out)

    def send(i, sock, now, due_at):
        """Starts connection `i`'s next request, on `sock` or, when it is
        `None`, on a new connection."""
        outs = outcomes[i]
        out = Outcome(due_at, now, sock is not None)
        outs.append(out)
        if sock is None:
            if len(live) >= MAX_OPEN:
                return fail(i, f"{MAX_OPEN} connections already open")
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setblocking(False)
            err = sock.connect_ex(addr)
            if err not in (0, errno.EINPROGRESS):
                sock.close()
                return fail(i, f"connect: {errno.errorcode.get(err, err)}")
        else:
            out.connected = now
        live[sock] = [i, memoryview(connections[i][len(outs) - 1].wire), bytearray()]

    start = time.perf_counter() + 0.05
    give_up = start + (due[-1] if due else 0.0) + grace
    n = len(connections)
    nxt = 0
    while nxt < n or live:
        now = time.perf_counter()
        while nxt < n and start + due[nxt] <= now:
            send(nxt, None, now, start + due[nxt])
            nxt += 1
            now = time.perf_counter()
        if now > give_up:
            for sock, entry in list(live.items()):
                fail(entry[0], "no reply before the deadline", sock)
            break
        writing = [s for s, e in live.items() if e[1]]
        reading = [s for s, e in live.items() if not e[1]]
        timeout = start + due[nxt] - now if nxt < n else give_up - now
        ready_r, ready_w, _ = select.select(reading, writing, [], max(0.0, timeout))
        now = time.perf_counter()
        for sock in ready_w:
            entry = live[sock]
            out = outcomes[entry[0]][-1]
            if out.connected is None:
                err = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
                if err:
                    fail(entry[0], f"connect: {errno.errorcode.get(err, err)}", sock)
                    continue
                out.connected = now
            try:
                entry[1] = entry[1][sock.send(entry[1]) :]
            except OSError as e:
                fail(entry[0], f"send: {e}", sock)
                continue
            if not entry[1]:
                out.sent = now
        for sock in ready_r:
            i, _, raw = entry = live[sock]
            out = outcomes[i][-1]
            try:
                chunk = sock.recv(65536)
            except OSError as e:
                fail(i, f"recv: {e}", sock)
                continue
            if out.first is None:
                out.first = now
            raw += chunk
            reply = _reply(raw)
            if reply is None:
                if not chunk:
                    fail(i, "connection closed before the reply ended", sock)
                continue
            out.done = now
            out.status, headers, out.body, out.error = reply
            if out.error:
                fail(i, out.error, sock)
                continue
            out.cache = headers.get("x-bandwall-cache")
            if len(outcomes[i]) < len(connections[i]) and "close" not in headers.get("connection", ""):
                send(i, sock, now, now)
                continue
            del live[sock]
            sock.close()
            if len(outcomes[i]) < len(connections[i]):
                send(i, None, now, now)
    for i in range(nxt, n):
        fail(i, "never sent")
    return outcomes


def _reply(raw):
    """Parses the HTTP reply in `raw`. Returns `None` while it is
    incomplete, else `(status, headers, body, error)`."""
    end = raw.find(b"\r\n\r\n")
    if end < 0:
        return None
    lines = raw[:end].decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) < 2 or not parts[1].isdigit():
        return None, {}, None, f"bad status line {lines[0]!r}"
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip().lower()
    length = headers.get("content-length", "")
    if not length.isdigit():
        return int(parts[1]), headers, None, "reply has no content-length"
    body = raw[end + 4 :]
    if len(body) < int(length):
        return None
    if len(body) > int(length):
        return int(parts[1]), headers, None, f"{len(body) - int(length)} bytes after the reply"
    return int(parts[1]), headers, bytes(body), None


def call(addr, method, path, body=None, timeout=5.0):
    """One blocking request on its own connection; returns
    `(status, body bytes)`."""
    payload = b"" if body is None else json.dumps(body, separators=(",", ":")).encode()
    head = f"{method} {path} HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n"
    if body is not None:
        head += f"content-type: application/json\r\ncontent-length: {len(payload)}\r\n"
    with socket.create_connection(addr, timeout=timeout) as sock:
        sock.sendall(head.encode() + b"\r\n" + payload)
        raw = bytearray()
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
    reply = _reply(raw)
    if reply is None or reply[3]:
        raise OSError(f"{method} {path}: {reply[3] if reply else 'truncated reply'}")
    return reply[0], reply[2]


def spot_checks(addr):
    """Untimed checks, made after the timed window: the catalogue lists
    every technique and named sweep the traffic used, and the paper
    anchors come out exact. Returns what is wrong, as a list."""
    wrong = []
    try:
        status, body = call(addr, "GET", "/v1/techniques")
        result = json.loads(body)["result"]
        ids = {t["id"] for t in result["techniques"]}
        if status != 200 or not set(TECHNIQUES) <= ids or not set(NAMED_SWEEPS) <= set(result["sweeps"]):
            wrong.append("catalogue lacks a technique or sweep the traffic uses")
        for problem, cores in ANCHORS:
            status, body = call(addr, "POST", "/v1/solve", problem)
            got = json.loads(body)["result"]["supportable_cores"] if status == 200 else status
            if got != cores:
                wrong.append(f"anchor {_key(problem)}: got {got}, paper says {cores} cores")
    except (OSError, ValueError, KeyError, TypeError) as e:
        wrong.append(f"spot check: {e!r}")
    return wrong


class Verifier:
    """Checks each reply against what its request implies: named-sweep
    rows against the paper values they carry, model invariants,
    byte-identical replies for repeated problems, and batch slots that
    agree with direct solves of the same problem."""

    def __init__(self):
        self.solved = {}  # problem key -> the /v1/solve reply body
        self.batched = []  # (problem key, result of a batch solve slot)

    def check(self, request, body):
        """Returns `None` when the reply is right, else what is wrong."""
        try:
            doc = json.loads(body)
        except ValueError as e:
            return f"reply is not JSON: {e}"
        if doc.get("status") != "ok":
            return f"status {doc.get('status')!r}"
        kind = request.check[0]
        if kind == "solve":
            _, key, problem = request.check
            first = self.solved.setdefault(key, body)
            if body != first:
                return "repeated problem got a different reply"
            return _result(problem, doc["result"])
        if kind == "sweep":
            return _sweep(request.check[1], doc["result"])
        return self._batch(request.check[1], request.check[2], doc["result"])

    def _batch(self, key, problem, result):
        slots = result["results"]
        if len(slots) != 3:
            return f"batch of 3 jobs answered {len(slots)} slots"
        solve, sweep, invalid = slots
        if solve.get("status") != "ok" or sweep.get("status") != "ok":
            return f"batch job failed: {json.dumps(slots)[:200]}"
        error = _result(problem, solve["result"]) or _sweep(None, sweep["result"])
        if error:
            return "batch " + error
        if invalid.get("status") != "error" or invalid.get("error", {}).get("kind") != "invalid_request":
            return f"batch's invalid job answered {json.dumps(invalid)[:200]}"
        self.batched.append((key, solve["result"]))
        return None

    def finish(self):
        """Cross-checks batch solve slots against direct solves of the
        same problem; returns the first mismatch or `None`."""
        for key, result in self.batched:
            direct = self.solved.get(key)
            if direct is not None and json.loads(direct)["result"] != result:
                return f"batch and /v1/solve disagree on {key}"
        return None


def _result(problem, result):
    if set(result) != RESULT_KEYS:
        return f"result keys {sorted(result)}"
    if result["total_ceas"] != problem["total_ceas"]:
        return "result echoes a different total_ceas"
    if result["bandwidth_growth"] != problem.get("bandwidth_growth", 1):
        return "result echoes a different bandwidth_growth"
    return _invariants(result)


def _invariants(result):
    """The model's own laws, which hold for every problem: the supportable
    core count is the whole part of the crossover, its traffic fits the
    bandwidth envelope, and the ratios are consistent."""
    cores = result["supportable_cores"]
    if not (isinstance(cores, int) and cores >= 1):
        return f"supportable cores {cores!r} is not a positive whole number"
    if not cores - 1 <= result["crossover_cores"] < cores + 1:
        return f"supportable {cores} cores but crossover at {result['crossover_cores']}"
    if not 0 < result["relative_traffic"] <= result["bandwidth_growth"] * (1 + 1e-9):
        return f"relative traffic {result['relative_traffic']} outside the envelope"
    if abs(result["scaling_efficiency"] - cores / result["ideal_cores"]) > 1e-12:
        return "scaling efficiency is not supportable / ideal cores"
    if not 0 < result["core_area_fraction"] <= 1:
        return f"core area fraction {result['core_area_fraction']} outside (0, 1]"
    if not re.fullmatch(r"[0-9a-f]{16}", result["problem_digest"]):
        return "malformed problem digest"
    return None


def _sweep(variants, result):
    rows = result["rows"]
    if variants is not None and len(rows) != variants:
        return f"sweep of {variants} variants answered {len(rows)} rows"
    for row in rows:
        cores = row["result"]["supportable_cores"]
        if row["paper"] is not None and cores != row["paper"]:
            return f"sweep row {row['label']!r}: {cores} cores, paper says {row['paper']}"
        error = _invariants(row["result"])
        if error:
            return f"sweep row {row['label']!r}: {error}"
    return None
