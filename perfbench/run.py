#!/usr/bin/env python3
"""The repository benchmark.

Drives the unmodified ``ssta_cli.exe`` the way a user does -- one
``ssta run`` process per request, or one warm ``ssta serve`` process per
design answering line-delimited JSON -- and prints every end-to-end metric
by name with its unit.  Every answer is checked against a reference that
``replay.exe refs`` computes in-process through the library's public entry
points.  ``--trace 1`` instead replays the same generated requests
in-process through each layer's public functions (``replay.exe trace``)
and prints the per-layer metrics.  See perfbench/README.md.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve-eco --seed 1 --seconds 10 --trace 0

One client, closed loop, one request outstanding; the program runs with
``--jobs 1``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench")
CLI = os.path.join(ROOT, "_build", "default", "bin", "ssta_cli.exe")
REPLAY = os.path.join(ROOT, "_build", "default", "perfbench", "replay.exe")

# Set-up is repeated several times in one end-to-end run (each workload's
# `setups`); setup_s is the median.  The last set-up is the one the timed
# loop uses.

CLI_DESIGNS = ["c432", "c880", "c1908", "c2670", "c3540", "c5315", "c7552"]
CLI_CONFIDENCES = ["0.02", "0.035", "0.05"]
# serve-enum: per-design path caps chosen so that a request costs about the
# same on both designs, keeping the latency median inside one cost class.
ENUM_CAPS = {"c1355": 200, "c6288": 100}
ENUM_CONFIDENCES = [0.02, 0.05, 0.1]
# serve-block: two c3540 sweeps per c7552 sweep, so the median of a run
# falls inside the c3540 class instead of on the boundary between classes.
BLOCK_CYCLE = ["c3540", "c3540", "c7552"]
ECO_DESIGN = "c7552"
# serve-eco runs are capped so that their work does not drift with the
# committed edits: the median falls inside the run class.
ECO_RUN_CAP = 8
EDIT_KINDS = ["resize", "retype", "move"]

WORKLOADS = ["cli-light", "serve-enum", "serve-block", "serve-eco"]


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Build the program and the helper from the checkout's sources."""
    for f in ("dune-project", os.path.join("bin", "ssta_cli.ml"),
              os.path.join("perfbench", "replay.ml")):
        if not os.path.exists(os.path.join(ROOT, f)):
            fail("no %s here: run from the root of the ssta repository" % f, 2)
    if shutil.which("dune") is None:
        fail("dune is not on PATH", 2)
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled",
         "./bin/ssta_cli.exe", "./perfbench/replay.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        fail("build failed:\n" + r.stdout)


def helper(*args):
    r = subprocess.run([REPLAY] + [str(a) for a in args],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    if r.returncode != 0:
        fail("replay.exe %s failed:\n%s" % (args[0], r.stderr))
    return r.stdout.splitlines()


def generate(gen, designs):
    """Write .bench/.def/.spef/.v for each design with `ssta generate`."""
    shutil.rmtree(gen, ignore_errors=True)
    os.makedirs(gen)
    for d in designs:
        subprocess.run([CLI, "generate", d, "-o", gen], check=True,
                       stdout=subprocess.DEVNULL)


# --------------------------------------------------------------------------
# Answer checking


def check_answer(kind, answer, ref, want_id=None):
    """True when the program's answer equals the reference answer.

    kind "cli": the stdout of one `ssta run --json` process (None when the
    process failed); it must equal the reference report byte for byte.
    kind "serve": one server response line; its status must be "ok", its id
    the request's, and either its "report" document equals the reference
    report (floats compare exactly: both sides print round-trip %.17g) or
    every reference field equals the response's field of that name.
    """
    if answer is None:
        return False
    if kind == "cli":
        return answer == ref["report"] + "\n"
    try:
        r = json.loads(answer)
    except ValueError:
        return False
    if not isinstance(r, dict) or r.get("status") != "ok":
        return False
    if want_id is not None and r.get("id") != want_id:
        return False
    if "report" in ref:
        return r.get("report") == json.loads(ref["report"])
    return all(k in r and r[k] == v for k, v in ref["fields"].items())


def write_requests(path, lines):
    with open(path, "w") as f:
        for phase, kind, design, payload in lines:
            f.write("\t".join([phase, kind, design, payload]) + "\n")


# --------------------------------------------------------------------------
# The program, driven as a user drives it


def cli_request(gen, design, confidence):
    """One `ssta run` process: (wall seconds, stdout or None, max RSS KiB)."""
    stem = os.path.join(gen, design)
    t0 = time.perf_counter()
    p = subprocess.Popen(
        [CLI, "run", "x", "--bench", stem + ".bench", "--def", stem + ".def",
         "--spef", stem + ".spef", "--json", "--jobs", "1",
         "--confidence", confidence],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = p.stdout.read()
    p.stdout.close()
    _, status, usage = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    text = out.decode() if p.returncode == 0 else None
    return wall, text, usage.ru_maxrss


class Server:
    """One `ssta serve --jobs 1` process on a generated design."""

    def __init__(self, gen, design):
        stem = os.path.join(gen, design)
        self.proc = subprocess.Popen(
            [CLI, "serve", "x", "--bench", stem + ".bench", "--def",
             stem + ".def", "--jobs", "1"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, bufsize=1)

    def request(self, line):
        """(latency, response line or None when the server is gone)."""
        t0 = time.perf_counter()
        try:
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
            resp = self.proc.stdout.readline()
        except OSError:
            resp = ""
        return time.perf_counter() - t0, resp.rstrip("\n") or None

    def peak_rss_kib(self):
        try:
            with open("/proc/%d/status" % self.proc.pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    def close(self):
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write('{"op":"shutdown"}\n')
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


# --------------------------------------------------------------------------
# Workloads: each yields its warm-up requests and an endless supply of
# whole cycles of timed requests.  A request is (kind, design, payload):
# kind "cli" with payload a confidence, or kind "serve" with payload the
# JSON line (its id is filled in when sent).


class CliLight:
    designs = CLI_DESIGNS
    setups = 5
    served = False
    stateful = False

    def __init__(self, rng, gen):
        self.rng = rng
        self.combos = [(d, c) for d in CLI_DESIGNS for c in CLI_CONFIDENCES]

    def warmup(self):
        return [("cli", d, "0.035") for d in CLI_DESIGNS]

    def cycle(self):
        combos = list(self.combos)
        self.rng.shuffle(combos)
        return [("cli", d, c) for d, c in combos]


class ServeEnum:
    designs = list(ENUM_CAPS)
    setups = 5
    served = True
    stateful = False

    def __init__(self, rng, gen):
        self.rng = rng

    def _all(self):
        return [("serve", d, dict(op="run", max_paths=cap, confidence=c))
                for d, cap in ENUM_CAPS.items() for c in ENUM_CONFIDENCES]

    def warmup(self):
        return self._all() * 2

    def cycle(self):
        reqs = self._all()
        self.rng.shuffle(reqs)
        return reqs


class ServeBlock:
    designs = sorted(set(BLOCK_CYCLE))
    setups = 3
    served = True
    stateful = False

    def __init__(self, rng, gen):
        self.rng = rng

    @staticmethod
    def _req(d):
        return ("serve", d, dict(op="run", engine="block",
                                 max_policy="clark"))

    def warmup(self):
        return [self._req(d) for d in self.designs]

    def cycle(self):
        order = list(BLOCK_CYCLE)
        self.rng.shuffle(order)
        return [self._req(d) for d in order]


class ServeEco:
    designs = [ECO_DESIGN]
    setups = 5
    served = True
    stateful = True  # edits change the served design
    _pools = {}

    def __init__(self, rng, gen):
        self.rng = rng
        with open(os.path.join(gen, ECO_DESIGN + ".bench")) as f:
            outputs = [l.strip()[len("OUTPUT("):-1] for l in f
                       if l.startswith("OUTPUT(")]
        # Queries visit the outputs in a seeded order, round robin.
        rng.shuffle(outputs)
        self.outputs = outputs
        self.next_query = 0
        # A pool of seeded single-gate edits over the generated netlist,
        # split by kind: each cycle edits, and asks what-if, once per kind.
        key = (gen, rng.randrange(1 << 30))
        if key not in self._pools:
            self._pools[key] = helper("edits", gen, ECO_DESIGN, key[1], 3000)
        self.by_kind = {k: [e for e in self._pools[key] if e.split()[0] == k]
                        for k in EDIT_KINDS}
        self.next_edit = dict.fromkeys(EDIT_KINDS, 0)

    def _edit(self, kind):
        i = self.next_edit[kind]
        self.next_edit[kind] += 1
        return self.by_kind[kind][i % len(self.by_kind[kind])]

    def _query(self):
        endpoint = self.outputs[self.next_query % len(self.outputs)]
        self.next_query += 1
        return dict(op="query", endpoint=endpoint)

    def cycle(self):
        """15 requests in seeded order: 40% query, 20% run (at the
        server's default confidence), 20% what-if and 20% edit (one per
        edit kind each)."""
        reqs = ([self._query() for _ in range(6)]
                + [dict(op="run", max_paths=ECO_RUN_CAP) for _ in range(3)]
                + [dict(op=op, edits=self._edit(k))
                   for op in ("what-if", "edit") for k in EDIT_KINDS])
        self.rng.shuffle(reqs)
        return [("serve", ECO_DESIGN, r) for r in reqs]

    def warmup(self):
        return self.cycle()


CLASSES = {"cli-light": CliLight, "serve-enum": ServeEnum,
           "serve-block": ServeBlock, "serve-eco": ServeEco}


# --------------------------------------------------------------------------
# One session: set-up, warm-up, requests


class Session:
    """Runs requests against the program, recording what was sent."""

    def __init__(self, gen, workload):
        self.gen = gen
        self.workload = workload
        self.servers = {}
        self.sent = []  # (phase, kind, design, payload, answer, latency)
        self.peak_kib = 0
        self.next_id = 0

    def start(self):
        if self.workload.served:
            for d in self.workload.designs:
                self.servers[d] = Server(self.gen, d)

    def send(self, phase, req):
        kind, design, payload = req
        if kind == "cli":
            lat, answer, rss = cli_request(self.gen, design, payload)
            if phase == "T":
                self.peak_kib = max(self.peak_kib, rss)
            self.sent.append((phase, kind, design, payload, answer, lat))
            return lat
        self.next_id += 1
        line = json.dumps(dict(id=self.next_id, **payload),
                          separators=(",", ":"))
        lat, answer = self.servers[design].request(line)
        self.sent.append((phase, kind, design, line, answer, lat))
        return lat

    def close(self):
        for s in self.servers.values():
            self.peak_kib = max(self.peak_kib, s.peak_rss_kib())
            s.close()
        self.servers = {}


def set_up(workload_cls, rng_seed, gen):
    """Generate inputs (cli-light), start the program, run the warm-up.

    Returns (seconds, session, workload).  Input generation is part of
    set-up for cli-light, whose every request re-reads the files."""
    workload = workload_cls(random.Random(rng_seed), gen)
    t0 = time.perf_counter()
    if not workload_cls.served:
        generate(gen, workload_cls.designs)
    session = Session(gen, workload)
    session.start()
    for req in workload.warmup():
        session.send("W", req)
    return time.perf_counter() - t0, session, workload


def request_key(sent):
    """What a request's answer depends on, when the design never changes:
    everything but its id."""
    _, kind, design, payload = sent[:4]
    if kind == "serve":
        req = json.loads(payload)
        del req["id"]
        payload = json.dumps(req, sort_keys=True)
    return (kind, design, payload)


def check_session(session, tmpdir):
    """Check every answer against its reference.

    Returns (attempted, failed, bad_warm): timed requests, wrong timed
    answers, wrong warm-up answers."""
    path = os.path.join(tmpdir, "requests.tsv")
    if session.workload.stateful:
        # Every request in order: earlier edits change later answers.
        write_requests(path, [s[:4] for s in session.sent])
        ref_of = [json.loads(l) for l in helper("refs", session.gen, path)]
    else:
        # One reference per distinct request.
        keys = sorted({request_key(s) for s in session.sent})
        write_requests(path, [("T",) + k for k in keys])
        refs = dict(zip(keys, (json.loads(l) for l in helper(
            "refs", session.gen, path))))
        ref_of = [refs[request_key(s)] for s in session.sent]
    attempted = failed = bad_warm = 0
    for s, ref in zip(session.sent, ref_of):
        want_id = json.loads(s[3])["id"] if s[1] == "serve" else None
        good = check_answer(s[1], s[4], ref, want_id)
        if s[0] == "T":
            attempted += 1
            failed += not good
        else:
            bad_warm += not good
    return attempted, failed, bad_warm


def metric(value, unit):
    return {"value": value, "unit": unit}


def prepare(name):
    """The workload's class, scratch directory and input directory; inputs
    a server loads once are generated here, outside set-up."""
    cls = CLASSES[name]
    tmp = os.path.join(WORK, name)
    os.makedirs(tmp, exist_ok=True)
    gen = os.path.join(tmp, "gen")
    if cls.served:
        generate(gen, cls.designs)
    return cls, tmp, gen


def run_e2e(name, seed, seconds):
    cls, tmp, gen = prepare(name)
    rng_seed = "%s:%d" % (name, seed)
    setups = []
    session = None
    try:
        for _ in range(cls.setups):
            if session is not None:
                session.close()
            s, session, workload = set_up(cls, rng_seed, gen)
            setups.append(s)
        # Timed loop: whole cycles until the time is up.
        lat = []
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            for req in workload.cycle():
                lat.append(session.send("T", req))
        elapsed = time.perf_counter() - t0
    finally:
        if session is not None:
            session.close()
    attempted, failed, bad_warm = check_session(session, tmp)
    q = statistics.quantiles(lat, n=10)
    print("%s seed %d: %d requests in %.3f s, %d failed, p50 %.4f s, "
          "p90 %.4f s, set-ups %s s" %
          (name, seed, attempted, elapsed, failed, statistics.median(lat),
           q[8], " ".join("%.3f" % s for s in setups)))
    return {
        "correct": failed == 0 and bad_warm == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": metric(statistics.median(setups), "s"),
            "latency_s.p50": metric(statistics.median(lat), "s"),
            "requests_per_s": metric(attempted / elapsed, "1/s"),
            "peak_rss_mb": metric(session.peak_kib / 1024.0, "MB"),
        },
    }


# How many whole cycles the traced run replays.
TRACE_CYCLES = {"cli-light": 1, "serve-enum": 2, "serve-block": 2,
                "serve-eco": 3}


def run_trace(name, seed):
    cls, tmp, gen = prepare(name)
    session = None
    try:
        _, session, workload = set_up(cls, "%s:%d" % (name, seed), gen)
        for _ in range(TRACE_CYCLES[name]):
            for req in workload.cycle():
                session.send("T", req)
    finally:
        if session is not None:
            session.close()
    attempted, failed, bad_warm = check_session(session, tmp)
    # The same requests in-process: through the composite entry points,
    # then through the parts with spans.
    path = os.path.join(tmp, "requests.tsv")
    write_requests(path, [s[:4] for s in session.sent])
    out = helper("composite", gen, path,
                 os.path.join(tmp, "spans-composite.jsonl"))
    answers = [json.loads(l)["answer"] for l in out[:-1]]
    m = json.loads(out[-1])["metrics"]
    summary = json.loads(helper("trace", gen, path,
                                os.path.join(tmp, "spans.jsonl"))[-1])
    m.update(summary["metrics"])
    replay_differs = 0
    for s, a in zip(session.sent, answers):
        if s[1] == "cli":
            a = a + "\n"
        replay_differs += s[4] != a
    timed = [s[5] for s in session.sent if s[0] == "T"]
    # What the program pays outside the in-process composite: process start
    # and exit, file reads and writes, pipes, the client.
    m["process.exec_s"] = statistics.mean(timed) - m["trace.composite_s"]
    # The traced replay's cost over the untraced composite's: span
    # bookkeeping plus any work the parts repeat.
    m["trace.overhead_ratio"] = (m["trace.request_s"] /
                                 m["trace.composite_s"] - 1.0)
    print("%s seed %d: traced %d requests, %d decomposition mismatches, "
          "%d replayed answers differ from the program's" %
          (name, seed, len(timed), summary["mismatches"], replay_differs))
    ok = (failed == 0 and bad_warm == 0 and summary["mismatches"] == 0
          and replay_differs == 0 and len(answers) == len(session.sent))
    return {
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: metric(v, unit_of(k)) for k, v in sorted(m.items())},
    }


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes") or name.endswith("bytes_reused"):
        return "bytes"
    if name.endswith("minor_words"):
        return "words"
    return "count"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    build()
    if args.trace:
        result = run_trace(args.workload, args.seed)
    else:
        result = run_e2e(args.workload, args.seed, args.seconds)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
