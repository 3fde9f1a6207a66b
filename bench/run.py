"""vertexvis benchmark: one closed-loop client sending CLI requests in process.

    python3 bench/run.py --workload families-vv --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each request calls ``vertexvis.cli.main(argv)`` and waits for it, so there
is one client, one process and no ``--jobs``.  Whole passes over the corpus,
one send per request, repeat while another pass still ends within
``--seconds``, and at least MIN_PASSES times.  A request's latency is its
fastest send over the passes, scaled as below.  Every answer is checked
against its certificate and a reference value (see check.py); any failure
makes the run exit 1.  The last line of stdout is the JSON result.

Times are reported at the host's quiet speed: a 2 ms probe runs just before
and just after every request, never inside one, and each latency is scaled
by a fixed quiet probe time over the median probe time within 0.5 s of its
send (see ``HostClock``).  The unscaled pass time is printed beside the
result.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` each pass sends every request untraced and then traced
(tracing.py), back to back, for at least one pass; the result holds the
per-layer metrics, and the spans are written to
``.bench_work/trace-<workload>-s<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import check
import corpus
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = ("cli", "generators", "graph", "solvers", "visibility", "witnesses")
SETUP_ROUNDS = 3  # at least; more until SETUP_BUDGET_S has gone by
SETUP_BUDGET_S = 1.0
REQUEST_LIMIT_S = 60.0
MIN_PASSES = 3
PROBE_LOOPS = 25_000
WINDOW_S = 0.5
# The probe's time on a quiet host (2-core x86-64 VM, Python 3.11).  Any
# constant would do: it only turns probe-relative times back into seconds.
QUIET_PROBE_S = 0.0018

END_TO_END = {
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class RequestTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RequestTimeout(f"request exceeded {REQUEST_LIMIT_S:.0f} s")


def load_program():
    """Import the program afresh, so that each set-up round pays for it."""
    for name in [m for m in sys.modules if m == "vertexvis" or m.startswith("vertexvis.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"vertexvis.{m}") for m in MODULES})


def setup(workload, seed, workdir, clock, tracer=None):
    """Rounds of import plus corpus build, at least SETUP_ROUNDS and until
    SETUP_BUDGET_S has gone by; returns the program, the requests, each
    round's seconds at quiet speed and, when traced, each round's seconds
    inside the generators."""
    rounds, build_s = [], []
    began = time.perf_counter()
    while len(rounds) < SETUP_ROUNDS or time.perf_counter() - began < SETUP_BUDGET_S:
        first = len(tracer.spans) if tracer else 0
        clock.probe()
        start = time.perf_counter()
        prog = load_program()
        used = prog
        if tracer:
            used = SimpleNamespace(**{m: tracer.module(getattr(prog, m), m) for m in MODULES})
        requests = corpus.build(workload, used, seed, workdir)
        end = time.perf_counter()
        clock.probe()
        rounds.append(clock.scaled(end - start, start, end))
        if tracer:
            build_s.append(sum(stop - begin for name, begin, stop, _, _ in tracer.spans[first:]
                               if name.startswith("generators.")))
    return prog, requests, rounds, build_s


class HostClock:
    """Probes of the host's speed, and latencies scaled to its quiet speed.

    The host is shared.  Other tenants slow every request down by 10-45 %
    for spells of a fraction of a second up to half a minute, and never
    speed one up; the slowdown shows in CPU time as much as in wall time.
    Unscaled fastest-of-three-passes figures of five to ten runs spread by
    up to 24 % (wall_s) and 45 % (latency_tail_ms), IQR over median, more
    than the bounds allow.  A probe is a fixed piece of pure-Python
    arithmetic, run only between requests, never inside one.  A latency is
    scaled by QUIET_PROBE_S over the median probe time within WINDOW_S of
    its send: the latency at the speed the host has when quiet.
    """

    def __init__(self):
        self.times = []  # probe midpoints, ascending
        self.probes = []  # probe durations

    def probe(self) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.probes.append(end - start)

    def scaled(self, seconds, start, end) -> float:
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return seconds * QUIET_PROBE_S / statistics.median(self.probes[lo:hi])


def cli_request(prog, clock, r):
    """Send r through vertexvis.cli.main between two probes; returns
    (exit code, payload, (seconds, start, end))."""
    out = io.StringIO()
    clock.probe()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        signal.setitimer(signal.ITIMER_REAL, REQUEST_LIMIT_S)
        start = time.perf_counter()
        try:
            code = prog.cli.main(r.argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
    clock.probe()
    payload = json.loads(out.getvalue()) if code in (0, 3) else None
    return code, payload, (end - start, start, end)


def problems(prog, r, code, payload) -> list:
    """Why the answer to r is wrong; empty when it is certified."""
    if code != r.expect_exit:
        return [f"exit code {code}, expected {r.expect_exit}"]
    if r.kind == "verify":
        want = {"root": r.root + 1, "size": r.expect, "visible": r.expect_exit == 0}
        return [] if payload == want else [f"verify answered {payload}"]
    root = r.root if r.kind == "vx" else payload.get("root", 0) - 1
    if not 0 <= root < r.graph.n:
        return [f"root {root + 1} out of range"]
    found = check.certificate_problems(
        r.graph.adj, root, payload,
        lambda x, members: prog.visibility.is_x_visibility_set(r.graph, x, members),
    )
    value = payload.get("value")
    if r.expect is not None:
        if r.method == "exact" and value != r.expect:
            found.append(f"value {value} != reference {r.expect}")
        if r.method == "greedy" and value > r.expect:
            found.append(f"greedy value {value} > exact reference {r.expect}")
    return found


def run_pass(prog, requests, answers, tally) -> list:
    """One pass over the corpus: each request is sent once to each of
    ``answers`` in turn, back to back.  Returns, per answer, each request's
    (seconds, start, end)."""
    # Objects alive now belong to the benchmark, not to the request: keep the
    # collector from scanning them, as it would not in a fresh CLI process.
    gc.collect()
    gc.freeze()
    sends = [[] for _ in answers]
    values = {}
    for r in requests:
        for k, answer in enumerate(answers):
            tally.attempted += 1
            start = time.perf_counter()
            try:
                code, payload, send = answer(r)
                found = problems(prog, r, code, payload)
            except Exception:  # one failed request must not stop the run
                end = time.perf_counter()
                send = (end - start, start, end)
                found = [traceback.format_exc(limit=3).strip().splitlines()[-1]]
            sends[k].append(send)
            if found:
                tally.failures.append((r.rid, found))
            elif r.kind == "vx":
                values[(k, r.label, r.method)] = (r.rid, payload["value"])
    for (k, label, method), (rid, value) in values.items():
        exact = values.get((k, label, "exact"))
        if method == "greedy" and exact and value > exact[1]:
            tally.failures.append((rid, [f"greedy {value} > exact {exact[1]}"]))
    return sends


def repeat(step, seconds, at_least, tally) -> list:
    """step() at least `at_least` times, then again while one more, at the
    mean time of those so far, still ends within `seconds`; returns the
    results."""
    out = []
    start = time.perf_counter()
    while len(out) < at_least or (time.perf_counter() - start) * (len(out) + 1) / len(out) <= seconds:
        out.append(step())
    tally.elapsed = time.perf_counter() - start
    return out


def service_times(passes, scaled=None):
    """Each request's service time: its fastest send over all passes, scaled
    to the host's quiet speed by ``scaled`` when given.  A spell of a busy
    host only slows a send down, so the fastest send is the least disturbed;
    scaling it corrects for a slowdown that lasted through every pass."""
    out = []
    for sends in zip(*passes):
        fastest = min(sends)
        out.append(scaled(*fastest) if scaled else fastest[0])
    return out


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile that still
    has at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(passes, setup_rounds, tally):
    best = service_times(passes, tally.clock.scaled)
    tail_s, pct, beyond = tail(best)
    metrics = {
        "wall_s": sum(best),
        "latency_p50_ms": statistics.median(best) * 1000.0,
        "latency_tail_ms": tail_s * 1000.0,
        "setup_s": statistics.median(setup_rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = sum(service_times(passes))
    note = (f"latency_tail_ms is p{pct:.1f} of {len(best)} requests ({beyond} beyond it), "
            f"each the fastest of {len(passes)} passes; the passes took {tally.elapsed:.2f} s "
            f"with checks; wall_s unscaled {raw:.4g} s; setup_s is the median of "
            f"{len(setup_rounds)} rounds")
    return metrics, note


def per_layer(prog, requests, seconds, tally, build_s, tracer, plain):
    """Passes in which each request is sent untraced and then traced, back
    to back, so that both sends see the same host; returns the per-layer
    metrics and a note."""
    traced = []

    def pair():
        tp = tracing.TracedPass(prog, tracer, f"pass{len(traced)}")
        sends = run_pass(prog, requests, (plain, lambda r: tp(r, plain)), tally)
        traced.append(tp.metrics())
        return sends

    pairs = repeat(pair, seconds, 1, tally)
    counts = [tuple(t[c] for c in tracing.COUNTS) for t in traced]
    if len(set(counts)) != 1:
        tally.failures.append(("trace", [f"exact counts differ between passes: {counts}"]))
    scaled = tally.clock.scaled
    untraced_s, traced_s = (sum(service_times(side, scaled)) for side in zip(*pairs))
    derived = {
        "generators.build_s": statistics.median(build_s),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    }
    metrics = {}
    for name in tracing.PER_LAYER:
        if name in derived:
            metrics[name] = derived[name]
        elif name in tracing.COUNTS:
            metrics[name] = traced[0][name]
        else:
            metrics[name] = statistics.median(t[name] for t in traced)
    return metrics, (f"{len(pairs)} passes, each request sent untraced and then traced, "
                     f"took {tally.elapsed:.2f} s with checks")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "vertexvis", "cli.py")):
        print(f"error: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        tracer = tracing.Tracer() if args.trace else None
        clock = HostClock()
        prog, requests, rounds, build_s = setup(args.workload, args.seed, workdir, clock, tracer)
        corpus.attach_references(requests)
        tally = SimpleNamespace(attempted=0, failures=[], clock=clock)

        def answer(r):
            return cli_request(prog, clock, r)

        if args.trace:
            metrics, note = per_layer(prog, requests, args.seconds, tally, build_s, tracer, answer)
            tracer.write(os.path.join(ROOT, ".bench_work",
                                      f"trace-{args.workload}-s{args.seed}.jsonl"))
            units = tracing.PER_LAYER
        else:
            passes = repeat(lambda: run_pass(prog, requests, (answer,), tally)[0],
                            args.seconds, MIN_PASSES, tally)
            metrics, note = end_to_end(passes, rounds, tally)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(tally.failures)
    for rid, found in tally.failures[:20]:
        print(f"FAILED {rid}: {'; '.join(found)}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(note)
    print(f"fail_frac {failed / tally.attempted:.6g} "
          f"({failed} failed of {tally.attempted} attempted, every answer checked)")
    print(json.dumps({
        "correct": not failed,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
