"""curvkit benchmark: one workload per run, closed loop, one client.

    python3 bench/run.py --workload catalog-cli --seed 1 --seconds 40 --trace 0

Operations run one after another, and the next starts only when the previous
one has finished. catalog-cli runs each operation as a `python -m
curvkit.cli` process; the in-process workloads run each chain
(curvature-stress) or operation (solve-stress) in a worker forked from the
set-up benchmark process. Either way at most one child process exists at a
time, and each operation is cut at its workload's wall cap.

A run makes passes over the seed's operations until the next pass would
overrun --seconds (at least one pass). Every output is compared byte for
byte with bench/expected/<workload>.json. Each operation's time is scaled
to a reference speed measured right around it (see REF_S), and the run
pins itself to one CPU. The last line of stdout is a JSON object with the
end-to-end metrics (--trace 0) or the per-layer metrics of one traced pass
(--trace 1). The exit code is nonzero when an output is wrong or curvkit
cannot be imported.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

import ops as bench_ops
import tracing as bench_trace
from ops import CATALOG, ROOT, SRC

# fresh-process set-ups a run times, spread evenly over its --seconds
SETUP_SAMPLES = 11
TRACE_DIR = ROOT / ".bench_trace"

# The machine's speed drifts by a third over seconds to minutes, with
# other tenants of the host. Each operation is therefore timed between two
# runs of a fixed reference loop, and its time is scaled by REF_S over
# their mean: the time it would take on a machine that runs the loop in
# REF_S, about the loop's median on the machine of the baseline. The loop
# sums Fractions, exact rational arithmetic on Python objects as in
# curvkit, then adds up small ints: against CLI processes on a drifting
# machine, the first part tracked classify and compare closest, the second
# compute, which is mostly interpreter start-up.
REF_REPEATS = 4
REF_TERMS = 400
REF_INTS = 50_000
REF_S = 0.009

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
              "op_p90_s": "s", "decided_ratio": "ratio",
              "peak_rss_mb": "MB"}


def reference() -> float:
    """Seconds this process takes for the reference loop, now."""
    t0 = time.perf_counter()
    for _ in range(REF_REPEATS):
        acc = Fraction(0)
        for i in range(1, REF_TERMS):
            acc += Fraction(1, i)
    acc = 0
    for i in range(REF_INTS):
        acc += i * i % 7
    return time.perf_counter() - t0


def scaled(r) -> float:
    """An operation's time at the reference speed; a timeout stays at the
    time it was cut at."""
    _, seconds, _, ref = r
    return seconds if ref is None else seconds * REF_S / ref


def _check(produced: str, expected: dict, k: str) -> str:
    if k not in expected:
        # an operation without a recorded output cannot pass
        return "mismatch"
    if expected[k] is None:
        # recorded as cut at its cap: the known hang, if it ever finishes
        return "unverified"
    return "ok" if produced.encode() == expected[k].encode() else "mismatch"


def _read_all(fd, timeout):
    """Everything written to fd until it is closed, or None when that takes
    longer than timeout."""
    deadline = time.monotonic() + timeout
    chunks = []
    while True:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            return None
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


# -- catalog-cli --------------------------------------------------------------

def run_cli_pass(ops, cap, expected, trace_file=None, record=None):
    env = dict(os.environ, CURVKIT_CATALOG_DIR=str(CATALOG),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    head = ([sys.executable, bench_trace.__file__, str(trace_file)]
            if trace_file else [sys.executable, "-m", "curvkit.cli"])
    results = []
    for op in ops:
        ref = reference()
        t0 = time.perf_counter()
        p = subprocess.Popen(head + list(op[1:]), stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
        out = _read_all(p.stdout.fileno(), cap)
        if out is None:
            p.kill()
        # reaped here rather than by Popen, to read this child's own peak
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stdout.close()
        dt = time.perf_counter() - t0
        if out is None:
            results.append(("timeout", dt, None, None))
            continue
        ref = (ref + reference()) / 2
        text = f"exit={p.returncode}\n" + out.decode()
        k = bench_ops.key(op)
        if record is not None:
            record[k] = text
        results.append((_check(text, expected, k), dt,
                        usage.ru_maxrss / 1024, ref))
    return results


# -- in-process workloads -----------------------------------------------------

class _Lines:
    """JSON lines from a pipe, each read with a timeout."""

    def __init__(self, fd):
        self.fd = fd
        self.buf = b""

    def read(self, timeout):
        deadline = time.monotonic() + timeout
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.fd], [], [], left)[0]:
                return None
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                raise EOFError
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)


def _worker(fd, ops, start, bundles, expected, trace_file, recording):
    out = os.fdopen(fd, "w")
    tracer = None
    if trace_file:
        tracer = bench_trace.Tracer(trace_file)
        bench_trace.install(tracer)
    for k in range(start, len(ops)):
        op = ops[k]
        # a collection owed by the previous operation is not charged here
        gc.collect()
        ref = reference()
        out.write(json.dumps({"start": k}) + "\n")
        out.flush()
        token = tracer.begin("op") if tracer else None
        t0 = time.perf_counter()
        try:
            result = bench_ops.run_op(bundles, op)
            error = None
        except Exception:
            error = traceback.format_exc()
        dt = time.perf_counter() - t0
        ref = (ref + reference()) / 2
        if tracer:
            tracer.end(token)
            tracer.flush()
        if error is None:
            text = bench_ops.render(op, result)
            status = _check(text, expected, bench_ops.key(op))
        else:
            text, status = error, "error"
            sys.stderr.write(error)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        msg = {"k": k, "status": status, "seconds": dt, "rss_mb": rss_mb,
               "ref": ref}
        if recording:
            msg["text"] = text
        out.write(json.dumps(msg) + "\n")
        out.flush()
    out.close()


def _fork(fn) -> int:
    """Run fn() in a forked child; returns the child's pid."""
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            fn()
        except BaseException:
            traceback.print_exc()
            code = 1
        finally:
            sys.stderr.flush()
            os._exit(code)
    return pid


def run_forked_pass(ops, bundles, cap, expected, trace_file=None,
                    record=None):
    """Run the operations in a worker forked from this set-up process. An
    operation that passes its cap is killed with its worker, recorded as a
    timeout, and the next operation starts in a fresh fork."""
    results = []
    while len(results) < len(ops):
        start = len(results)
        r, w = os.pipe()

        def work():
            os.close(r)
            _worker(w, ops, start, bundles, expected, trace_file,
                    record is not None)

        pid = _fork(work)
        os.close(w)
        lines = _Lines(r)
        t0 = time.perf_counter()
        try:
            while len(results) < len(ops):
                if lines.read(cap) is None:
                    raise TimeoutError
                t0 = time.perf_counter()
                msg = lines.read(cap)
                if msg is None:
                    raise TimeoutError
                if record is not None:
                    record[bench_ops.key(ops[msg["k"]])] = msg["text"]
                results.append((msg["status"], msg["seconds"],
                                msg["rss_mb"], msg["ref"]))
        except TimeoutError:
            os.kill(pid, signal.SIGKILL)
            results.append(("timeout", cap, None, None))
            if record is not None:
                record[bench_ops.key(ops[len(results) - 1])] = None
        except EOFError:
            results.append(("error", time.perf_counter() - t0, None, None))
        finally:
            os.waitpid(pid, 0)
            os.close(r)
    return results


# -- one run ------------------------------------------------------------------

def run_pass(workload, ops, bundles, expected, trace_file=None, record=None,
             between=None):
    """Run ops; returns the wall time and, per operation, its status, its
    seconds and the peak memory in MB of the process that ran it. between(),
    if given, runs after each group of operations, outside their timing."""
    cap = bench_ops.CAPS[workload]
    t0 = time.perf_counter()
    results = []
    for group in bench_ops.groups(workload, ops):
        if workload == "catalog-cli":
            results += run_cli_pass(group, cap, expected, trace_file, record)
        else:
            results += run_forked_pass(group, bundles, cap, expected,
                                       trace_file, record)
        if between:
            between()
    return time.perf_counter() - t0, results


def traced_pass(workload, ops, bundles, expected, trace_file):
    """One traced pass. Each group of operations also runs untraced right
    before or after its traced run, in turn, so that the overhead ratio
    compares runs seconds apart, each at the reference speed. Returns the
    traced results, the untraced ones and traced over untraced time of the
    groups that did not time out."""
    traced, plain, traced_s, plain_s = [], [], 0.0, 0.0
    for i, group in enumerate(bench_ops.groups(workload, ops)):
        runs = {}
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            runs[on] = run_pass(workload, group, bundles, expected,
                                trace_file if on else None)[1]
        traced += runs[True]
        plain += runs[False]
        if all(r[0] != "timeout" for r in runs[False] + runs[True]):
            traced_s += sum(scaled(r) for r in runs[True])
            plain_s += sum(scaled(r) for r in runs[False])
    return traced, plain, traced_s / plain_s if plain_s else 0.0


def traced_setup(workload: str, trace_file) -> None:
    """One set-up under the tracer, in a fork of this process before it has
    imported curvkit, so this process stays untraced."""
    def work():
        tracer = bench_trace.Tracer(trace_file)
        bench_trace.install(tracer)
        token = tracer.begin("setup")
        bench_ops.setup(workload)
        tracer.end(token)
        tracer.flush()

    os.waitpid(_fork(work), 0)


def setup_sample(workload: str) -> float:
    """Set-up time of a fresh process, so that it pays the import, at the
    reference speed."""
    p = subprocess.run([sys.executable, __file__, "--workload", workload,
                        "--setup-probe"], capture_output=True, text=True,
                       cwd=ROOT, check=True)
    return float(p.stdout.split()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=bench_ops.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "curvkit" / "__init__.py").is_file():
        print(f"error: curvkit sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        ref = reference()
        seconds = bench_ops.timed_setup(args.workload)
        ref = (ref + reference()) / 2
        print(scaled(("ok", seconds, None, ref)))
        return 0

    workload = args.workload
    # every process of the run (CLI processes, workers, set-up probes)
    # inherits one CPU, so that an operation and the reference loops around
    # it run on the same CPU, whose speed drifts on its own
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    expected = bench_ops.load_expected(workload)
    ops = bench_ops.build_pass(workload, args.seed)
    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = TRACE_DIR / f"{workload}-{args.seed}.jsonl"
        trace_file.unlink(missing_ok=True)
        traced_setup(workload, trace_file)
    bundles = None
    if workload != "catalog-cli":
        bundles = bench_ops.setup(workload)
        bench_ops.warm_up(workload)

    walls, results, layer, setup = [], [], None, []
    if args.trace:
        results, plain, overhead = traced_pass(workload, ops, bundles,
                                               expected, trace_file)
        layer = bench_trace.summarize(trace_file, overhead)
        results += plain
    else:
        t_start = time.perf_counter()

        def probe():
            # one set-up sample whenever the run reaches the next of
            # SETUP_SAMPLES even slots, so that the samples spread over it
            if (len(setup) < SETUP_SAMPLES and time.perf_counter() - t_start
                    >= len(setup) * args.seconds / SETUP_SAMPLES):
                setup.append(setup_sample(workload))

        probe()
        while True:
            wall, res = run_pass(workload, ops, bundles, expected,
                                 between=probe)
            walls.append(wall)
            results += res
            elapsed = time.perf_counter() - t_start
            if elapsed + wall > args.seconds:
                break
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample(workload))

    attempted = len(results)
    failed = sum(r[0] in ("mismatch", "error") for r in results)
    timeouts = sum(r[0] == "timeout" for r in results)
    decided = sum(r[0] in ("ok", "unverified") for r in results)
    print(f"# {workload}: seed {args.seed}, {max(len(walls), 1)} pass(es) "
          f"of {len(ops)} operations{' traced' if layer else ''}; "
          f"{attempted} attempted, {failed} failed, {timeouts} timed out")
    for k, r in enumerate(results):
        if r[0] in ("mismatch", "error"):
            print(f"# {r[0]}: {bench_ops.key(ops[k % len(ops)])}")

    if layer is None:
        times = [scaled(r) for r in results]
        n = len(ops)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(sum(times[i:i + n])
                                        for i in range(0, len(times), n)),
            "op_p50_s": statistics.median(times),
            "op_p90_s": statistics.quantiles(times, n=10)[8],
            "decided_ratio": decided / attempted,
            # the largest peak of a CLI process, or of a worker after an
            # operation it finished; an operation cut at its cap is left out
            "peak_rss_mb": max(r[2] for r in results if r[2] is not None),
        }
        notes = {"setup_s": f" (median of {len(setup)})",
                 "wall_s": f" (median of {len(walls)} passes)",
                 "op_p50_s": f" (n={len(times)})",
                 "op_p90_s": f" (n={len(times)})"}
        refs = [r[3] for r in results if r[3] is not None]
        unscaled = statistics.median(sum(r[1] for r in results[i:i + n])
                                     for i in range(0, len(results), n))
        print(f"# reference loop: median {statistics.median(refs):.6f} s "
              f"around {len(refs)} operations; times are scaled to "
              f"{REF_S} s; unscaled wall_s {unscaled:.6g} s")
        units = {k: END_TO_END[k] for k in metrics}
    else:
        metrics = layer
        notes = {}
        units = {k: bench_trace.PER_LAYER[k][0] for k in metrics}
    for name, value in metrics.items():
        print(f"{name:>32} = {value:.6g} {units[name]}{notes.get(name, '')}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
