"""z2quiver benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload census|queries|degeneration --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The last line of stdout is the
result: {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.  The
full record (commit, seed, versions, sample counts, per-command figures)
goes to .bench_out/.  See bench/README.md for why each workload and metric
exists.

This process stays small and never imports numpy or z2quiver: every program
process is a fresh child, so its ru_maxrss is the program's own.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

import census  # noqa: E402
import tracer as tracing  # noqa: E402
from child import DONE  # noqa: E402

WORKLOADS = ("census", "queries", "degeneration")
SETUP_SAMPLES = 11  # fresh set-up processes per run, about half before the workload and half after
RUN_DEADLINE_S = 165.0  # the whole run, checks included, ends well inside 180 s
CENSUS_CMD_TIMEOUT_S = 60.0
# The CPUs this process may run on.  Successive passes, and successive
# set-up samples, run on each in turn: on a shared VM one virtual CPU can
# run 30-40% slower than the other for minutes, and the best time over
# passes then comes from the one that was not held back.
CPUS = sorted(os.sched_getaffinity(0))

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
}
CENSUS_CMD_METRICS = {key: f"cli_{key}_s" for key in census.COMMANDS}


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def wait_with_rusage(proc: subprocess.Popen, timeout: float) -> tuple[int, float, bool]:
    """Reap one child: (exit code, its ru_maxrss in MB, whether it was killed for the timeout)."""
    killed = threading.Event()

    def kill() -> None:
        killed.set()
        proc.kill()

    timer = threading.Timer(max(timeout, 0.1), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0, killed.is_set()


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    srt = sorted(values)
    rank = max(1, -(-len(srt) * p // 100))
    return srt[int(rank) - 1]


def samples_beyond(n: int, p: float) -> int:
    return n - int(max(1, -(-n * p // 100)))


def popen_on(cpu: int, argv: list[str], **kwargs) -> subprocess.Popen:
    """Start a child pinned to one CPU: this thread pins itself for the fork and the child inherits it."""
    os.sched_setaffinity(0, {cpu})
    try:
        return subprocess.Popen(argv, **kwargs)
    finally:
        os.sched_setaffinity(0, CPUS)


def measure_setup(workload: str, deadline: Deadline, count: int) -> tuple[list[float], list[str]]:
    """Time `count` fresh processes from start until they report ready (import, and warm-up for a stream)."""
    times, errors = [], []
    for i in range(count):
        t0 = time.perf_counter()
        proc = popen_on(CPUS[i % len(CPUS)], [sys.executable, CHILD, "setup", "--workload", workload],
                        stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
        hang = threading.Timer(max(min(60.0, deadline.left()), 0.1), proc.kill)
        hang.start()
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        code, _, killed = wait_with_rusage(proc, min(60.0, deadline.left()))
        hang.cancel()
        if line.strip() == "ready" and code == 0 and not killed:
            times.append(elapsed)
        else:
            errors.append(f"set-up child exited {code}")
    return times, errors


# ------------------------------------------------------------------ census


class CensusRun:
    """Runs census commands and checks every output against the recorded digest."""

    def __init__(self, deadline: Deadline) -> None:
        self.deadline = deadline
        with open(census.DIGESTS_FILE) as fh:
            self.digests = json.load(fh)
        self.dir = os.path.join(OUT, "census")
        os.makedirs(self.dir, exist_ok=True)
        self.to_check: dict[tuple[str, str], str] = {}  # (key, digest) -> kept output file
        self.ops: list[dict] = []
        self.failures: list[str] = []

    def run(self, key: str, traced: bool, cpu: int) -> None:
        out_path = os.path.join(self.dir, f"{key}.out")
        if traced:
            spans = os.path.join(self.dir, f"spans-{key}.bin")
            argv = [sys.executable, CHILD, "cli", "--spans", spans, "--", *census.COMMANDS[key]]
        else:
            argv = [sys.executable, "-m", "z2quiver", *census.COMMANDS[key]]
        timeout = min(CENSUS_CMD_TIMEOUT_S, self.deadline.left() - 20.0)
        with open(out_path, "wb") as fh:
            t0 = time.perf_counter()
            if traced:
                # the clock stops when the traced command is done, before its spans are written
                proc = popen_on(cpu, argv, stdout=fh, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT)
                hang = threading.Timer(max(timeout, 0.1), proc.kill)
                hang.start()
                done = None
                for line in proc.stderr:
                    if line.decode(errors="replace") == DONE:
                        done = time.perf_counter()
                        break
                proc.stderr.close()
                code, rss_mb, killed = wait_with_rusage(proc, timeout)
                hang.cancel()
                wall = (done or time.perf_counter()) - t0
            else:
                proc = popen_on(cpu, argv, stdout=fh, stderr=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
                code, rss_mb, killed = wait_with_rusage(proc, timeout)
                wall = time.perf_counter() - t0
        # checks run outside the timed span
        digest = _sha256(out_path)
        op = {"key": key, "traced": traced, "wall_s": wall, "rss_mb": rss_mb, "exit": code,
              "out_bytes": os.path.getsize(out_path), "ok": True}
        if killed:
            self.fail(op, f"{key}: killed after {timeout:.0f} s")
        elif code != 0:
            self.fail(op, f"{key}: exit {code}")
        elif digest != self.digests[key]:
            self.fail(op, f"{key}: stdout sha256 {digest} differs from the recorded {self.digests[key]}")
        if (key, digest) not in self.to_check and not killed:
            kept = os.path.join(self.dir, f"{key}-{digest[:16]}.out")
            os.replace(out_path, kept)
            self.to_check[key, digest] = kept
        else:
            os.remove(out_path)
        if traced and code == 0:
            with open(spans + ".summary.json") as fh:
                op["summary"] = json.load(fh)
        op["digest"] = digest
        self.ops.append(op)

    def fail(self, op: dict, why: str) -> None:
        op["ok"] = False
        self.failures.append(why)

    def check_structures(self) -> None:
        """One structural check per distinct output; a failure fails every op that produced it."""
        for (key, digest), path in self.to_check.items():
            res = subprocess.run([sys.executable, CHILD, "check-census", key, path], env=child_env(), cwd=ROOT,
                                 capture_output=True, text=True, timeout=max(self.deadline.left(), 1.0))
            if res.returncode != 0:
                for op in self.ops:
                    if op["key"] == key and op["digest"] == digest and op["ok"]:
                        self.fail(op, f"{key}: structure check: {res.stderr.strip()}")
            os.remove(path)

    def passes(self, seconds: float, seed: int, traced: bool) -> None:
        """Whole passes over the command set, order shuffled per pass and each pass on the next CPU, while time remains."""
        rng = random.Random(seed)
        start = time.perf_counter()
        for n in itertools.count():
            order = list(census.COMMANDS)
            rng.shuffle(order)
            cpu = CPUS[n % len(CPUS)]
            for key in order:
                self.run(key, traced=False, cpu=cpu)
                if traced:
                    self.run(key, traced=True, cpu=cpu)
            if time.perf_counter() - start >= seconds or self.deadline.left() < 60.0:
                break


def census_untraced(args, deadline: Deadline, record: dict) -> tuple[dict, int, int]:
    setup, setup_errors = measure_setup("census", deadline, SETUP_SAMPLES // 2)
    cr = CensusRun(deadline)
    cr.passes(args.seconds, args.seed, traced=False)
    more, more_errors = measure_setup("census", deadline, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    setup += more
    setup_errors += more_errors
    cr.check_structures()
    n_cmds = len(census.COMMANDS)
    passes = [cr.ops[i : i + n_cmds] for i in range(0, len(cr.ops), n_cmds)]
    ok = [op for op in cr.ops if op["ok"]]
    # each command at its best time over the passes: a pass of the fixed set, and its percentiles
    per_cmd = [min(op["wall_s"] for op in ok if op["key"] == key)
               for key in census.COMMANDS if any(op["key"] == key for op in ok)]
    if not per_cmd or not setup:
        raise RuntimeError(f"no census command or set-up succeeded: {(setup_errors + cr.failures)[:3]}")
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(per_cmd),
        "peak_rss_mb": statistics.median(max(op["rss_mb"] for op in p) for p in passes),
        "ops_per_s": len(per_cmd) / sum(per_cmd),
        "op_p50_ms": statistics.median(per_cmd) * 1e3,
        "op_p99_ms": percentile(per_cmd, 99) * 1e3,
    }
    record.update(
        setup_samples_s=setup,
        passes=len(passes),
        command_runs=len(ok),
        latency_samples=len(per_cmd),
        per_command={key: {"wall_s": [op["wall_s"] for op in cr.ops if op["key"] == key],
                           "rss_mb": [op["rss_mb"] for op in cr.ops if op["key"] == key],
                           "out_bytes": next(op["out_bytes"] for op in cr.ops if op["key"] == key)}
                     for key in census.COMMANDS},
        failures=(setup_errors + cr.failures)[:20],
    )
    attempted = len(cr.ops) + SETUP_SAMPLES
    return metrics, attempted, len(cr.ops) - len(ok) + len(setup_errors)


def census_traced(args, deadline: Deadline, record: dict) -> tuple[dict, int, int]:
    cr = CensusRun(deadline)
    cr.passes(args.seconds, args.seed, traced=True)
    cr.check_structures()
    plain = [op for op in cr.ops if not op["traced"]]
    traced = [op for op in cr.ops if op["traced"]]
    n_cmds = len(census.COMMANDS)
    reps = []
    for i in range(0, len(traced), n_cmds):
        t_ops, u_ops = traced[i : i + n_cmds], plain[i : i + n_cmds]
        summary = tracing.merge([op["summary"] for op in t_ops if "summary" in op])
        overhead = sum(op["wall_s"] for op in t_ops) / sum(op["wall_s"] for op in u_ops)
        reps.append(tracing.layer_metrics(summary, sum(op["out_bytes"] for op in t_ops), overhead))
    metrics = {k: statistics.median(r[k] for r in reps) for k in tracing.PER_LAYER}
    for key, name in CENSUS_CMD_METRICS.items():
        metrics[name] = min((op["wall_s"] for op in plain if op["key"] == key and op["ok"]), default=0.0)
    record.update(reps=len(reps), failures=cr.failures[:20], counter_notes=tracing.COUNTER_NOTES,
                  spans_files=sorted(os.path.relpath(os.path.join(cr.dir, f), ROOT)
                                     for f in os.listdir(cr.dir) if f.endswith(".bin")))
    failed = sum(not op["ok"] for op in cr.ops)
    return metrics, len(cr.ops), failed


# ----------------------------------------------------------------- streams


def run_stream_child(args, deadline: Deadline) -> tuple[dict | None, float | None, float, str | None]:
    """(child's result, its set-up time, its ru_maxrss in MB, error)."""
    argv = [sys.executable, CHILD, "stream", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    reader_out: list[str] = []
    ready_at: list[float] = []

    def read() -> None:
        for line in proc.stdout:
            if not ready_at and line.strip() == "ready":
                ready_at.append(time.perf_counter())
            else:
                reader_out.append(line)

    reader = threading.Thread(target=read)
    reader.start()
    code, rss_mb, killed = wait_with_rusage(proc, deadline.left() - 5.0)
    reader.join(timeout=10.0)
    proc.stdout.close()
    setup = ready_at[0] - t0 if ready_at else None
    if killed:
        return None, setup, rss_mb, "stream child killed at the run deadline"
    if code != 0 or not reader_out:
        return None, setup, rss_mb, f"stream child exited {code}"
    return json.loads(reader_out[-1]), setup, rss_mb, None


def stream_untraced(args, deadline: Deadline, record: dict) -> tuple[dict, int, int]:
    setup, setup_errors = measure_setup(args.workload, deadline, SETUP_SAMPLES // 2)
    res, child_setup, rss_mb, err = run_stream_child(args, deadline)
    if err:
        raise RuntimeError(err)
    more, more_errors = measure_setup(args.workload, deadline, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    setup += more
    setup_errors += more_errors
    if child_setup is not None:
        setup.append(child_setup)
    lat = res["latencies_s"]
    if not lat or not setup:
        raise RuntimeError(f"no operation completed: {res['failures'][:3]}")
    # every operation at its best latency over the passes
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(lat),
        "peak_rss_mb": rss_mb,
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p99_ms": percentile(lat, 99) * 1e3,
    }
    record.update(
        setup_samples_s=setup,
        latency_samples=len(lat),
        p99_samples_beyond=samples_beyond(len(lat), 99),
        ops=res["ops"],
        passes=res["passes"],
        per_kind=res["per_kind"],
        failures=(setup_errors + res["failures"])[:20],
    )
    return metrics, res["attempted"] + SETUP_SAMPLES, res["failed"] + len(setup_errors)


def stream_traced(args, deadline: Deadline, record: dict) -> tuple[dict, int, int]:
    res, _, _, err = run_stream_child(args, deadline)
    if err:
        raise RuntimeError(err)
    reps = [tracing.layer_metrics(r["summary"], 0, r["traced_s"] / r["untraced_s"]) for r in res["reps"]]
    metrics = {k: statistics.median(r[k] for r in reps) for k in tracing.PER_LAYER}
    for name in CENSUS_CMD_METRICS.values():
        metrics[name] = 0.0  # no CLI process runs in a stream
    record.update(reps=len(reps), trace_ops=res["trace_ops"], spans_files=[res["spans_file"]],
                  failures=res["failures"], counter_notes=tracing.COUNTER_NOTES)
    return metrics, res["attempted"], res["failed"]


# ------------------------------------------------------------------ record


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def source_identity() -> dict:
    """The commit when the checkout is a git repository, and always a digest of the library source."""
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        commit = res.stdout.strip() if res.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "z2quiver")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return {"commit": commit, "src_sha256": h.hexdigest()}


def machine_probe_ms() -> float:
    """Median time of a fixed pure-Python loop.  The record keeps it from
    before and after the workload, so a shared machine's drift in speed can
    be told apart from a change in the program."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def metric_units() -> dict[str, str]:
    units = dict(END_TO_END)
    units.update({k: unit for k, (unit, _) in tracing.PER_LAYER.items()})
    units.update({name: "s" for name in CENSUS_CMD_METRICS.values()})
    return units


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "z2quiver", "__init__.py")):
        print(f"error: no z2quiver source under {SRC}; run from the root of a z2quiver checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = Deadline(RUN_DEADLINE_S)
    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **source_identity(),
        "nproc": os.cpu_count(),
        "cpus": CPUS,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
    }
    if args.workload == "census":
        fn = census_traced if args.trace else census_untraced
    else:
        fn = stream_traced if args.trace else stream_untraced
    probe_before = machine_probe_ms()
    try:
        metrics, attempted, failed = fn(args, deadline, record)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["machine_probe_ms"] = [probe_before, machine_probe_ms()]
    units = metric_units()
    record.update(attempted=attempted, failed=failed, error_rate=failed / attempted, metrics=metrics)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
    print(f"{args.workload}: attempted {attempted}, failed {failed}, error_rate {failed / attempted:.6g}; "
          f"record in {os.path.relpath(path, ROOT)}", file=sys.stderr)
    for why in record.get("failures", [])[:5]:
        print(f"  failure: {why}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
