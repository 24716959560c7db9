"""Child processes of the benchmark; `run.py` starts each one fresh.

    child.py setup  --workload W        import z2quiver (and warm up a stream), print "ready", exit
    child.py stream --workload W --seed N --seconds S --trace 0|1 --out DIR
    child.py cli    --spans FILE -- ARGS    run one z2quiver CLI command under the tracer
    child.py check-census KEY FILE          structural check of one census command's stdout

Running every program process separately keeps the harness's own memory
out of its `ru_maxrss`, and gives each stream a cold process whose set-up
cost is measured rather than hidden.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

OP_TIMEOUT_S = 10.0  # one stream operation; a hang counts as a failure


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout()


def _ready() -> None:
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def cmd_setup(args) -> int:
    import z2quiver  # noqa: F401

    if args.workload != "census":
        import workloads

        getattr(workloads, f"{args.workload}_warm_up")()
    _ready()
    return 0


def cmd_stream(args) -> int:
    import z2quiver  # noqa: F401
    import workloads

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()  # warm-up is recorded as op 0
    getattr(workloads, f"{args.workload}_warm_up")()
    _ready()
    if tracer:
        tracer.uninstall()

    rng = random.Random(args.seed)
    if args.workload == "queries":
        ops = workloads.queries_ops(rng)
        run, check = workloads.queries_run, workloads.queries_check
    else:
        pools = workloads.DegenerationPools()
        ops = workloads.degeneration_ops(rng, pools)
        run = lambda op: workloads.degeneration_run(op, pools)  # noqa: E731
        check = lambda op, res: workloads.degeneration_check(op, res, pools)  # noqa: E731

    signal.signal(signal.SIGALRM, _on_alarm)
    failures: list[str] = []  # the first few, for the record

    def note(why: str) -> None:
        if len(failures) < 20:
            failures.append(why)

    def one(op, op_id: int, checked: bool, traced: bool = False) -> tuple[float | None, bool]:
        """Run one operation: (latency in seconds, or None if it raised or
        timed out; whether it succeeded and, when checked, passed its check)."""
        if traced:
            tracer.op = op_id
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        t0 = time.perf_counter()
        try:
            result = run(op)
            elapsed = time.perf_counter() - t0
        except OpTimeout:
            note(f"{op[0]} {op[1]!r}: timed out after {OP_TIMEOUT_S} s")
            return None, False
        except Exception as exc:  # a library error is a failed operation, not a crash
            note(f"{op[0]} {op[1]!r}: {type(exc).__name__}: {exc}")
            return None, False
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if checked:
            try:
                check(op, result)
            except workloads.CheckFailed as exc:
                note(f"{op[0]} {op[1]!r}: {exc}")
                return elapsed, False
        return elapsed, True

    out: dict = {"failures": failures}
    start = time.perf_counter()
    if not args.trace:
        # A fixed, seeded list of operations, run and checked in whole passes
        # while time remains.  Each operation keeps its best latency over the
        # passes: on a shared machine, a sample that is slower than the best
        # was held back by other load, so the best is the operation's own cost.
        # Successive passes run on each allowed CPU in turn, as in run.py.
        cpus = sorted(os.sched_getaffinity(0))
        best = [math.inf] * len(ops)
        attempted = failed = passes = 0
        while True:
            os.sched_setaffinity(0, {cpus[passes % len(cpus)]})
            for i, op in enumerate(ops):
                x, ok = one(op, attempted + 1, True)
                attempted += 1
                if ok:
                    best[i] = min(best[i], x)
                else:
                    failed += 1
            passes += 1
            if passes >= MIN_PASSES and time.perf_counter() - start >= args.seconds:
                break
        os.sched_setaffinity(0, cpus)
        per_kind: dict[str, list] = {}  # kind -> [count, total best seconds]
        for op, x in zip(ops, best):
            if x < math.inf:
                agg = per_kind.setdefault(op[0], [0, 0.0])
                agg[0] += 1
                agg[1] += x
        out.update(attempted=attempted, failed=failed, latencies_s=[x for x in best if x < math.inf],
                   ops=len(ops), passes=passes,
                   per_kind={k: {"count": c, "total_s": t} for k, (c, t) in sorted(per_kind.items())})
    else:
        # The same list, checked once, then run untraced and traced in turn
        # while time remains.  Neither timed pass interleaves checks, so
        # trace_overhead compares like with like.
        checked = [one(op, i, True) for i, op in enumerate(ops, start=1)]
        attempted, failed = len(ops), sum(not ok for _, ok in checked)
        reps = []
        while True:
            untraced = [one(op, i, False) for i, op in enumerate(ops, start=1)]
            tracer.install()
            traced = [one(op, i, False, traced=True) for i, op in enumerate(ops, start=1)]
            tracer.uninstall()
            attempted += 2 * len(ops)
            failed += sum(not ok for _, ok in untraced + traced)
            reps.append({
                "untraced_s": sum(x for x, _ in untraced if x is not None),
                "traced_s": sum(x for x, _ in traced if x is not None),
                "summary": tracer.summarize(),
            })
            if time.perf_counter() - start >= args.seconds:
                break
            tracer.reset()
        path = os.path.join(args.out, f"spans-{args.workload}.bin")
        tracer.write(path)
        out.update(attempted=attempted, failed=failed, trace_ops=len(ops), reps=reps,
                   spans_file=os.path.relpath(path, ROOT))
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


DONE = "z2quiver-bench: command done\n"

MIN_PASSES = 3  # an untraced run makes at least this many passes over its list


def cmd_cli(args) -> int:
    import tracer as tracing

    from z2quiver import cli

    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = 1
    try:
        code = cli.main(args.argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    # the command is done: the harness stops its clock here, before the spans are written
    sys.stderr.write(DONE)
    sys.stderr.flush()
    tracer.write(args.spans)
    with open(args.spans + ".summary.json", "w") as fh:
        json.dump(tracer.summarize(), fh)
    return code


def cmd_check_census(args) -> int:
    import census

    try:
        census.check_structure(args.key, args.file)
    except census.StructureError as exc:
        print(f"{args.key}: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True)
    p.set_defaults(func=cmd_setup)
    p = sub.add_parser("stream")
    p.add_argument("--workload", required=True, choices=("queries", "degeneration"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stream)
    p = sub.add_parser("cli")
    p.add_argument("--spans", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(func=cmd_cli)
    p = sub.add_parser("check-census")
    p.add_argument("key")
    p.add_argument("file")
    p.set_defaults(func=cmd_check_census)
    args = parser.parse_args()
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
