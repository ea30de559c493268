"""One pass of one workload in a fresh interpreter.

Started by run.py as `python -I perfbench/worker.py --workload W --seed N
[--trace] [--smoke] [--setup-only]`.  Set-up is the import
of galois_span from the checkout's `src/` plus input generation; the worker
prints `READY` when the first op can start, then runs the ops in a closed
loop, checks each op's output, and prints one JSON line with the pass's
results.  The reference kernel (reference.py) runs after `READY`, between
ops at most every REF_INTERVAL_S, and after the last op, REF_REPS times
each; op times are reported at the reference speed.  A traced pass also writes its spans to
`perfbench/out/spans-<workload>-seed<seed>.json`.
"""

from __future__ import annotations

import sys

STARTUP_MODULES = set(sys.modules)  # what the interpreter and site hooks loaded

import argparse
import hashlib
import json
import resource
import statistics
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REF_REPS = 3  # reference-kernel runs at each point the machine's speed is sampled
REF_INTERVAL_S = 0.05  # between ops, sample at most once per this many seconds


def _import_program():
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    import galois_span

    if not Path(galois_span.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"galois_span imported from {galois_span.__file__}, not {src}")


def _foreign_modules() -> list[str]:
    """Top-level modules loaded since start-up that are not stdlib, the program or the harness."""
    own = {"galois_span", "reference", "workloads", "tracer"}
    names = {name.partition(".")[0] for name in set(sys.modules) - STARTUP_MODULES}
    return sorted(n for n in names if n not in sys.stdlib_module_names and n not in own)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_program()
    import reference
    import workloads
    from tracer import Tracer

    ops = workloads.build(args.workload, args.seed, smoke=args.smoke)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    out = sys.stdout
    out.write("READY\n")
    out.flush()
    refs = [reference.time_kernel() for _ in range(REF_REPS)]
    if args.setup_only:
        out.write(json.dumps({"start_ref_s": statistics.median(d for _, d in refs)}) + "\n")
        return 0

    digest = hashlib.sha256()
    spans = []  # (start, end) of each op
    failures = []
    for i, op in enumerate(ops):
        if time.perf_counter() - refs[-1][0] >= REF_INTERVAL_S:
            refs += [reference.time_kernel() for _ in range(REF_REPS)]
        op_span = tracer.begin_op(i) if tracer is not None else None
        started = time.perf_counter()
        raised = None
        try:
            raw = op.run()
        except Exception as exc:  # an op that raises is a failed op, not a harness crash
            raised = exc
        spans.append((started, time.perf_counter()))
        if op_span is not None:
            tracer.end(op_span)
        if raised is not None:
            ok, normalized = False, {"raised": f"{type(raised).__name__}: {raised}"}
        else:
            ok, normalized = op.check(raw)
        if not ok:
            failures.append({"op": op.label, "result": normalized})
        digest.update(json.dumps([op.label, normalized], sort_keys=True).encode())
        digest.update(b"\n")
    refs += [reference.time_kernel() for _ in range(REF_REPS)]

    # each op's time at the reference speed, from the kernel runs around it
    op_seconds = [
        (end - start) * reference.NOMINAL_S / reference.local_speed(refs, start, end)
        for start, end in spans
    ]
    pass_ref_s = statistics.median(d for _, d in refs)
    result = {
        "ops": len(ops),
        "failed": len(failures),
        "failures": failures[:5],
        "digest": digest.hexdigest(),
        "wall_s": sum(op_seconds),
        "op_seconds": op_seconds,
        "raw_wall_s": sum(end - start for start, end in spans),
        "start_ref_s": statistics.median(d for _, d in refs[:REF_REPS]),
        "pass_ref_s": pass_ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "foreign_modules": _foreign_modules(),
    }
    if tracer is not None:
        scale = reference.NOMINAL_S / pass_ref_s
        result["self_s"] = {k: v * scale for k, v in tracer.self_times().items()}
        result["counters"] = tracer.finish()
        names = sorted({s[0] for s in tracer.spans})
        index = {n: i for i, n in enumerate(names)}
        (HERE / "out").mkdir(exist_ok=True)
        path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "names": names,
                    "ops": [op.label for op in ops],
                    "spans": [[index[s[0]], *s[1:]] for s in tracer.spans],
                },
                fh,
            )
    out.write(json.dumps(result) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
