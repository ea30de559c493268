"""Benchmark entry point: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload big-cover --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Each pass of a workload runs in a fresh worker interpreter (worker.py), one
after another, until `--seconds` have gone by.  With `--trace 0` every pass
is untraced and the end-to-end metrics are printed; with `--trace 1`
traced and untraced passes alternate and the per-layer metrics are
printed.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Run records, including
the run metadata, go to `perfbench/out/`.  Stdlib only; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("big-cover", "group-lattice", "random-corpus")
DEFAULT_SEED = 0
SETUP_PROBES = 5  # set-up-only worker launches per run, besides the passes
WORKER_TIMEOUT_S = 170



def declared_metrics(kind: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer", as BENCHMARK.json lists them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class BenchError(Exception):
    """The benchmark could not produce a result (not a failed op)."""


def run_worker(workload, seed, *, trace=False, smoke=False, setup_only=False):
    """Launch one worker; return (raw set-up seconds, its result line).

    The result of a set-up-only launch holds just the reference-kernel time
    measured right after set-up.
    """
    cmd = [sys.executable, "-I", str(HERE / "worker.py"), "--workload", workload]
    cmd += ["--seed", str(seed)] + ["--trace"] * trace + ["--smoke"] * smoke
    cmd += ["--setup-only"] * setup_only
    started = time.perf_counter()
    # unbuffered, so that readline() takes no bytes past READY that
    # communicate(), which reads the pipe directly, would then miss
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, bufsize=0)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = rest.decode().splitlines()
    if ready != b"READY\n" or proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(cmd)}")
    return setup_s, json.loads(lines[-1])


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _recorded_digests():
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload, seed, seconds, trace, smoke=False):
    """Run passes for `seconds`; return the result object plus run details."""
    setup_raw, setup = [], []  # set-up times as measured, and at the reference speed

    def launched(setup_s, result):
        setup_raw.append(setup_s)
        setup.append(setup_s * reference.NOMINAL_S / result["start_ref_s"])
        return result

    for _ in range(SETUP_PROBES):
        launched(*run_worker(workload, seed, smoke=smoke, setup_only=True))
    untraced, traced = [], []
    started = time.perf_counter()
    while True:
        traced_pass = trace and len(traced) <= len(untraced)
        setup_s, result = run_worker(workload, seed, trace=traced_pass, smoke=smoke)
        if traced_pass:
            traced.append(result)
        else:
            untraced.append(launched(setup_s, result))
        if time.perf_counter() - started >= seconds and (untraced and (traced or not trace)):
            break

    passes = untraced + traced
    digests = sorted({p["digest"] for p in passes})
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0 and len(digests) == 1
    if seed == DEFAULT_SEED and not smoke:
        correct = correct and digests == [_recorded_digests()[workload]]

    if trace:
        units = declared_metrics("per_layer")
        metrics = per_layer(units, traced, untraced)
    else:
        units = declared_metrics("end_to_end")
        # every pass runs the same ops: take each op's median over the passes
        op_s = [statistics.median(times) for times in zip(*(p["op_seconds"] for p in untraced))]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "op_p50_ms": 1000 * statistics.median(op_s),
            "op_p90_ms": 1000 * _quantile(op_s, 90),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            "success_ratio": (attempted - failed) / attempted,
        }
    return {
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        },
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "ops_per_pass": passes[0]["ops"],
        "op_samples": f"{passes[0]['ops']} ops, each a median of {len(untraced)} passes",
        "setup_samples": len(setup),
        "digests": digests,
        "failures": [f for p in passes for f in p["failures"]][:5],
        "foreign_modules": sorted({m for p in passes for m in p["foreign_modules"]}),
        "counters_repeat": all(p["counters"] == traced[0]["counters"] for p in traced),
        "pass_wall_s": [p["wall_s"] for p in untraced],
        "traced_wall_s": [p["wall_s"] for p in traced],
        "setup_s": setup,
        "raw_pass_wall_s": [p["raw_wall_s"] for p in untraced],
        "raw_setup_s": setup_raw,
        "machine_slowdown": [p["pass_ref_s"] / reference.NOMINAL_S for p in passes],
    }


def per_layer(names, traced, untraced):
    """Self times are medians over traced passes; counters come from one pass."""
    counters = traced[0]["counters"]
    metrics = {}
    for name in names:
        layer, _, stat = name.rpartition(".")
        calls = counters.get(layer + ".calls", 0)
        if name == "trace.overhead_s":
            metrics[name] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
                p["wall_s"] for p in untraced
            )
        elif stat == "self_s":
            metrics[name] = statistics.median(p["self_s"].get(layer, 0.0) for p in traced)
        elif stat == "useful_ratio":
            metrics[name] = counters.get(layer + ".distinct", 0) / calls if calls else 0.0
        elif stat == "hit_ratio":
            metrics[name] = (calls - counters.get(layer + ".misses", 0)) / calls if calls else 0.0
        else:
            metrics[name] = counters.get(name, 0)
    return metrics


def metadata():
    """Run metadata, recorded with every result; none of it is a gated metric."""
    src = ROOT / "src" / "galois_span"
    lines = 0
    for path in sorted(src.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for line in fh if line.strip())
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_nonblank_lines": lines,
    }


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _print_summary(run):
    r = run["result"]
    print(
        f"{run['workload']} seed={run['seed']} trace={int(run['trace'])}: "
        f"{run['passes']} untraced + {run['traced_passes']} traced passes of "
        f"{run['ops_per_pass']} ops, {r['attempted']} attempted, {r['failed']} failed "
        f"(fail_ratio {r['failed'] / r['attempted']:.4f}), correct={r['correct']}"
    )
    print(
        f"  times are at the reference speed; as measured: set-up "
        f"{statistics.median(run['raw_setup_s']):.4f} s, pass "
        f"{statistics.median(run['raw_pass_wall_s']):.3f} s; machine slowdown "
        f"{statistics.median(run['machine_slowdown']):.3f}x of nominal"
    )
    if not run["trace"]:
        print(f"  op samples: {run['op_samples']}; set-up samples: {run['setup_samples']}")
    for name, m in r["metrics"].items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    if not r["correct"]:
        print(f"  digests: {run['digests']}; failures: {json.dumps(run['failures'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few ops per workload")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "galois_span" / "__init__.py").is_file():
        print(f"error: no galois_span sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    meta = metadata()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    try:
        for workload in workloads:
            run = measure(workload, args.seed, args.seconds, bool(args.trace), args.smoke)
            run["meta"] = meta
            record = OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json"
            record.write_text(json.dumps(run, indent=2) + "\n")
            _print_summary(run)
            runs.append(run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("meta " + json.dumps(meta, sort_keys=True))
    if len(runs) == 1:
        print(json.dumps(runs[0]["result"]))
    else:
        print(json.dumps({
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": {
                f"{r['workload']}.{k}": m for r in runs for k, m in r["result"]["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
