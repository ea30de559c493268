"""The benchmark's own test: smoke mode, exact counters, stdlib only.

    python3 perfbench/check.py

Runs every workload with a few ops, untraced and traced, and checks that
every metric named in BENCHMARK.json is emitted with its unit, that the
traced and untraced passes give the same digest, that two traced passes at
one seed give identical counters, that neither the harness nor the worker
imports anything outside the stdlib and the program, and that the
benchmark refuses to run where the program's sources are missing.  Exits
non-zero on the first failed check.
"""

from __future__ import annotations

import shutil
import subprocess
import sys

BEFORE = set(sys.modules)

import run  # noqa: E402  (the harness, imported after the module snapshot)
from tracer import TARGETS, layer_name  # noqa: E402

# counters a count-based claim may rest on: they must repeat exactly
EXACT_STATS = (
    "calls", "dim_max", "result_bits_max", "subgroups", "refusals", "misses", "useful_ratio",
)
DERIVED_STATS = ("self_s", "useful_ratio", "hit_ratio", "overhead_s")  # computed, not counted
SEED = 3
HARNESS = ("run", "reference", "tracer")


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok   {message}")


def check_stdlib_only() -> None:
    loaded = {name.partition(".")[0] for name in set(sys.modules) - BEFORE}
    foreign = sorted(n for n in loaded if n not in sys.stdlib_module_names and n not in HARNESS)
    _expect(not foreign, f"harness imports only the stdlib (extra: {foreign})")


def check_workload(workload: str) -> set:
    """Smoke runs of one workload; returns the names of the counters its traced pass recorded."""
    untraced = run.measure(workload, SEED, 0, trace=False, smoke=True)
    traced = run.measure(workload, SEED, 0, trace=True, smoke=True)
    for kind, result in (("end_to_end", untraced), ("per_layer", traced)):
        emitted = {k: m["unit"] for k, m in result["result"]["metrics"].items()}
        _expect(emitted == run.declared_metrics(kind), f"{workload}: {kind} metrics and units")
        _expect(result["result"]["correct"], f"{workload}: {kind} run correct, one digest")
        _expect(not result["foreign_modules"], f"{workload}: worker imports stdlib, program only")
    _expect(untraced["digests"] == traced["digests"], f"{workload}: traced, untraced digests agree")

    counters, recorded = [], set()
    for _ in range(2):
        _, result = run.run_worker(workload, SEED, trace=True, smoke=True)
        metrics = run.per_layer(run.declared_metrics("per_layer"), [result], [result])
        counters.append({k: v for k, v in metrics.items() if k.rpartition(".")[2] in EXACT_STATS})
        recorded |= set(result["counters"])
    _expect(counters[0] == counters[1], f"{workload}: two traced passes give identical counters")
    if workload == "random-corpus":
        refusals = counters[0]["covers.random_connected_voltage.refusals"]
        _expect(refusals > 0, f"{workload}: the refusal path is taken ({refusals} refusals)")
    return recorded


def check_every_layer_metric_measured(recorded: set) -> None:
    """A declared per-layer metric names a traced layer and a stat the tracer produces."""
    layers = {layer_name(t) for t in TARGETS} | {"trace"}
    unmeasured = []
    for name in run.declared_metrics("per_layer"):
        layer, _, stat = name.rpartition(".")
        if layer not in layers or (stat not in DERIVED_STATS and name not in recorded):
            unmeasured.append(name)
    _expect(not unmeasured, f"every per-layer metric is measured (unmeasured: {unmeasured})")


def check_refuses_without_program() -> None:
    """With only BENCHMARK.json and the benchmark's files, exit non-zero and print no result."""
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=ignore)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "big-cover", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    _expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
            "refuses to run without the program's sources")


def main() -> int:
    check_stdlib_only()
    run.OUT.mkdir(exist_ok=True)
    recorded = set()
    for workload in run.WORKLOADS:
        recorded |= check_workload(workload)
    check_every_layer_metric_measured(recorded)
    check_refuses_without_program()
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
