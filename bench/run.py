"""nhcool benchmark: one seeded workload per run, every output checked.

    python3 bench/run.py --workload chains|sweeps|crosscheck --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  A run repeats full passes over the workload's inputs
for ``--seconds`` (as many passes as fit, at least two), one call after
another from this single process (a closed loop with one caller).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass time),
``setup_s`` (median fresh-interpreter import of ``nhcool``, or of
``nhcool.cli`` for ``sweeps``) and ``peak_rss_mb``.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics from spans
recorded around every call into the layers (see ``spans.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat the metrics for people, together with the failure fraction and the
pass count.  Details of the run (pass times, import samples, failures,
versions) and, when traced, the spans go to ``bench/out/``.
"""

from __future__ import annotations

import os

# Pinned before NumPy loads; inherited by every child process.  One thread:
# the layers' matrices are small or tridiagonal, and on two cores a second
# BLAS thread made 1000 expm calls on 60 x 60 matrices 15x slower.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy
import scipy

import cases as workloads
from spans import TRACED, Patched, Recorder, per_pass_totals

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
WORKLOADS = ("chains", "sweeps", "crosscheck")
IMPORT_SAMPLES = 5
MIN_PASSES = 2
LAYERS = ("steady", "spectral", "dynamics", "oracle", "cli")
# Functions reported with their call counts (the others report self time only).
COUNTED = (
    "model.build_rate_matrix", "model.build_hopping_matrix",
    "steady.solve_steady_chain", "steady.solve_with_attached",
    "spectral.diagonalize", "dynamics.steady_from_dynamics",
    "dynamics.single_excitation_trace", "oracle.oracle_steady", "cli.main",
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def import_seconds(module: str) -> tuple[float, list[float]]:
    """Median wall time of a fresh interpreter importing ``module``.

    One unrecorded import first compiles the bytecode, which users pay once.
    """
    cmd = [sys.executable, "-c", f"import {module}"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for k in range(IMPORT_SAMPLES + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120)
        if k:
            samples.append(time.perf_counter() - start)
    return statistics.median(samples), samples


def run_pass(nh, cases) -> dict:
    outputs = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # count every emission, not one per call site
        start = time.perf_counter()
        for case in cases:
            try:
                outputs.append((True, case.run()))
            except Exception as exc:  # a raising operation counts as failed
                outputs.append((False, f"raised {type(exc).__name__}: {exc}"))
        wall = time.perf_counter() - start
    truncations = sum(issubclass(w.category, nh.TruncationWarning) for w in caught)
    return {"wall": wall, "outputs": outputs, "truncation_warnings": truncations}


def verdicts(cases, passes) -> list[list[str | None]]:
    """Per pass, per case: ``None`` if the output passed its check, else why not."""
    table = [[None] * len(cases) for _ in passes]
    for j, case in enumerate(cases):
        ref = case.reference()
        for i, p in enumerate(passes):
            ok, value = p["outputs"][j]
            if not ok:
                table[i][j] = value
                continue
            try:
                table[i][j] = case.check(value, ref)
            except Exception as exc:  # malformed output
                table[i][j] = f"check raised {type(exc).__name__}: {exc}"
    return table


def layer_metrics(cases, passes, table, traced_ids, untraced_ids, spans, import_s):
    totals = per_pass_totals(spans)

    def per_pass(fn):
        return statistics.median(fn(i) for i in traced_ids)

    def span_sum(name, key):
        return lambda i: totals.get(i, {}).get(name, {}).get(key, 0)

    metrics = {}
    for name in TRACED:
        metrics[f"{name}.self_s"] = (per_pass(span_sum(name, "self_s")), "s")
        if name in COUNTED:
            metrics[f"{name}.calls"] = (per_pass(span_sum(name, "calls")), "count")
    metrics["model.dense_bytes"] = (per_pass(
        lambda i: sum(span_sum(n, "nbytes")(i) for n in TRACED if n.startswith("model.build_"))),
        "B_computed")
    metrics["oracle.truncation_warnings"] = (
        per_pass(lambda i: passes[i]["truncation_warnings"]), "count")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.csv_bytes"] = (per_pass(lambda i: sum(
        len(value) for case, (ok, value) in zip(cases, passes[i]["outputs"])
        if ok and case.layer == "cli")), "B_computed")
    for layer in LAYERS:
        metrics[f"{layer}.failed"] = (per_pass(lambda i: sum(
            1 for case, why in zip(cases, table[i]) if why and case.layer == layer)), "count")
    traced_wall = statistics.median(passes[i]["wall"] for i in traced_ids)
    untraced_wall = statistics.median(passes[i]["wall"] for i in untraced_ids)
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nhcool" / "__init__.py").is_file():
        print(f"error: {SRC / 'nhcool'} not found; run inside a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nhcool as nh
    import nhcool.cli

    if not Path(nh.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported nhcool from {nh.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    import_module = "nhcool.cli" if args.trace or args.workload == "sweeps" else "nhcool"
    setup_s, setup_samples = import_seconds(import_module)

    if args.workload == "sweeps":
        cases = workloads.sweeps(nh, args.seed, ROOT, workdir, in_process=bool(args.trace))
    else:
        cases = getattr(workloads, args.workload)(nh, args.seed)

    modules = {name: sys.modules[name] for name in sys.modules if name.split(".")[0] == "nhcool"}
    recorder = Recorder()
    passes, traced_ids, untraced_ids = [], [], []
    start = time.perf_counter()
    while True:
        # As many passes as fit in --seconds, and at least two, so that the
        # median never rests on one pass and a traced run has both kinds.
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > args.seconds:
            break
        pass_id = len(passes)
        if args.trace and pass_id % 2 == 1:
            recorder.pass_id = pass_id
            with Patched(recorder, modules):
                passes.append(run_pass(nh, cases))
            traced_ids.append(pass_id)
        else:
            passes.append(run_pass(nh, cases))
            untraced_ids.append(pass_id)
        if pass_id == 0:
            # Peak memory through one pass: later passes repeat it while the
            # run holds earlier outputs, and no reference has been computed yet.
            # For sweeps the work runs in child processes.
            who = resource.RUSAGE_CHILDREN if args.workload == "sweeps" else resource.RUSAGE_SELF
            peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB

    table = verdicts(cases, passes)
    shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(cases) * len(passes)
    failures = [(i, cases[j].name, why) for i, row in enumerate(table)
                for j, why in enumerate(row) if why]
    for name, why in sorted({(name, why) for _, name, why in failures}):
        print(f"FAILED {name}: {why}", file=sys.stderr)

    walls = [p["wall"] for p in passes]
    if args.trace:
        metrics = layer_metrics(cases, passes, table, traced_ids, untraced_ids,
                                recorder.spans, setup_s)
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  pass walls {', '.join(f'{w:.3f}' for w in walls)} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(f"  {'fail_frac':40s} {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    if args.trace:
        _print_shares(args.workload, metrics, passes, traced_ids, untraced_ids, len(cases))

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "pass_walls_s": walls, "traced_passes": traced_ids,
        "import_module": import_module, "import_samples_s": setup_samples,
        "failures": [{"pass": i, "case": name, "why": why} for i, name, why in failures],
        "metrics": {k: v for k, (v, _u) in metrics.items()},
    }
    (OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(recorder.to_json()))

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _print_shares(workload, metrics, passes, traced_ids, untraced_ids, n_cases):
    """How the traced time splits, to confirm the workload stresses its layer."""
    selfs = {k[: -len(".self_s")]: v for k, (v, _u) in metrics.items() if k.endswith(".self_s")}
    top = max(selfs, key=selfs.get)
    traced_wall = statistics.median(passes[i]["wall"] for i in traced_ids)
    print(f"  largest self time: {top} {selfs[top]:.3f} s of a {traced_wall:.3f} s traced pass")
    by_layer = {}
    for name, value in selfs.items():
        by_layer[name.split(".")[0]] = by_layer.get(name.split(".")[0], 0.0) + value
    print("  self time by layer: " + ", ".join(
        f"{layer} {value:.3f} s" for layer, value in sorted(by_layer.items(), key=lambda kv: -kv[1])))
    if workload == "crosscheck":
        share = (selfs["dynamics.steady_from_dynamics"] + selfs["oracle.oracle_steady"]) / traced_wall
        print(f"  steady_from_dynamics + oracle_steady: {share:.1%} of the traced pass")
    if workload == "sweeps":
        imports = metrics["cli.import_s"][0] * n_cases
        work = statistics.median(passes[i]["wall"] for i in untraced_ids)
        print(f"  {n_cases} fresh imports: {imports:.3f} s, {imports / (imports + work):.1%} of "
              f"a subprocess pass (in-process work {work:.3f} s)")


if __name__ == "__main__":
    sys.exit(main())
