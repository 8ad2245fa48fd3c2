#!/usr/bin/env python3
"""hviheat benchmark: closed-loop, in-process calls of the ``hviheat`` CLI.

One run measures one workload for at least ``--seconds`` of op time, in whole
blocks of rounds (see ``workloads.py``), at least three, from one client in
one process with one BLAS thread.  Each op writes its own config and output
directory under ``.bench_work/``; its outputs are checked, digested and
deleted before the next op starts.  Times are reported in scaled seconds
(see ``REF_NOMINAL_S``), and a latency is a case's median over the blocks.
The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are per-layer numbers from a traced run, in which untraced and traced
blocks alternate so that the tracing overhead is measured in the same run.
``--workload all`` runs every workload both ways in child processes and
prints one table.  A run record (digests, percentiles, BLAS threads, library
versions, and the spans of a traced run) goes to ``.bench_results/``.

Usage: python3 bench/run.py --workload solve_large --seed 1 --seconds 15 --trace 0
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
SETUP_REPEATS = 3
MIN_BLOCKS = 3  # an untraced run measures every case at least this often
TAIL_PERCENTILE = 90
# The host's speed drifts by 20-40% within seconds (other tenants share its
# cores), in CPU time as much as in wall time.  Two fixed numpy/scipy kernels
# that never call hviheat are timed between ops, and every time metric is
# scaled to the speed at which their reference time (see reference_seconds)
# is REF_NOMINAL_S, its median in a fast phase of a 2-core x86_64 VM: an
# op's scaled seconds are its wall seconds times REF_NOMINAL_S over the mean
# of the reference times just before and just after it.
REF_NOMINAL_S = 0.003
REF_EVERY_S = 0.1  # op seconds between two timings of the reference

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# spans whose calls and self seconds per op are reported under their own name
CALLS_AND_SECONDS = (
    "mesh.generate",
    "mesh.validate",
    "mesh.load",
    "assembly.system",
    "assembly.stiffness",
    "assembly.mass",
    "assembly.coercivity",
    "hvi_solver.factor",
    "hvi_solver.backsolve",
    "hvi_solver.cg",
    "potentials.subdiff",
    "potentials.slope",
    "potentials.prox",
)
SCIPY_SPANS = ("hvi_solver.factor", "hvi_solver.backsolve", "hvi_solver.cg")
PER_LAYER_UNITS = {
    **{f"{k}.calls": "calls/op" for k in CALLS_AND_SECONDS},
    **{f"{k}.s": "s/op" for k in CALLS_AND_SECONDS},
    "hvi_solver.cg.iterations": "iter/op",
    "hvi_solver.solves": "solves/op",
    "hvi_solver.self_s": "s/op",
    "hvi_solver.iterations": "iter/op",
    "hvi_solver.certified_ratio": "ratio",
    "hvi_solver.cert_merit_max": "x_tol",
    "potentials.checks.s": "s/op",
    "verification.self_s": "s/op",
    "cli.parse.s": "s/op",
    "cli.self_s": "s/op",
    "cli.output_bytes": "bytes/op",
    "trace.overhead": "ratio",
}


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def child_import_seconds() -> float:
    """Import time of ``hviheat.cli`` in a fresh interpreter, as a CLI user pays it."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import hviheat.cli; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.strip())


@functools.cache
def reference_inputs():
    """Fixed inputs of the two reference kernels; built once, outside any timing."""
    import numpy as np
    import scipy.sparse as sp

    side = 160  # the 5-point Laplacian of the solve_large grid, 25,600 rows
    line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(side, side))
    laplacian = (sp.kron(line, sp.eye(side)) + sp.kron(sp.eye(side), line)).tocsr()
    m = 17  # the vertices of an n=16 mesh
    ids = np.arange(m * m).reshape(m, m)
    corners = (ids[:-1, :-1].ravel(), ids[1:, :-1].ravel(), ids[1:, 1:].ravel(), ids[:-1, 1:].ravel())
    triangles = np.concatenate([np.stack(corners[:3], 1), np.stack((corners[0], corners[2], corners[3]), 1)])
    return laplacian, np.ones(side * side), triangles


def reference_kernels() -> tuple[float, float]:
    """Wall seconds of two fixed numpy/scipy kernels that never call hviheat.

    The first assembles a P1-like matrix on 17 x 17 vertices, factors it and
    runs vector updates, like the small solves; the second does 25 sparse
    mat-vecs on 25,600 rows, the memory traffic of CG on a large mesh.
    """
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    laplacian, ones, triangles = reference_inputs()
    n = int(triangles.max()) + 1
    t = time.perf_counter()
    for _ in range(2):
        rows = np.repeat(triangles, 3, axis=1).ravel()
        cols = np.tile(triangles, 3).ravel()
        vals = np.tile(np.array([2.0, -1.0, -1.0, -1.0, 2.0, -1.0, -1.0, -1.0, 2.0]), len(triangles)) + 1e-3
        a = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc() + sp.eye(n, format="csc")
        x = spla.splu(a).solve(np.ones(n))
        for _ in range(20):
            x = np.maximum(x - 0.1 * (a @ x), 0.0) + 1e-3 * np.abs(x)
    small = time.perf_counter() - t
    t = time.perf_counter()
    for _ in range(25):
        laplacian @ ones
    return small, time.perf_counter() - t


def reference_seconds() -> float:
    """The host's current speed: the geometric mean of the two kernels' median of three timings."""
    small, stream = zip(*(reference_kernels() for _ in range(3)))
    return math.sqrt(statistics.median(small) * statistics.median(stream))


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """Wall seconds scaled to the speed at which the reference takes REF_NOMINAL_S."""
    return seconds * REF_NOMINAL_S / (0.5 * (ref_before + ref_after))


def despiked(refs: list[float]) -> list[float]:
    """Running median of three: drops a single timing that a hiccup inflated."""
    return [statistics.median(refs[max(0, i - 1) : i + 2]) for i in range(len(refs))]


def blas_threads() -> dict[str, int]:
    """Thread counts reported by every OpenBLAS library loaded in this process."""
    import ctypes

    found = {}
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return found
    for path in sorted({line.split()[-1] for line in maps if "openblas" in line.lower()}):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                get = getattr(lib, symbol)
                get.argtypes, get.restype = [], ctypes.c_int
                found[Path(path).name] = get()
                break
    return found


def tail(latencies: list[float]) -> tuple[float, int]:
    """The p90 latency (nearest rank) and the number of samples above it.

    A fixed percentile keeps the metric comparable when a faster program
    fits more ops into a run.
    """
    ordered = sorted(latencies)
    rank = math.ceil(TAIL_PERCENTILE / 100.0 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def prepare(ops, round_dir: Path):
    from workloads import write_inputs

    shutil.rmtree(round_dir, ignore_errors=True)
    return [(op, write_inputs(op, round_dir / f"op{op.index}")) for op in ops]


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import hviheat
    import hviheat.cli as cli
    import numpy as np
    import scipy

    if Path(hviheat.__file__).resolve().parent != SRC / "hviheat":
        return fail(f"hviheat imported from {hviheat.__file__}, not from {SRC}")
    from checks import CheckFailed, check_op
    from tracer import Tracer
    from workloads import BLOCK_ROUNDS, ROUNDS

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    setups = []
    refs = [reference_seconds()]
    for _ in range(SETUP_REPEATS):
        import_s = child_import_seconds()
        t = time.perf_counter()
        rounds = ROUNDS[args.workload](args.seed)
        prepared = prepare(next(rounds), work / "round")
        refs.append(reference_seconds())
        setups.append(scaled(import_s + time.perf_counter() - t, refs[-2], refs[-1]))
    refs = refs[-1:]
    since_ref = 0.0

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    records = []
    correct, error = True, ""
    op_seconds = 0.0
    rounds_done = 0
    block = BLOCK_ROUNDS[args.workload]
    min_blocks = 2 if tracer else MIN_BLOCKS
    try:
        while True:
            traced = bool(tracer) and (rounds_done // block) % 2 == 1
            for op, config in prepared:
                if since_ref >= REF_EVERY_S:
                    refs.append(reference_seconds())
                    since_ref = 0.0
                out = config.parent / "out"
                argv = [op.command, "--config", str(config), "--out", str(out)]
                gc.collect()  # each op starts from a clean heap, as in a fresh process
                if tracer:
                    tracer.recording = traced
                t, cpu = time.perf_counter(), time.process_time()
                try:
                    status = cli.main(argv)
                except Exception:  # a crash is a failed op, not a crashed run
                    status = -1
                    print(f"bench: op {op.index} raised\n{traceback.format_exc()}", file=sys.stderr)
                seconds = time.perf_counter() - t
                cpu = time.process_time() - cpu
                if tracer:
                    tracer.recording = False
                op_seconds += seconds
                since_ref += seconds
                try:
                    outcome = check_op(op, config, out, status)
                except CheckFailed as exc:
                    correct, error = False, f"op {op.index} ({op.stratum}): {exc}"
                    break
                records.append(
                    {
                        "index": op.index,
                        "stratum": op.stratum,
                        "case": f"{op.stratum}#{rounds_done % block}",
                        "status": status,
                        "seconds": seconds,
                        "cpu_seconds": cpu,
                        "ref": len(refs) - 1,
                        "traced": traced,
                        "ok": outcome.ok,
                        "detail": outcome.detail,
                        "digest": outcome.digest,
                        "output_bytes": outcome.output_bytes,
                    }
                )
                shutil.rmtree(config.parent)
            if not correct:
                break
            rounds_done += 1
            blocks_done, in_block = divmod(rounds_done, block)
            if (
                not in_block
                and blocks_done >= min_blocks
                and op_seconds >= args.seconds
                and (not tracer or blocks_done % 2 == 0)
            ):
                break
            prepared = prepare(next(rounds), work / "round")
    finally:
        if tracer:
            tracer.remove()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    refs.append(reference_seconds())
    smooth = despiked(refs)
    for r in records:
        r["scaled_seconds"] = scaled(r["seconds"], smooth[r["ref"]], smooth[r["ref"] + 1])

    attempted = len(records) + (0 if correct else 1)
    errors = sum(r["detail"].startswith("error") for r in records)
    latencies = case_latencies([r for r in records if not r["traced"]])
    tail_s, beyond_tail = tail(latencies) if latencies else (0.0, 0)
    if tracer:
        metrics = layer_metrics(tracer, records)
    else:
        metrics = {
            "ops_per_s": len(latencies) / max(sum(latencies), 1e-12),
            "op_p50_s": statistics.median(latencies) if latencies else 0.0,
            "op_tail_s": tail_s,
            "ok_ratio": sum(r["ok"] for r in records) / attempted,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = PER_LAYER_UNITS if tracer else END_TO_END

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "error": error,
        "rounds": rounds_done,
        "attempted": attempted,
        "ok": sum(r["ok"] for r in records),
        "uncertified": len(records) - sum(r["ok"] for r in records) - errors,
        "errors": errors,
        "tail_percentile": TAIL_PERCENTILE,
        "tail_samples": len(latencies),
        "samples_beyond_tail": beyond_tail,
        "setup_runs_s": setups,
        "reference_s": refs,
        "reference_nominal_s": REF_NOMINAL_S,
        "output_digest": digest_of(records),
        "ops": records,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "hviheat": hviheat.__version__,
            "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
            "blas_threads": blas_threads(),
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
        },
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer:
        tracer.save(stem.with_suffix(".spans.npz"))
    if error:
        print(f"bench: output check failed, run aborted: {error}", file=sys.stderr)
    print(
        f"bench: {args.workload} seed {args.seed}: {attempted} ops in {rounds_done} rounds, "
        f"{record['ok']} ok, {record['uncertified']} uncertified, {errors} errors; "
        f"p{TAIL_PERCENTILE} of {len(latencies)} has {beyond_tail} beyond; digest {record['output_digest'][:16]}",
        file=sys.stderr,
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": errors + (0 if correct else 1),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 3


def case_latencies(records) -> list[float]:
    """Each case's median scaled latency over the run's blocks.

    The median over repeats drops an op that a burst on the host slowed.
    """
    by_case = {}
    for r in records:
        by_case.setdefault(r["case"], []).append(r["scaled_seconds"])
    return [statistics.median(v) for v in by_case.values()]


def digest_of(records) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(f"{r['index']}:{r['digest']}\n".encode())
    return h.hexdigest()


def layer_metrics(tracer, records) -> dict[str, float]:
    totals = tracer.totals()
    traced_records = [r for r in records if r["traced"]]
    ops = max(len(traced_records), 1)

    def calls(name):
        return totals.get(name, (0, 0.0))[0] / ops

    def seconds(*names):
        return sum(totals.get(n, (0, 0.0))[1] for n in names) / ops

    def named(prefix, exclude=()):
        return [n for n in totals if n.startswith(prefix) and n not in exclude]

    metrics = {}
    for name in CALLS_AND_SECONDS:
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.s"] = seconds(name)
    counts = tracer.counts
    metrics["hvi_solver.cg.iterations"] = counts["cg_iterations"] / ops
    metrics["hvi_solver.solves"] = counts["solves"] / ops
    metrics["hvi_solver.self_s"] = seconds(*named("hvi_solver.", SCIPY_SPANS))
    metrics["hvi_solver.iterations"] = counts["iterations"] / ops
    metrics["hvi_solver.certified_ratio"] = counts["certified"] / max(counts["solves"], 1)
    metrics["hvi_solver.cert_merit_max"] = tracer.merit_max
    metrics["potentials.checks.s"] = seconds(
        *named("potentials.check_"), "potentials.estimate_relaxed_monotonicity",
        "potentials.default_grid", "potentials.pair_grid",
    )
    metrics["verification.self_s"] = seconds(*named("verification."))
    metrics["cli.parse.s"] = seconds("cli.parse")
    metrics["cli.self_s"] = seconds(*named("cli.", ("cli.parse",)))
    metrics["cli.output_bytes"] = sum(r["output_bytes"] for r in traced_records) / ops
    per_op = {}
    for phase in (False, True):
        phase_records = [r["scaled_seconds"] for r in records if r["traced"] == phase]
        per_op[phase] = sum(phase_records) / max(len(phase_records), 1)
    metrics["trace.overhead"] = per_op[True] / per_op[False] if per_op[False] else 0.0
    return metrics


def run_all(args) -> int:
    """Every workload, untraced then traced, in child processes; one table."""
    from workloads import WORKLOADS

    combined = {}
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"bench: {workload} trace {trace} exited {done.returncode}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            combined[f"{workload}/trace{trace}"] = result
            print(f"== {workload} ({'traced' if trace else 'untraced'}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']}")
            status = status or (0 if result["correct"] else 1)
    print(json.dumps(combined), flush=True)
    return status


def main(argv=None) -> int:
    # one BLAS thread; set before anything imports numpy
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hviheat" / "__init__.py").is_file():
        return fail(f"no hviheat sources under {SRC}")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
