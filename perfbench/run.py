"""qspectra benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout. With --trace 0 it prints the end-to-end
metrics of one workload, with --trace 1 the per-layer metrics of a traced
run. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
environment and the run's details. `--workload all` runs every workload in
its own process and prints one table. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads; every child process inherits it.
# Two OpenBLAS threads on a 2-CPU machine were both slower and noisier.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPS = 5

MODULES = (
    "quaternion", "qarray", "vectors", "operators", "bridge", "slices", "measure",
    "spectral", "transform", "generate", "serialize", "report", "cli",
)
FUNCTIONS = (
    "bridge.chi", "bridge.eig_normal_complex", "bridge.spectral_decompose",
    "spectral.multiplication_form", "spectral.sphere_spectrum",
    "spectral.slice_spectrum_check", "spectral.delta_oracle",
    "operators.QMatrix.op_norm", "operators.QMatrix.is_normal", "operators.QMatrix.__matmul__",
    "qarray.qmatmul", "qarray.frame_coords",
    "slices.build_J", "slices.restrict_plus", "slices.restrict_minus",
    "transform.bounded_transform", "transform.inverse_transform",
    "transform.unbounded_multiplication_form", "transform.xi_values", "transform.xi_inv_values",
    "measure.ess_ran", "measure.pushforward", "measure.m_phi_norm",
    "serialize.matrix_from_json", "serialize.save_json",
    "cli.main",
)
IMPORT_PACKAGES = ("total", "qspectra", "numpy", "scipy", "jsonschema", "mpmath")


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> float:
    """Import qspectra from this checkout's src/ and return the seconds taken."""
    src = ROOT / "src"
    if not (src / "qspectra" / "__init__.py").is_file():
        die(f"no qspectra package under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import qspectra
    import qspectra.cli  # noqa: F401

    elapsed = time.perf_counter() - start
    if Path(qspectra.__file__).resolve().parent != (src / "qspectra").resolve():
        die(f"qspectra was imported from {qspectra.__file__}, not from {src}")
    return elapsed


def environment(workload, first_run: bool) -> dict:
    import mpmath
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "start": "cold" if workload.cold else "warm",
        "first_run_in_checkout": first_run,
    }


def run_rounds(ops, seconds: float, tracer=None, rounds: int | None = None):
    """Closed loop, one client: whole rounds of `ops` until `rounds` are done
    or, without a count, until one more round would end past `seconds` (the
    first round always runs)."""
    span = tracer.span if tracer is not None else (lambda *_, **__: contextlib.nullcontext())
    latencies, outcomes = [], []
    done = 0
    start = time.perf_counter()
    with span("harness.run"):
        while True:
            round_start = time.perf_counter()
            for op in ops:
                t = time.perf_counter()
                with span("harness.op", request=True):
                    outcome = op.run(tracer)
                latencies.append(time.perf_counter() - t)
                outcomes.append((op.label, outcome))
            done += 1
            now = time.perf_counter()
            if done == rounds or (rounds is None and (now - start) + (now - round_start) > seconds):
                break
    return latencies, outcomes, time.perf_counter() - start, done


def percentile(values, pct: int) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def per_op_mean(latencies, n_ops: int) -> list[float]:
    """Each operation's mean latency over the rounds of a run.

    Every round runs the same operations in the same order, so the sum of
    these means is the timed phase's length divided by the rounds. On a
    shared 2-vCPU virtual machine, per-operation means and medians varied
    less from run to run than per-operation minimums did."""
    rounds = [latencies[i:i + n_ops] for i in range(0, len(latencies), n_ops)]
    return [statistics.fmean(column) for column in zip(*rounds)]


def failed_ops(outcomes) -> dict[str, list]:
    """Each operation that failed in any round, with its failed outcomes.

    Counting distinct operations rather than executions keeps `failed` and
    `attempted` independent of how many rounds fit into the run."""
    failures = defaultdict(list)
    for label, o in outcomes:
        if o.status != "ok":
            failures[label].append(o)
    return failures


def end_to_end(workload, per_op, n_failed, setup_s) -> dict:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload.cold else resource.RUSAGE_SELF)
    return {
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "op_tail_s": (percentile(per_op, workload.tail_pct), "s"),
        "pass_ratio": (1.0 - n_failed / len(per_op), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
    }


def import_times(tracer) -> dict[str, float]:
    """Per-process import seconds: medians over the traced children, or one
    `-X importtime` probe of `import qspectra.cli` for in-process workloads."""
    from tracer import parse_importtime
    from workloads import child_env

    if tracer.imports:
        rows = tracer.imports
    else:
        probe = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qspectra.cli"],
            env=child_env(ROOT), cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        rows = [parse_importtime(probe.stderr)]
    return {pkg: statistics.median(r.get(pkg, 0.0) for r in rows) for pkg in IMPORT_PACKAGES}


def layer_of(name: str) -> str:
    if name.startswith("numpy.linalg."):
        return "numpy.linalg"
    head = name.split(".", 1)[0]
    return head if head in MODULES or head == "harness" else "other"


def per_layer(tracer, untraced_wall: float) -> tuple[dict, bool]:
    wall = tracer.end[0] - tracer.start[0]  # span 0 is the harness.run root
    rows = tracer.by_name()
    layers = defaultdict(lambda: {"calls": 0.0, "self_s": 0.0, "errors": 0.0})
    for name, row in rows.items():
        for key, v in row.items():
            layers[layer_of(name)][key] += v
    import_self = sum((r.get("total", 0.0) for r in tracer.imports), 0.0)
    harness_self = layers["harness"]["self_s"] - tracer.covered_s
    m = {}
    for mod in MODULES:
        m[f"{mod}.calls"] = (layers[mod]["calls"], "count")
        m[f"{mod}.self_s"] = (layers[mod]["self_s"], "s")
        m[f"{mod}.errors"] = (layers[mod]["errors"], "count")
    empty = {"calls": 0.0, "self_s": 0.0}
    for fn in FUNCTIONS:
        m[f"{fn}.calls"] = (rows.get(fn, empty)["calls"], "count")
        m[f"{fn}.self_s"] = (rows.get(fn, empty)["self_s"], "s")
    m["spectral.delta_oracle.probes"] = (float(tracer.probes), "count")
    for fn in ("eigh", "svd"):
        name = f"numpy.linalg.{fn}"
        m[f"{name}.calls"] = (rows.get(name, empty)["calls"], "count")
        m[f"{name}.self_s"] = (rows.get(name, empty)["self_s"], "s")
        m[f"{name}.n3_sum"] = (float(tracer.lapack_n3.get(name, 0)), "mnk_computed")
    for pkg, seconds in import_times(tracer).items():
        m[f"import.{pkg}_s"] = (seconds, "s")
    m["import.self_s"] = (import_self, "s")
    m["other.self_s"] = (layers["other"]["self_s"], "s")
    m["harness.self_s"] = (harness_self, "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.spans"] = (float(len(tracer.start)), "count")
    m["trace.overhead_ratio"] = (wall / untraced_wall, "ratio")
    attributed = (
        sum(layers[mod]["self_s"] for mod in MODULES)
        + layers["other"]["self_s"] + layers["numpy.linalg"]["self_s"] + import_self + harness_self
    )
    return m, abs(attributed - wall) <= 1e-6 * wall + 1e-6


def run_workload(args) -> None:
    import_s = import_program()
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    first_run = not WORK_ROOT.exists()
    work = WORK_ROOT / args.workload
    setup_times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        ops = workload.build(args.seed, work, args.tiny)
        workload.warm_up(ops)
        setup_times.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setup_times)

    if args.trace:
        # Untraced rounds for half the time, then the same rounds traced.
        _, _, untraced_wall, rounds = run_rounds(ops, args.seconds / 2.0)
        tracer = Tracer()
        tracer.install()
        try:
            latencies, outcomes, _, _ = run_rounds(ops, args.seconds, tracer, rounds)
        finally:
            tracer.uninstall()
        tracer.save(work / "spans")
        metrics, adds_up = per_layer(tracer, untraced_wall)
    else:
        latencies, outcomes, _, rounds = run_rounds(ops, args.seconds)
        adds_up = True
    per_op = per_op_mean(latencies, len(ops))
    failures = failed_ops(outcomes)
    if not args.trace:
        metrics = end_to_end(workload, per_op, len(failures), setup_s)

    wrong = [label for label, o in outcomes if o.status == "wrong"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "rounds": rounds,
        "samples": len(ops),
        "op_tail_pct": workload.tail_pct,
        "beyond_tail": sum(x > percentile(per_op, workload.tail_pct) for x in per_op),
        "slowest": sorted(((round(x, 4), op.label) for x, op in zip(per_op, ops)), reverse=True)[:20],
        "setup_reps_s": setup_times,
        "import_s": import_s,
        "self_times_add_up": adds_up,
        "failures": sorted(
            f"{label}: " + ", ".join(f"{k} x{v}" for k, v in Counter(f"{o.status} ({o.detail})" for o in fails).items())
            + ("" if len(fails) == rounds else f" (in {len(fails)} of {rounds} rounds)")
            for label, fails in failures.items()
        ),
        "env": environment(workload, first_run),
    }
    result = {
        "correct": not wrong and adds_up,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps({"record": record, "result": result}, indent=1), encoding="utf-8")
    print(json.dumps({"record": record}))
    print(json.dumps(result))


def run_all(args) -> None:
    """Every workload in its own process; one table of name, value and unit."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            die(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:40s} {v['value']:.6g} {v['unit']}")
    print(json.dumps(results))


def main() -> None:
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
