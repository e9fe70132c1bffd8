"""The four benchmark workloads.

Each workload's `build` makes one round of operations from the seed: the
inputs are generated and written here, in set-up, and every operation checks
the program's output against what the generator knows. An operation returns
an Outcome: ok; rejected (the program refused a valid input: nonzero exit or
exception, or a check it failed wrongly); or wrong (it accepted and returned
a wrong answer). Rejected and wrong both count as failed; only wrong makes
the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs

ORACLE_TOL = 1e-7  # criterion-3 tolerance of the acceptance suite
SPECTRUM_TOL = 1e-6  # share of ||A|| a reported eigenvalue may miss by
XI_BOUND = 1e-10  # unbounded form's documented xi round-trip bound
HARD_SCALES = (1e-12, 1e-8, 1e-4, 1e3, 1e8, 1e12)
HARD_GAPS = (1e-9, 1e-8, 1e-7, 1e-6, 1e-5)


@dataclass
class Outcome:
    status: str  # "ok" | "rejected" | "wrong"
    detail: str = ""


OK = Outcome("ok")


@dataclass
class Op:
    label: str
    run: Callable  # run(tracer or None) -> Outcome


@dataclass
class Workload:
    name: str
    tail_pct: int  # stated percentile for op_tail_s
    cold: bool  # True when each operation starts a fresh process
    build: Callable  # build(seed, work_dir, tiny) -> list[Op]
    warm: str | None  # set-up runs the operations whose label contains this

    def warm_up(self, ops: list[Op]) -> None:
        """First LAPACK calls and lazy imports, on small inputs."""
        for op in ops:
            if self.warm is not None and self.warm in op.label:
                op.run(None)


def _report_outcome(cmd: str, inp: inputs.NormalInput, code, out: Path) -> Outcome:
    """Check one decompose/transform report against the known spectrum."""
    if code != 0:
        return Outcome("rejected", f"exit {code}")
    try:
        report = json.loads(out.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return Outcome("wrong", f"unreadable report: {exc}")
    if report.get("status") != "pass" or report.get("scenario") != cmd:
        return Outcome("wrong", f"exit 0 with status {report.get('status')!r}")
    if cmd == "decompose":
        gap = inputs.spectrum_gap(inp, report.get("phi", []))
        if not gap <= SPECTRUM_TOL:
            return Outcome("wrong", f"symbol misses the spectrum by {gap:.3e} of ||A||")
    else:
        s = inp.op_norm()
        want = s / math.sqrt(1.0 + s * s)
        if not abs(report.get("zNorm", math.nan) - want) <= SPECTRUM_TOL:
            return Outcome("wrong", f"||Z|| = {report.get('zNorm')} but expected {want}")
    return OK


# -- verify_mix ---------------------------------------------------------------
# Regular inputs per size; classes cycle within a size. Three in four inputs
# are regular, one in four is hard. A round is kept near 3.5 s so that every
# operation runs about seven times in a 25-s run; n=128, at 0.5 s per
# operation, is left to cli_fresh.
VERIFY_SIZES = {8: 15, 16: 12, 32: 4, 64: 2}
# `transform` of a unitary input runs a slow path at commit e9b8fe8 (its
# Gram matrix is 2I, one eigenvalue cluster): 0.2 s at n=16, 0.8 s at n=32,
# 3.2 s at n=64 and 14 s at n=128. It stays in the mix at n <= 16, where it
# already dominates its size; at n=32 it alone would be a fifth of a round.
VERIFY_SKIP = {(32, "unitary", "transform")}
HARD_N = 16
HARD_REPS = 1


def _cli_inprocess(cmd, path, inp, out):
    import qspectra.cli

    def run(_tracer):
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                code = qspectra.cli.main([cmd, str(path), "--m", inp.frame_text(), "--out", str(out)])
        except Exception as exc:  # an escaped exception is a rejection, not a crash of the benchmark
            return Outcome("rejected", f"exception {type(exc).__name__}")
        return _report_outcome(cmd, inp, code, out)

    return run


def _verify_inputs(seed: int, tiny: bool):
    """(label, NormalInput) for the regular then the hard inputs."""
    sizes = {8: 4} if tiny else VERIFY_SIZES
    for n, count in sizes.items():
        for i in range(count):
            kind = inputs.MATRIX_CLASSES[i % 4]
            yield f"n{n}-{kind}-{i}", inputs.normal_input(inputs.rng(seed, 1, n, i), n, kind)
    hard = [("scale", c) for c in HARD_SCALES] + [("gap", g) for g in HARD_GAPS]
    for j, (what, value) in enumerate(hard):
        for rep in range(1 if tiny else HARD_REPS):
            g = inputs.rng(seed, 2, j, rep)
            if what == "scale":
                inp = inputs.normal_input(g, HARD_N, "normal", scale=value)
            else:
                inp = inputs.normal_input(g, HARD_N, "normal", gap=value)
            yield f"hard-{what}{value:.0e}-{rep}", inp


def build_verify_mix(seed: int, work: Path, tiny: bool) -> list[Op]:
    ops = []
    for label, inp in _verify_inputs(seed, tiny):
        path = work / f"{label}.json"
        inp.write(path)
        kind = label.split("-")[1]
        for cmd in ("decompose", "transform"):
            if (inp.n, kind, cmd) in VERIFY_SKIP:
                continue
            out = work / f"{label}.{cmd}.out.json"
            ops.append(Op(f"{cmd} {label}", _cli_inprocess(cmd, path, inp, out)))
    order = inputs.rng(seed, 3).permutation(len(ops))
    return [ops[i] for i in order]


# -- oracle_probes ------------------------------------------------------------
# Orbits probed per size, one seeded matrix each: the n=64 calls are most of
# the round, so op_p50_s and the tail measure them; a round is about 2 s.
ORACLE_ORBITS = {16: 8, 32: 8, 64: 24}
PROBES_PER_SIDE = 16


def fibonacci_dirs(count: int) -> np.ndarray:
    t = np.arange(count, dtype=np.float64)
    z = 1.0 - (2.0 * t + 1.0) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    return np.stack([r * np.cos(golden * t), r * np.sin(golden * t), z], axis=1)


def orbit_probes(alpha, beta, k: int, margin: float):
    """16 probes on orbit k's sphere and 16 at distance >= margin from every
    orbit, circling orbit k in the (re, |im|) half plane."""
    dirs = fibonacci_dirs(PROBES_PER_SIDE)
    on = [(alpha[k], *(beta[k] * d)) for d in dirs]
    off = []
    for t in range(PROBES_PER_SIDE):
        angle = 2.0 * math.pi * (t + 0.5) / PROBES_PER_SIDE
        r = 1.5 * margin
        while True:
            re, im = alpha[k] + r * math.cos(angle), abs(beta[k] + r * math.sin(angle))
            if np.min(np.hypot(alpha - re, beta - im)) >= margin:
                break
            r *= 1.3
        off.append((re, *(im * dirs[t])))
    return on, off


def build_oracle_probes(seed: int, work: Path, tiny: bool) -> list[Op]:
    from qspectra import Quaternion, serialize, spectral

    ops = []
    for n, orbits in ({16: 4} if tiny else ORACLE_ORBITS).items():
        g = inputs.rng(seed, 4, n, 0)
        inp = inputs.normal_input(g, n, "normal")
        path = work / f"n{n}.json"
        inp.write(path)
        a = serialize.matrix_from_json(serialize.load_json(path))
        margin = 50.0 * math.sqrt(ORACLE_TOL) * (1.0 + inp.op_norm())
        for k in sorted(g.choice(n, orbits, replace=False)):
            on, off = orbit_probes(inp.alpha, inp.beta, k, margin)
            probes = [Quaternion(*p) for p in on + off]
            want = [True] * len(on) + [False] * len(off)
            ops.append(Op(f"oracle n{n} orbit {k}", _oracle_call(spectral, a, probes, want)))
    order = inputs.rng(seed, 5).permutation(len(ops))
    return [ops[i] for i in order]


def _oracle_call(spectral, a, probes, want):
    def run(_tracer):
        got = spectral.delta_oracle(a, probes, ORACLE_TOL)
        bad = sum(g != w for g, w in zip(got, want)) + abs(len(got) - len(want))
        return OK if bad == 0 else Outcome("wrong", f"{bad} verdicts disagree with orbit membership")

    return run


# -- unbounded_atoms ----------------------------------------------------------
# Spaces per atom count; a round is about 3 s, of which the one N=1024 form
# is half. The median falls among the N=128 forms and N=1024 pushforwards,
# both about 25 ms, so it does not sit between two groups of different cost.
FORM_SIZES = {128: 12, 512: 1, 1024: 1}
REPEAT_SIZES = {128: 4, 512: 2, 1024: 6}
DISTINCT_VALUES = 16


def _slice_values(g, count: int, m: np.ndarray) -> np.ndarray:
    """alpha + beta m with |.| spread over five decades, up to 1e2.

    Rounding phi = xi_inv(psi) to double moves xi(phi) by about
    1e-16 |psi|^3, so from |psi| near 1e3 on no implementation can meet the
    form's 1e-10 (1 + max |psi|) round-trip bound; such symbols are outside
    the domain the form documents."""
    radius = 10.0 ** g.uniform(-3.0, 2.0, count)
    theta = g.uniform(0.0, math.pi, count)
    alpha, beta = radius * np.cos(theta), radius * np.sin(theta)
    return np.column_stack([alpha, np.outer(beta, m)])


def _square(v: np.ndarray) -> np.ndarray:
    """q*q for slice values q = a + b m: (a^2 - b^2) + 2ab m."""
    a = v[:, 0]
    b_m = v[:, 1:]
    b2 = np.sum(b_m * b_m, axis=1)
    return np.column_stack([a * a - b2, 2.0 * a[:, None] * b_m])


def build_unbounded_atoms(seed: int, work: Path, tiny: bool) -> list[Op]:
    from qspectra import Quaternion, SliceFrame, measure, transform

    ops = []
    forms = {128: 2} if tiny else FORM_SIZES
    repeats = {128: 1} if tiny else REPEAT_SIZES
    for n_atoms, count in forms.items():
        for i in range(count):
            g = inputs.rng(seed, 6, n_atoms, i)
            m = inputs.unit_imaginary(g)
            psi_values = _slice_values(g, n_atoms, m)
            weights = g.uniform(0.5, 2.0, n_atoms)
            _save_arrays(work / f"form-{n_atoms}-{i}.json", psi=psi_values, weights=weights)
            frame = SliceFrame.from_m(Quaternion(0.0, *m))
            space = measure.AtomicMeasureSpace(psi_values.copy(), weights)
            sim = transform.UnboundedSim.from_symbol(measure.Symbol(space, psi_values.copy(), frame))
            ops.append(Op(f"form N{n_atoms}-{i}", _form_call(transform, sim, frame, psi_values, weights)))
    for n_atoms, count in repeats.items():
        for i in range(count):
            g = inputs.rng(seed, 7, n_atoms, i)
            m = inputs.unit_imaginary(g)
            values = _slice_values(g, DISTINCT_VALUES, m)[g.integers(0, DISTINCT_VALUES, n_atoms)]
            weights = np.where(g.uniform(size=n_atoms) < 0.1, 0.0, g.uniform(0.5, 2.0, n_atoms))
            weights[0] = 1.0
            _save_arrays(work / f"repeat-{n_atoms}-{i}.json", values=values, weights=weights)
            frame = SliceFrame.from_m(Quaternion(0.0, *m))
            space = measure.AtomicMeasureSpace(values.copy(), weights)
            phi = measure.Symbol(space, values.copy(), frame)
            label = f"N{n_atoms}-{i}"
            ops.append(Op(f"ess_ran {label}", _ess_ran_call(measure, phi, values, weights)))
            ops.append(Op(f"pushforward {label}", _pushforward_call(measure, space, values, weights)))
            ops.append(Op(f"m_phi_norm {label}", _m_phi_norm_call(measure, phi, values, weights)))
    order = inputs.rng(seed, 8).permutation(len(ops))
    return [ops[i] for i in order]


def _save_arrays(path: Path, **arrays) -> None:
    path.write_text(json.dumps({k: v.tolist() for k, v in arrays.items()}), encoding="utf-8")


def _first_seen(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows in first-seen order, and each row's index into them."""
    _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))
    return rows[np.sort(first)], rank[inverse.ravel()]


def _form_call(transform, sim, frame, psi, weights):
    bound = XI_BOUND * (1.0 + float(np.max(np.linalg.norm(psi, axis=1))))

    def run(_tracer):
        try:
            _v, space, eta = transform.unbounded_multiplication_form(sim, frame)
        except Exception as exc:
            return Outcome("rejected", f"exception {type(exc).__name__}")
        miss = float(np.max(np.linalg.norm(eta.values - psi, axis=1)))
        if not miss <= bound or not np.array_equal(space.weights, weights):
            return Outcome("wrong", f"eta misses psi by {miss:.3e} (bound {bound:.3e})")
        return OK

    return run


def _ess_ran_call(measure, phi, values, weights):
    want, _ = _first_seen(values[weights > 0.0])

    def run(_tracer):
        got = np.array([[q.w, q.x, q.y, q.z] for q in measure.ess_ran(phi)])
        return OK if np.array_equal(got, want) else Outcome("wrong", "essential range differs")

    return run


def _pushforward_call(measure, space, values, weights):
    images, index = _first_seen(_square(values))
    want_w = np.bincount(index, weights=weights, minlength=len(images))
    scale = 1e-12 * (1.0 + np.max(np.linalg.norm(images, axis=1)))

    def run(_tracer):
        got = measure.pushforward(space, lambda q: q * q)
        if got.atoms.shape != images.shape:
            return Outcome("wrong", f"{got.atoms.shape[0]} image atoms, expected {len(images)}")
        if np.max(np.abs(got.atoms - images)) > scale or np.max(np.abs(got.weights - want_w)) > 1e-12 * np.sum(weights):
            return Outcome("wrong", "pushforward atoms or weights differ")
        return OK

    return run


def _m_phi_norm_call(measure, phi, values, weights):
    want = float(np.max(np.linalg.norm(values[weights > 0.0], axis=1)))

    def run(_tracer):
        got = measure.m_phi_norm(phi)
        return OK if abs(got - want) <= 1e-12 * want else Outcome("wrong", f"norm {got} != {want}")

    return run


# -- cli_fresh ----------------------------------------------------------------
CLI_SIZES = (8,) * 16 + (32, 64, 128)


def build_cli_fresh(seed: int, work: Path, tiny: bool) -> list[Op]:
    ops = []
    for i, n in enumerate((8,) if tiny else CLI_SIZES):
        inp = inputs.normal_input(inputs.rng(seed, 9, n, i), n, "normal")
        path = work / f"n{n}-{i}.json"
        inp.write(path)
        for cmd in ("decompose", "transform"):
            ops.append(Op(f"{cmd} n{n}-{i}", _cli_process(cmd, path, inp)))
    order = inputs.rng(seed, 10).permutation(len(ops))
    return [ops[i] for i in order]


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _cli_process(cmd, path, inp):
    root = Path(__file__).resolve().parent.parent
    out = path.with_suffix(f".{cmd}.out.json")
    args = [cmd, str(path), "--m", inp.frame_text(), "--out", str(out)]
    env = child_env(root)

    def run(tracer):
        if tracer is None:
            argv = [sys.executable, "-m", "qspectra.cli", *args]
        else:
            spans = out.with_suffix(".spans.json")
            argv = [sys.executable, "-X", "importtime", str(Path(__file__).with_name("child.py")), str(spans), *args]
        proc = subprocess.run(argv, env=env, cwd=root, capture_output=True, text=True, timeout=120)
        if tracer is not None:
            tracer.child_finished(proc.stderr, spans)
        return _report_outcome(cmd, inp, proc.returncode, out)

    return run


WORKLOADS = {
    "verify_mix": Workload("verify_mix", 88, False, build_verify_mix, " n8-normal-0"),
    "oracle_probes": Workload("oracle_probes", 75, False, build_oracle_probes, "oracle n16 "),
    "unbounded_atoms": Workload("unbounded_atoms", 80, False, build_unbounded_atoms, " N128-0"),
    "cli_fresh": Workload("cli_fresh", 72, True, build_cli_fresh, None),
}
