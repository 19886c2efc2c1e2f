#!/usr/bin/env python3
"""qnogo benchmark: run one seeded workload closed-loop and print its metrics.

    python3 bench/run.py --workload builtin_suites --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a source tree that has ``src/qnogo``; the package
is imported from that tree, never from an installed copy.  One caller runs
whole cycles of ops back to back until ``--seconds`` is about to pass, then
every op's output is checked by the workload's oracle.

``--trace 0`` prints the end-to-end metrics (norm_op_tail_s, norm_ops_per_s,
setup_s, peak_rss_mb); all but peak_rss_mb are times rescaled by a
host-speed probe (see ``reference_kernel``).  failed_ratio and the
wall-clock op_p50_s, op_tail_s, ops_per_s and setup_wall_s are printed above
them: the first is carried by the result line's ``failed``/``attempted``,
the others are not bounded (see README.md).  ``--trace 1`` spends half the time
untraced and half with span wrappers installed and prints the per-layer
metrics, the tracing overhead and the anchor figures.  The last line of
stdout is always the JSON result; the exit code is 1 when any op failed.
Scratch files, span dumps and a full result record go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

#: BLAS threads for the benchmark and its children.  The matrices are at most
#: 64 x 64, so extra threads add only scheduling noise; never above nproc.
BLAS_THREADS = 1
SETUP_LAUNCHES = 15
#: Nominal time of ``reference_kernel``: normalised times are those on a host
#: where the kernel takes this long (about its time in the fast state of the
#: 2-vCPU x86_64 VM that recorded baseline.json).
REF_KERNEL_S = 0.0065


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("builtin_suites", "search_planted", "dense_spectra"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of pure-Python work that never calls qnogo.

    The shared host's speed switches between states 1.6-1.9x apart within
    seconds; timing this kernel next to every op measures the state each op
    ran in, so the op's time can be taken relative to it (see ``normalize``).
    """
    t0 = perf_counter()
    total = 0
    for i in range(60000):
        total += (i * i) % 7
    counts: dict[int, int] = {}
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + 1
    return perf_counter() - t0


def normalize(times: list[float], probes: list[float]) -> list[float]:
    """Times rescaled to a host where ``reference_kernel`` takes REF_KERNEL_S.

    ``probes`` holds one kernel time before the first timed step and one
    after each; a step is divided by the mean of the two around it.
    """
    return [t * REF_KERNEL_S * 2.0 / (probes[i] + probes[i + 1]) for i, t in enumerate(times)]


def measure_setup(launches: int = SETUP_LAUNCHES) -> list[tuple[float, float, float]]:
    """Per launch of a fresh interpreter: seconds spent in ``import qnogo``,
    and the ``reference_kernel`` times just before and after it in that child.

    The kernel is built from this file's source with builtins only, so the
    child loads no module before qnogo that the import would otherwise load.
    """
    probe = "\n".join(
        [
            "from time import perf_counter",
            inspect.getsource(reference_kernel),
            "before = reference_kernel()",
            "t = perf_counter()",
            "import qnogo",
            "t = perf_counter() - t",
            "print(t, before, reference_kernel())",
        ]
    )
    launches_s = []
    for _ in range(launches):
        done = subprocess.run(
            [sys.executable, "-c", probe],
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        t, before, after = (float(v) for v in done.stdout.split())
        launches_s.append((t, before, after))
    return launches_s


@dataclass
class Phase:
    times: list[float]
    wall: float
    errors: list[str]
    #: reference_kernel times: one before the first op and one after each op.
    probes: list[float]


def timed_phase(cycles, seconds: float, tracer=None, first_op: int = 0) -> Phase:
    """Run whole cycles until the next one would likely overrun ``seconds``.

    Each output is checked as soon as its op returns and then dropped, so
    memory does not grow with the op count; then the reference kernel runs.
    The time of both is taken out of the phase's wall time.
    """
    times: list[float] = []
    errors: list[str] = []
    probes = [reference_kernel()]
    checking = 0.0
    start = perf_counter()
    done = 0
    while True:
        for op in cycles[done % len(cycles)]:
            if tracer is not None:
                tracer.op = first_op + len(times)
            t0 = perf_counter()
            try:
                out, err = op.run(), None
            except Exception as exc:  # an op that raises counts as failed
                out, err = None, f"{op.stratum}: {type(exc).__name__}: {exc}"
            t1 = perf_counter()
            times.append(t1 - t0)
            if err is None:
                try:
                    op.check(out)
                except Exception as exc:  # a malformed output fails its oracle too
                    err = f"{op.stratum}: oracle: {type(exc).__name__}: {exc}"
            if err is not None:
                errors.append(err)
            probes.append(reference_kernel())
            checking += perf_counter() - t1
        done += 1
        elapsed = perf_counter() - start - checking
        if elapsed * (done + 1) / done > seconds:
            break
    return Phase(times, perf_counter() - start - checking, errors, probes)


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(args: argparse.Namespace) -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qnogo").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        fields = ("name", "version", "openblas configuration")
        blas = {k: {f: deps.get(k, {}).get(f) for f in fields} for k in ("blas", "lapack")}
    except TypeError:  # numpy < 1.26 has no mode argument
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def anchor_system():
    """Ten four-valued observables on five sign contexts: 4^10 assignments, UNSAT.

    Each observable sits on exactly two contexts and the required signs
    multiply to -1, so the search must enumerate all 1,048,576 assignments.
    """
    from qnogo import ks_search

    lines = ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 0, 4), (1, 5, 8, 6), (2, 3, 7, 9))
    doc = {
        "observables": [{"id": f"X{i}", "spectrum": [-2, -1, 1, 2]} for i in range(10)],
        "contexts": [
            {"members": [f"X{i}" for i in line], "constraint": {"type": "product_sign", "arg": "negative" if k == 4 else "positive"}}
            for k, line in enumerate(lines)
        ],
    }
    return ks_search.system_from_document(doc)


def anchors() -> tuple[dict[str, float], list[str]]:
    """The ROADMAP re-anchor figures, measured on fixed inputs without tracing."""
    import numpy as np

    from qnogo import ks_search, tensor_core

    errors = []
    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    h = (x + x.conj().T) / 2.0
    eig_times = []
    for _ in range(5):
        t0 = perf_counter()
        eig = tensor_core.hermitian_eig(h)
        eig_times.append(perf_counter() - t0)
    v = eig.eigenvectors
    if np.abs(h @ v - v * eig.eigenvalues).max() > 1e-8:
        errors.append("anchor: hermitian_eig residual too large")

    system = ks_search.state_independent_system()
    per_assignment = []
    for _ in range(5):
        t0 = perf_counter()
        report = ks_search.search(system)
        per_assignment.append((perf_counter() - t0) / report.assignments_checked)
    if report.satisfiable or report.assignments_checked != 4096:
        errors.append("anchor: state-independent system not UNSAT over 4096 assignments")

    big = anchor_system()
    t0 = perf_counter()
    report = ks_search.search(big)
    big_s = perf_counter() - t0
    if report.satisfiable or report.assignments_checked != 4**10:
        errors.append("anchor: 4^10 system not UNSAT over 4^10 assignments")

    figures = {
        "anchor.hermitian_eig_random64_s": statistics.median(eig_times),
        "anchor.search_state_independent_us_per_assignment": 1e6 * statistics.median(per_assignment),
        "anchor.search_4pow10_s": big_s,
    }
    return figures, errors


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, in the order ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:<52} {value:>14.6g} {unit:<6} {note}".rstrip())


def warm_up(cycles) -> list[str]:
    """The first op once, untimed and checked, so lazy set-up is not measured."""
    op = cycles[0][0]
    try:
        op.check(op.run())
    except Exception as exc:  # reported like a failed op
        return [f"warm-up {op.stratum}: {type(exc).__name__}: {exc}"]
    return []


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "qnogo" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'qnogo'}; run from a qnogo source tree", file=sys.stderr)
        return 2
    units = declared_units(args.trace)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads; children inherit it
    sys.path.insert(0, str(SRC))
    import qnogo

    if Path(qnogo.__file__).resolve().parent != (SRC / "qnogo").resolve():
        print(f"error: imported qnogo from {qnogo.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        setup = measure_setup()
        cycles = workloads.WORKLOADS[args.workload](args.seed, scratch)
        errors = warm_up(cycles)
        if args.trace:
            plain = timed_phase(cycles, args.seconds / 2)
            tracer = tracing.Tracer()
            with tracer.installed():
                traced = timed_phase(cycles, args.seconds / 2, tracer=tracer, first_op=len(plain.times))
            anchor_figures, anchor_errors = anchors()
            errors += anchor_errors
            phases = [plain, traced]
        else:
            phases = [timed_phase(cycles, args.seconds)]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(len(p.times) for p in phases)
    failed = sum(len(p.errors) for p in phases)
    errors += [e for p in phases for e in p.errors]
    times = phases[0].times
    tail_value, tail_pct = tail(times)
    raw = {
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_value,
        "ops_per_s": len(times) / phases[0].wall,
        "ref_kernel_p50_s": statistics.median(phases[0].probes),
        "setup_wall_s": statistics.median(t for t, _, _ in setup),
    }
    notes: dict[str, str] = {}
    if args.trace:
        metrics = tracing.layer_metrics(tracer, traced.times)
        metrics["trace.overhead_ratio"] = statistics.median(traced.times) / statistics.median(plain.times)
        metrics.update(anchor_figures)
        baseline = json.loads((BENCH / "baseline.json").read_text(encoding="utf-8"))["anchors"]
        for name, ref in baseline.items():
            notes[name] = f"(baseline {ref['value']:.4g} at {ref['commit'][:7]}; ROADMAP {ref['roadmap']})"
        tracer.dump(WORK / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        normalized = normalize(times, phases[0].probes)
        norm_tail, norm_tail_pct = tail(normalized)
        metrics = {
            "norm_op_tail_s": norm_tail,
            "norm_ops_per_s": len(normalized) / sum(normalized),
            "setup_s": statistics.median(t * REF_KERNEL_S * 2.0 / (k0 + k1) for t, k0, k1 in setup),
            "peak_rss_mb": peak_rss_mb(),
        }
        notes = {
            "norm_op_tail_s": f"(p{norm_tail_pct:.1f} of {len(times)} ops)",
            "setup_s": f"(median of {len(setup)} launches, normalised)",
        }
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    print(f"qnogo benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for e in errors[:10]:
        print(f"FAILED {e}")
    _print_metric("failed_ratio", failed / attempted, "ratio", f"({failed} of {attempted} ops)")
    _print_metric("op_p50_s", raw["op_p50_s"], "s", f"(median of {len(times)} ops; wall clock, not bounded)")
    _print_metric("op_tail_s", raw["op_tail_s"], "s", f"(p{tail_pct:.1f}; wall clock, not bounded)")
    _print_metric("ops_per_s", raw["ops_per_s"], "1/s", "(wall clock, not bounded)")
    _print_metric("ref_kernel_p50_s", raw["ref_kernel_p50_s"], "s", "(host-speed probe, not bounded)")
    _print_metric("setup_wall_s", raw["setup_wall_s"], "s", "(wall clock, not bounded)")
    for name, unit in units.items():
        _print_metric(name, metrics[name], unit, notes.get(name, ""))
    prov = provenance(args)
    print("provenance " + json.dumps(prov, sort_keys=True))

    correct = not errors
    details = {
        "failed_ratio": failed / attempted,
        **raw,
        "op_tail_percentile": tail_pct,
        "ref_kernel_s": phases[0].probes,
        "op_samples": len(times),
        "timed_wall_s": phases[0].wall,
        "setup_launches_s": setup,
        "first_errors": errors[:10],
    }
    record = {"provenance": prov, "details": details, "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
