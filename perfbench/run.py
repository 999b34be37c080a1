"""Benchmark of zetaident: end-to-end metrics, or per-layer spans with --trace 1.

    python3 perfbench/run.py --workload derive|points|verify|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every rep runs in a fresh interpreter
(perfbench/worker.py), one at a time, and checks its own outputs after its
timed region. A run repeats a cycle: a few interpreters that only set up,
then one work rep. It stops when the next cycle would end after --seconds,
but not before the workload's minimum of work reps. The last line of output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as w

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170  # every run must exit within 180 s


class RunError(RuntimeError):
    pass


def environment() -> dict:
    import mpmath
    import mpmath.libmp

    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def spawn(workload: str, seed: int, rep: int, mode: str, started: float) -> dict:
    """Run one worker to completion and return what it reports."""
    env = {k: v for k, v in os.environ.items() if k not in ("ZETA_DIGITS", "PYTHONPATH")}
    left = RUN_LIMIT_S - (time.monotonic() - started)
    if left <= 0:
        raise RunError("out of time before the minimum reps ran")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(rep), mode],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=left,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{mode} worker passed the {RUN_LIMIT_S} s run limit") from exc
    if proc.returncode != 0:
        detail = proc.stderr.strip()[-1500:]
        raise RunError(f"{mode} worker exited with {proc.returncode}: {detail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], pct: int) -> float:
    if pct >= 100:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_reps(workload: w.Workload, seed: int, seconds: int, modes: list[str],
             least: int, probes_per_rep: int, started: float) -> tuple[list, list]:
    """Work reps in the modes of `modes`, taking turns, each after
    `probes_per_rep` set-up-only interpreters, so the set-up samples spread
    over the run as the reps do. At least `least` reps, then more while the
    next cycle is predicted to end within `seconds`. Trace runs repeat batch
    0, so their counts must agree; plain runs evaluate batch r in rep r.
    Returns the reps and the set-up probes."""
    reps, probes, cycles = [], [], []
    while True:
        if len(reps) >= least:
            if time.monotonic() - started + statistics.median(cycles) > seconds:
                return reps, probes
        t0 = time.monotonic()
        probes += [spawn(workload.name, seed, 0, "setup", started)
                   for _ in range(probes_per_rep)]
        mode = modes[len(reps) % len(modes)]
        batch = 0 if "trace" in modes else len(reps)
        rep = spawn(workload.name, seed, batch, mode, started)
        rep["mode"] = mode
        reps.append(rep)
        cycles.append(time.monotonic() - t0)


def end_to_end(workload: w.Workload, probes: list[dict], reps: list[dict]) -> list[tuple]:
    ops_ms = [1000 * t for r in reps for t in r["ops_s"]]
    tail = workload.tail_pct
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    setup = [r["setup_s"] for r in probes + reps]
    clock = statistics.median(r["wall_clock_s"] for r in reps)
    return [
        ("setup_s", statistics.median(setup), "s",
         f"median of {len(setup)} fresh interpreters across the run"),
        ("wall_s", statistics.median(r["wall_s"] for r in reps), "s",
         f"median of {len(reps)} reps of CPU time; wall clock {clock:.4g} s"),
        ("op_ms_p50", statistics.median(ops_ms), "ms", f"{len(ops_ms)} ops"),
        ("op_ms_tail", percentile(ops_ms, tail), "ms",
         f"p{tail} of {len(ops_ms)} ops" if tail < 100 else f"max of {len(ops_ms)} ops"),
        ("peak_rss_mb", statistics.median(r["peak_rss_mb"] for r in reps), "MiB",
         f"median of {len(reps)} reps"),
        ("fail_frac", failed / attempted, "1",
         f"{failed} failed / {attempted} attempted; unbounded, see README"),
    ]


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[list[tuple], list[str]]:
    """Per-layer metrics from the traced reps, and any count that differed
    between two traced reps of the same inputs."""
    counts = [{name: v[0] for name, v in r["spans"].items()} for r in traced]
    mismatch = [
        f"{name}: {[c[name] for c in counts]}" for name in counts[0]
        if len({c[name] for c in counts}) > 1
    ]

    def median_of(name: str, field: int) -> float:
        return statistics.median(r["spans"][name][field] for r in traced)

    calls = counts[0]
    power_calls = calls["evalzeta.mp_power"]
    terms = calls["evalzeta.terms_used"]
    rows = [
        ("setup.import_s", statistics.median(r["import_s"] for r in traced), "s", ""),
        ("setup.derive_s", statistics.median(r["derive_s"] for r in traced), "s", ""),
        ("derive.derive_identity_s", median_of("derive.derive_identity", 1), "s", "inclusive"),
        ("derive.derive_identity_calls", calls["derive.derive_identity"], "count", ""),
        ("derive.closed_form_part_s", median_of("derive.closed_form_part", 1), "s", ""),
        ("derive.fit_closed_form_s", median_of("derive.fit_closed_form", 1), "s", ""),
        ("derive.self_s", median_of("derive.derive_identity", 2), "s",
         "derive_identity minus closed_form_part and fit_closed_form"),
        ("derive.json_s", statistics.median(
            r["spans"]["derive.to_json_text"][1] + r["spans"]["derive.from_json_text"][1]
            for r in traced), "s", "identities_to_json_text + identities_from_json_text"),
        ("evalzeta.eval_identity_s", median_of("evalzeta.eval_identity", 1), "s", "inclusive"),
        ("evalzeta.eval_identity_calls", calls["evalzeta.eval_identity"], "count", ""),
        ("evalzeta.terms_used", terms, "count", "sum of EvalReport.terms_used"),
        ("evalzeta.mp_power_calls", power_calls, "count", "every mp.power call"),
        ("evalzeta.mp_power_s", median_of("evalzeta.mp_power", 1), "s", ""),
        ("evalzeta.power_calls_per_term", power_calls / terms if terms else 0.0, "ratio",
         f"{power_calls} mp.power calls / {terms} terms used"),
        ("evalzeta.zeta_em_reference_s", median_of("evalzeta.zeta_em_reference", 1), "s", ""),
        ("evalzeta.zeta_prime_at_zero_s", median_of("evalzeta.zeta_prime_at_zero", 1), "s", ""),
        ("evalzeta.sum_zeta_m1_s", median_of("evalzeta.sum_zeta_m1", 1), "s", ""),
        ("evalzeta.trivial_zero_report_s", median_of("evalzeta.trivial_zero_report", 1), "s", ""),
        ("exactmath.bernoulli_calls", calls["exactmath.bernoulli"], "count", "counted, not timed"),
        ("reference.reference_identity_s", median_of("reference.reference_identity", 1), "s", ""),
        ("reference.identities_equal_s", median_of("reference.identities_equal", 1), "s", ""),
        ("cli.main_s", median_of("cli.main", 1), "s", "inclusive"),
        ("cli.self_s", median_of("cli.main", 2), "s", "main minus the traced calls inside it"),
        ("trace.overhead_s",
         statistics.median(r["wall_s"] for r in traced)
         - statistics.median(r["wall_s"] for r in plain), "s",
         f"traced minus untraced wall_s, {len(traced)} vs {len(plain)} reps of one batch"),
    ]
    return rows, mismatch


def run(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workload = w.WORKLOADS[name]
    started = time.monotonic()
    print(f"workload {name}: {workload.why}")
    print(f"seed {seed} (held-out seed {w.HELD_OUT_SEED}), seconds {seconds}, trace {int(trace)}")
    print("env " + json.dumps(environment(), sort_keys=True))
    if trace:
        # Alternate plain and traced reps: the overhead compares them, and
        # at least two traced reps must agree on every count.
        reps, probes = run_reps(workload, seed, seconds, ["work", "trace"], 4, 0, started)
    else:
        reps, probes = run_reps(workload, seed, seconds, ["work"], workload.min_reps,
                                workload.probes_per_rep, started)
    plain = [r for r in reps if r["mode"] == "work"]
    traced = [r for r in reps if r["mode"] == "trace"]
    if trace:
        rows, mismatch = per_layer(plain, traced)
    else:
        rows, mismatch = end_to_end(workload, probes, plain), []
    for metric, value, unit, note in rows:
        print(f"  {metric:32s} {value:>14.6g} {unit:6s} {note}")
    problems = sorted({p for r in reps for p in r["problems"]})
    for line in problems[:12]:
        print(f"  fail: {line}")
    if len(problems) > 12:
        print(f"  fail: ... {len(problems) - 12} more")
    for missing in sorted({m for r in traced for m in r["missing"]}):
        print(f"  not measured in this commit, reads as 0: {missing}")
    for line in mismatch:
        print(f"  traced counts differ between reps of one batch: {line}")
    return {
        "correct": not mismatch and all(r["incorrect"] == 0 for r in reps),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {m: {"value": v, "unit": u} for m, v, u, _ in rows if m != "fail_frac"},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*w.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "zetaident" / "__init__.py").is_file():
        print(f"error: no zetaident sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    names = list(w.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = run(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
