"""One rep of a benchmark workload in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> <rep> <setup|work|trace>

`setup` stops once the first operation could start; `work` also runs the
workload's fixed work and checks every operation after the timed region;
`trace` does the same with per-layer spans. Prints one JSON object.
Imports zetaident from the checkout's src/ and nowhere else.

Every time is CPU time of this single-threaded process (user + sys, from
CLOCK_PROCESS_CPUTIME_ID). The work never waits for I/O, so on an idle
machine CPU time equals wall time; CPU time leaves out what the hypervisor
gives to other tenants. The wall-clock time of the timed region is reported
beside it.
"""

import os
import sys
import time

now = time.process_time


def _setup(workload: str, src: str, tracer_wanted: bool):
    start = now()
    sys.path.insert(0, src)
    import zetaident

    if workload != "derive":
        import zetaident.cli  # noqa: F401  (the entry point of `zetaident eval` and `verify`)
    import_s = now() - start
    if not os.path.abspath(zetaident.__file__).startswith(src + os.sep):
        raise SystemExit(f"zetaident was imported from {zetaident.__file__}, not {src}")
    tracer = None
    if tracer_wanted:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    specs = None
    derive_s = 0.0
    if workload == "points":
        # What `zetaident eval` derives to choose a depth.
        start = now()
        specs = {p: zetaident.derive.derive_identity(p, 64) for p in range(1, 13)}
        derive_s = now() - start
    return import_s, derive_s, specs, tracer


def _work_done(start: float, stamps: list[float], wall_clock: float, tracer) -> dict:
    """What a rep reports about its timed region, read before any check runs.

    The first op starts at `start`; `stamps` are the now() readings at the
    ends of the ops, in order.
    """
    import resource

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    end = now()
    bounds = [start] + stamps
    return {
        "wall_s": end - start,
        "wall_clock_s": wall_clock,
        "ops_s": [b - a for a, b in zip(bounds, bounds[1:])],
        "peak_rss_mb": rss,
        "spans": tracer.snapshot() if tracer is not None else None,
        "missing": tracer.unmeasured() if tracer is not None else [],
    }


def _run_derive(seed: int, rep: int, tracer) -> dict:
    from zetaident import derive as d
    from zetaident import reference

    import workloads as w

    specs = {}
    stamps = []
    clock, start = time.perf_counter(), now()
    for p in w.derive_order(seed, rep):
        specs[p] = d.derive_identity(p, w.DERIVE_KMAX)
        stamps.append(now())
    ordered = [specs[p] for p in w.DERIVE_DEPTHS]
    back = d.identities_from_json_text(d.identities_to_json_text(ordered))
    done = _work_done(start, stamps, time.perf_counter() - clock, tracer)

    problems = []
    for spec, parsed in zip(ordered, back):
        p = spec.p
        if p <= 12 and not d.identities_equal(
            spec, reference.reference_identity(p, w.DERIVE_KMAX), w.DERIVE_KMAX
        ):
            problems.append(f"p={p}: differs from the reference table")
        elif p % 2 == 1 and p >= 3 and spec.extended_validity_re_gt != -p:
            problems.append(f"p={p}: extended validity is {spec.extended_validity_re_gt}")
        elif spec.closed_form is None:
            problems.append(f"p={p}: no closed form")
        elif parsed != spec:
            problems.append(f"p={p}: JSON round trip is lossy")
    if len(back) != len(ordered):
        problems.append("JSON round trip lost records")
    # Every derive check is about the output itself, so a failed op is a wrong one.
    return {**done, "attempted": len(stamps), "failed": len(problems),
            "incorrect": len(problems), "problems": problems}


def _run_points(seed: int, rep: int, specs, tracer) -> dict:
    from mpmath import mp

    from zetaident import evalzeta
    from zetaident.cli import _choose_depth  # the depth `zetaident eval` picks

    import workloads as w

    batch = w.points(seed, rep)
    chosen = [_choose_depth(specs, s) for s, _ in batch]
    results = []
    stamps = []
    clock, start = time.perf_counter(), now()
    for (s, digits), spec in zip(batch, chosen):
        try:
            if spec is None:
                raise ValueError("no depth up to 12 supports s")
            results.append(evalzeta.eval_identity(spec, s, digits))
        except Exception as exc:  # an op that raises is a failed op
            results.append(exc)
        stamps.append(now())
    done = _work_done(start, stamps, time.perf_counter() - clock, tracer)

    problems = []
    incorrect = 0
    for (s, digits), report in zip(batch, results):
        re, im = s if isinstance(s, tuple) else (s, 0)
        where = f"s={float(re):.6f}{float(im):+.5f}i digits={digits}"
        if isinstance(report, Exception):
            problems.append(f"{where}: raised {report!r}")
            continue
        with mp.workdps(digits + 20):
            point = mp.mpc(mp.mpf(re.numerator) / re.denominator,
                           mp.mpf(im.numerator) / im.denominator if im else 0)
            err = abs(report.value - mp.zeta(point))
            if err > report.error_estimate:
                incorrect += 1
                problems.append(f"{where}: error {mp.nstr(err, 3)} "
                                f"exceeds its estimate {report.error_estimate:.3e}")
            elif report.error_estimate > 10.0 ** -digits:
                problems.append(f"{where}: estimate "
                                f"{report.error_estimate:.3e} misses 1e-{digits}")
    return {**done, "attempted": len(stamps), "failed": len(problems),
            "incorrect": incorrect, "problems": problems}


def _run_verify(tracer) -> dict:
    import contextlib
    import io
    import traceback

    from zetaident import cli

    import workloads as w

    lines = io.StringIO()
    clock, start = time.perf_counter(), now()
    raised = None
    try:
        with contextlib.redirect_stdout(lines):
            code = cli.main(["verify"])
    except Exception:  # counted as a nonzero exit with no FAIL line
        code, raised = None, traceback.format_exc().rstrip()
    # Latency is per invocation, what a user of `zetaident verify` waits for:
    # the checks range from 1 ms to 12 s, and the short ones, which would set
    # a per-check median, moved by up to 2x between runs.
    done = _work_done(start, [now()], time.perf_counter() - clock, tracer)
    results = [line for line in lines.getvalue().splitlines() if line.startswith(("PASS", "FAIL"))]

    problems = [line for line in results if line.startswith("FAIL")]
    failed = len(problems) + max(0, w.VERIFY_CHECKS - len(results))
    if len(results) < w.VERIFY_CHECKS:
        problems.append(f"{w.VERIFY_CHECKS - len(results)} checks printed no result")
    if raised is not None:
        failed = w.VERIFY_CHECKS
        problems.append(f"verify raised, which fails every check:\n{raised}")
    elif code != 0 and failed == 0:
        # A nonzero exit that names no failed check leaves every check in doubt.
        failed = w.VERIFY_CHECKS
        problems.append(f"exit code {code} without a FAIL line")
    return {**done, "attempted": max(w.VERIFY_CHECKS, len(results)), "failed": failed,
            "incorrect": failed, "problems": problems}


def main(argv: list[str]) -> int:
    import json

    workload, seed, rep, mode = argv[0], int(argv[1]), int(argv[2]), argv[3]
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    import_s, derive_s, specs, tracer = _setup(workload, src, mode == "trace")
    # CPU time since the process started: interpreter start-up and set-up.
    out = {"setup_s": now(), "import_s": import_s, "derive_s": derive_s}
    if mode != "setup":
        if workload == "derive":
            out.update(_run_derive(seed, rep, tracer))
        elif workload == "points":
            out.update(_run_points(seed, rep, specs, tracer))
        else:
            out.update(_run_verify(tracer))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
