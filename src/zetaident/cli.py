"""Command-line interface: derive identities, verify them against the
reference tables and the independent oracle, and evaluate zeta.

Exit codes: 0 success, 1 verification mismatch, 2 usage/domain errors,
3 I/O errors. Every command but derive takes --digits; where it is not
given, the ZETA_DIGITS environment variable overrides the default (40).
Digits below 15, from either, exit 2 before any work.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from mpmath import mp

from .derive import (
    IdentitySpec,
    _fraction_from_str,
    derive_identity,
    first_difference,
    identities_equal,
    identities_from_json_text,
    identities_to_json_text,
)
from .evalzeta import (
    EvalReport,
    _check_digits,
    _eval_point,
    _exact_point,
    _format_bound,
    _supporting,
    eval_identities,
    eval_identity,
    parse_complex_literal,
    sum_zeta_m1,
    zeta_em_reference,
    zeta_prime_at_zero,
)
from .reference import MAX_REFERENCE_DEPTH, reference_identity

# Cross-check grid: real axis spans the deepest reachable strip; complex
# points keep |Im s| small enough that the oracle's Euler-Maclaurin terms,
# with N = 10 + digits, fall below 10^-(digits+10) before they start to
# grow (see zeta_em_reference).
ORACLE_GRID: tuple[complex, ...] = (
    -10.5 + 0j,
    -9.75 + 0j,
    -8.5 + 0j,
    -7.25 + 0j,
    -6.5 + 0j,
    -5.25 + 0j,
    -4.5 + 0j,
    -3.25 + 0j,
    -2.75 + 0j,
    -1.5 + 0j,
    -0.75 + 0j,
    -0.25 + 0j,
    0.5 + 0j,
    1.25 + 0j,
    2.5 + 0j,
    5.25 + 0j,
    10.0 + 0j,
    0.5 + 5j,
    2.25 + 10.5j,
    -1.5 + 2.5j,
    -0.5 - 3j,
    3.0 - 7.5j,
    2.5 + 20j,
    4.0 - 20j,
    6.25 + 15j,
)

_ALL_DEPTHS = tuple(range(1, MAX_REFERENCE_DEPTH + 1))
_DEPTHS_AT_ZERO = _ALL_DEPTHS[1:]  # depth 1 is valid only for Re s > 0


# ---- argument parsing helpers ----


def parse_p_range(text: str) -> list[int]:
    """A depth or inclusive depth range: "3" or "1..12"."""
    text = text.strip()
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if lo < 1 or hi < lo:
            raise ValueError(f"bad depth range {text!r}")
        return list(range(lo, hi + 1))
    p = int(text)
    if p < 1:
        raise ValueError("depth p must be >= 1")
    return [p]


def parse_rational(text: str) -> Fraction:
    """Grid coordinates: decimal or num/den rational, read as a record's are."""
    return _fraction_from_str(text.strip())


def _default_digits() -> int:
    env = os.environ.get("ZETA_DIGITS")
    if env is None:
        return 40
    try:
        return int(env)
    except ValueError:
        raise ValueError("ZETA_DIGITS must be an integer") from None


def _limits(digits: int):
    """The tolerance 10^-(digits-5) of a value against its target, and the
    slack 10^-(digits+9) on its error estimate, which covers the target's
    rounding at digits + 10: computed once per check."""
    ten = mp.mpf(10)
    return ten ** (5 - digits), ten ** (-(digits + 9))


def _p_values(text: Optional[str]) -> Optional[list[int]]:
    """The depths an optional --p names, or None without one."""
    return parse_p_range(text) if text else None


def _derive_many(p_values: Sequence[int]) -> dict[int, IdentitySpec]:
    """Each depth derived at the least k_max derive_identity allows, p + 2:
    r_k comes from the closed form at every k, so k_max changes no value."""
    return {p: derive_identity(p, p + 2) for p in p_values}


def _choose_depth(specs: dict[int, IdentitySpec], s) -> Optional[IdentitySpec]:
    """Smallest usable depth, preferring the twin p + 1 of a depth whose
    series starts past p (same identity, nominal instead of extended
    validity); s is read once."""
    usable = {spec.p: spec for spec in _supporting(specs.values(), _exact_point(s))}
    if not usable:
        return None
    p = min(usable)
    return usable.get(p + 1, usable[p]) if usable[p].k0 > p else usable[p]


def _depth_for(
    command: str, p_values: Optional[list[int]]
) -> Callable[[object], Optional[IdentitySpec]]:
    """The depth `eval` and `table` use at a point: the single depth --p
    names, else _choose_depth over p = 1..12 (None where none covers it)."""
    if p_values:
        if len(p_values) != 1:
            raise ValueError(f"{command} expects a single depth, not a range")
        (spec,) = _derive_many(p_values).values()
        return lambda s: spec
    specs = _derive_many(_ALL_DEPTHS)
    return lambda s: _choose_depth(specs, s)


# ---- subcommand: derive ----


def cmd_derive(args: argparse.Namespace) -> int:
    specs = [derive_identity(p, args.kmax) for p in parse_p_range(args.p)]
    for spec in specs:
        extended = f", extends to Re s > {spec.effective_validity}" if spec.k0 > spec.p else ""
        print(f"p={spec.p}: k0={spec.k0}, valid for Re s > {spec.validity_re_gt}{extended}")
        print(f"  Q_{spec.p}(s) = {spec.q_poly.to_str('s')}")
        print(f"  r_k = {spec.closed_form.to_str('k')}  (k >= {spec.k0})")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(identities_to_json_text(specs))
            fh.write("\n")
        print(f"wrote {len(specs)} identities to {args.out}")
    return 0


# ---- checks: one registry, viewed by verify and special ----


# A check maps the specs of its depths and the digits to (ok, detail, lines):
# whether it passed, the line `verify` prints after PASS/FAIL, and the value
# lines `special` prints before its verdict.
_Result = tuple[bool, str, Sequence[str]]


def _verdict(misses: list[str], passed: str, lines: Sequence[str] = ()) -> _Result:
    """Fail on the first miss, else pass with the given detail."""
    return not misses, misses[0] if misses else passed, lines


def _check_coefficients(specs: list[IdentitySpec], digits: int) -> _Result:
    if not specs:
        return False, "no identities to check", ()
    for spec in specs:
        if not 1 <= spec.p <= MAX_REFERENCE_DEPTH:
            return False, f"p={spec.p}: no reference table beyond depth 12", ()
        ref = reference_identity(spec.p, spec.k_max)
        difference = first_difference(spec, ref, spec.k_max)
        if difference:
            return False, f"p={spec.p}: {difference}", ()
    return True, f"{len(specs)} identities match the reference tables exactly", ()


def _check_pairing(specs: list[IdentitySpec], digits: int) -> _Result:
    by_p = {spec.p: spec for spec in specs}
    for p in (3, 5, 7, 9, 11):
        a, b = by_p[p], by_p[p + 1]
        # records from --in may list terms to different k_max
        if not identities_equal(a, b, min(a.k_max, b.k_max)):
            return False, f"depths {p} and {p + 1} differ", ()
    return True, "depths (3,4), (5,6), (7,8), (9,10), (11,12) pair up exactly", ()


def _off_target(p: int, name: str, report: EvalReport, target, limits):
    """|value - target| for depth p's value of name, and the miss, if any:
    a value passes inside the tolerance and inside its error estimate plus
    the slack, limits = _limits(digits)."""
    diff = abs(report.value - target)
    tolerance, slack = limits
    if diff < tolerance and diff <= report.error_estimate + slack:
        return diff, []
    estimate = _format_bound(report.error_estimate)
    return diff, [f"p={p}: {name} off by {mp.nstr(diff, 3)} (error estimate {estimate})"]


def _exact_value(specs: list[IdentitySpec], reports, s: int, target, digits: int, limits, magnitude=False):
    """Each depth's zeta(s), its report from one batch, against an exact
    target (_off_target): a line per depth with Re zeta(s) to digits, or
    |zeta(s)| to 4 if magnitude; the misses; and the largest difference."""
    lines, misses, worst = [], [], mp.mpf(0)
    for spec, report in zip(specs, reports):
        if magnitude:
            lines.append(f"p={spec.p}: |zeta({s})| = {float(abs(report.value)):.3e}")
        else:
            lines.append(f"p={spec.p}: zeta({s}) = {mp.nstr(mp.re(report.value), digits)}")
        diff, miss = _off_target(spec.p, f"zeta({s})", report, target, limits)
        worst = max(worst, diff)
        misses += miss
    return lines, misses, worst


def _check_zeta0(specs: list[IdentitySpec], digits: int) -> _Result:
    reports = eval_identities(specs, 0, digits)
    lines, misses, _ = _exact_value(specs, reports, 0, -mp.mpf(1) / 2, digits, _limits(digits))
    return _verdict(misses, f"zeta(0) = -1/2 for p = {specs[0].p}..{specs[-1].p}", lines)


def _check_zeta2(specs: list[IdentitySpec], digits: int) -> _Result:
    target = mp.pi**2 / 6
    reports = eval_identities(specs, 2, digits)
    lines, misses, worst = _exact_value(specs, reports, 2, target, digits, _limits(digits))
    lines += [f"pi^2/6     = {mp.nstr(target, digits)}", f"difference = {mp.nstr(worst, 3)}"]
    depths = ", ".join(str(spec.p) for spec in specs)
    return _verdict(misses, f"zeta(2) = pi^2/6 through the depth-{depths} series", lines)


def _check_trivial_zeros(specs: list[IdentitySpec], digits: int) -> _Result:
    """zeta(s) = 0 at s = -2, -4, ...: one batch per zero, of the depths
    that support it, each value held to _off_target; each zero is read
    once. Lines by depth."""
    found, misses, worst, s = {spec.p: [] for spec in specs}, [], mp.mpf(0), -2
    limits = _limits(digits)
    while batch := _supporting(specs, point := _exact_point(s)):
        reports = _eval_point(batch, point, digits)
        values, miss, diff = _exact_value(batch, reports, s, 0, digits, limits, magnitude=True)
        for spec, line in zip(batch, values):
            found[spec.p].append(line)
        misses += miss
        worst = max(worst, diff)
        s -= 2
    lines = []
    for spec in specs:
        none = f"p={spec.p}: no trivial zeros inside Re s > {spec.effective_validity}"
        lines += found[spec.p] or [none]
    return _verdict(misses, f"all trivial zeros below tolerance (worst {float(worst):.3e})", lines)


def _check_zetaprime0(specs: list[IdentitySpec], digits: int) -> _Result:
    target = -mp.log(2 * mp.pi) / 2
    reports = {spec.p: zeta_prime_at_zero(spec, digits) for spec in specs}
    values = [mp.re(report.value) for report in reports.values()]
    lines = [f"p={p}: zeta'(0) = {mp.nstr(v, digits)}" for p, v in zip(reports, values)]
    lines.append(f"-log(2*pi)/2 = {mp.nstr(target, digits)}")
    listed = " and ".join(f"p={p}" for p in reports)
    # the depths must agree with each other as well as with the target
    spread, limits = max(values) - min(values), _limits(digits)
    misses = [] if spread < limits[0] else [f"{listed} disagree by {mp.nstr(spread, 3)}"]
    for p, report in reports.items():
        misses += _off_target(p, "zeta'(0)", report, target, limits)[1]
    return _verdict(misses, f"zeta'(0) = -log(2*pi)/2 from {listed}", lines)


def _check_sum_identity(specs: list[IdentitySpec], digits: int) -> _Result:
    """The sum against its exact target 1: inside 10^-digits and inside its
    error estimate, with no slack for rounding the target."""
    report = sum_zeta_m1(digits)
    diff = abs(report.value - 1)
    lines = [
        f"sum_(k>=2) (zeta(k) - 1) = {mp.nstr(mp.re(report.value), digits)}",
        f"difference from 1 = {mp.nstr(diff, 3)}",
    ]
    if diff < mp.mpf(10) ** (-digits) and diff <= report.error_estimate:
        return True, "sum_{k>=2} (zeta(k) - 1) = 1", lines
    miss = f"off 1 by {mp.nstr(diff, 3)} (error estimate {_format_bound(report.error_estimate)})"
    return False, f"sum_k (zeta(k)-1) {miss}", lines


def _check_oracle(specs: list[IdentitySpec], digits: int) -> _Result:
    """Every (s, p) of the grid against direct summation, each value held
    to _off_target: the oracle's rounding at digits + 10 is covered by the
    slack as an exact target's is."""
    misses, diffs, limits = [], [], _limits(digits)
    for s in ORACLE_GRID:
        reference = zeta_em_reference(s, digits)
        point = _exact_point(s)
        batch = _supporting(specs, point)
        for spec, report in zip(batch, _eval_point(batch, point, digits)):
            diff, miss = _off_target(spec.p, f"zeta at {s} against direct summation", report, reference, limits)
            diffs.append(diff)
            misses += miss
    worst = mp.nstr(max(diffs, default=mp.zero), 3)
    passed = f"{len(diffs)} (s, p) evaluations match direct summation (worst {worst})"
    return _verdict(misses, passed)


class _Check(NamedTuple):
    run: Callable[[list[IdentitySpec], int], _Result]
    depths: tuple[int, ...]  # the depths it reads, unless `special --p` names others


_CHECKS: dict[str, _Check] = {
    "coefficients": _Check(_check_coefficients, _ALL_DEPTHS),
    "pairing": _Check(_check_pairing, _ALL_DEPTHS[2:]),  # each odd p >= 3 and p + 1
    "trivial_zeros": _Check(_check_trivial_zeros, _DEPTHS_AT_ZERO),
    "zeta0": _Check(_check_zeta0, _DEPTHS_AT_ZERO),
    "zetaprime0": _Check(_check_zetaprime0, (2, 3)),
    "zeta2": _Check(_check_zeta2, (5,)),
    "sum_identity": _Check(_check_sum_identity, ()),
    "oracle": _Check(_check_oracle, _DEPTHS_AT_ZERO),
}
_CHECK_NAMES = tuple(_CHECKS)
# the checks `special` offers: those with values to print
_SPECIAL_CHECKS = ("zeta0", "zetaprime0", "zeta2", "sum_identity", "trivial_zeros")


def _verify_specs(in_path: Optional[str], names: list[str]) -> dict[str, list[IdentitySpec]]:
    """The identities each named check reads, from one source: the records
    of --in FILE, else fresh derivations, each depth once. From FILE,
    `coefficients` reads every record and each other check its own depths,
    which FILE must hold once each."""
    records = None
    if in_path:
        with open(in_path, "r", encoding="utf-8") as fh:
            records = identities_from_json_text(fh.read())
        source = {}
        for spec in records:
            if spec.p in source:
                raise ValueError(f"{in_path} holds depth {spec.p} twice")
            source[spec.p] = spec
    else:
        wanted = {p for name in names for p in _CHECKS[name].depths}
        source = _derive_many(sorted(wanted))
    specs = {}
    for name in names:
        if name == "coefficients" and records is not None:
            specs[name] = records
            continue
        missing = [p for p in _CHECKS[name].depths if p not in source]
        if missing:
            raise ValueError(f"{in_path} has no depth-{missing[0]} identity; {name} reads it")
        specs[name] = [source[p] for p in _CHECKS[name].depths]
    return specs


def cmd_verify(args: argparse.Namespace) -> int:
    names = args.only or (["coefficients"] if args.in_path else list(_CHECK_NAMES))
    specs = _verify_specs(args.in_path, names)
    failures = 0
    for name in names:
        with mp.workdps(args.digits + 10):
            ok, detail, _ = _CHECKS[name].run(specs[name], args.digits)
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        if not ok:
            failures += 1
    return 1 if failures else 0


def cmd_special(args: argparse.Namespace) -> int:
    p_values, depths = _p_values(args.p), _CHECKS[args.check].depths
    if p_values and depths:  # a check that reads no identity ignores --p
        depths = p_values
    specs = list(_derive_many(depths).values())
    with mp.workdps(args.digits + 10):
        ok, _, lines = _CHECKS[args.check].run(specs, args.digits)
    print(*lines, "PASS" if ok else "FAIL", sep="\n")
    return 0 if ok else 1


# ---- subcommand: eval ----


def cmd_eval(args: argparse.Namespace) -> int:
    p_values, s = _p_values(args.p), parse_complex_literal(args.s)
    spec = _depth_for("eval", p_values)(s)
    if spec is None:
        raise ValueError(
            f"no identity with p <= {MAX_REFERENCE_DEPTH} covers "
            f"Re s = {float(s[0])}"
        )
    report = eval_identity(spec, s, args.digits)
    with mp.workdps(args.digits + 10):
        if mp.im(report.value) == 0:
            print(f"zeta(s) = {mp.nstr(mp.re(report.value), args.digits)}")
        else:
            print(f"zeta(s) = {mp.nstr(report.value, args.digits)}")
    print(
        f"p = {report.p_used}, terms used through k = {report.terms_used}, "
        f"error estimate <= {_format_bound(report.error_estimate)}"
    )
    return 0


# ---- subcommand: table ----


def _grid_points(
    start: Fraction, stop: Fraction, step: Fraction, im: Fraction
) -> list[tuple[Fraction, Fraction]]:
    if step <= 0:
        raise ValueError("grid step must be positive")
    if stop < start:
        raise ValueError("grid stop must not precede start")
    points = []
    j = 0
    while True:
        s_re = start + j * step
        if s_re > stop:
            break
        points.append((s_re, im))
        j += 1
    return points


def _decimal(x: Fraction, digits: int) -> str:
    """x to digits significant digits, at any magnitude: no float round trip."""
    return mp.nstr(mp.mpf(x.numerator) / x.denominator, digits)


def cmd_table(args: argparse.Namespace) -> int:
    p_values, digits = _p_values(args.p), args.digits
    grid = (args.start, args.stop, args.step, args.im)
    points = _grid_points(*map(parse_rational, grid))
    depth_for = _depth_for("table", p_values)
    rows = []
    with mp.workdps(digits + 10):
        for s in points:
            try:
                spec = depth_for(s)
                if spec is None:
                    raise ValueError("no identity covers it")
                report = eval_identity(spec, s, digits)
            except ValueError as exc:
                # "a+bi" or "a-bi", as parse_complex_literal reads it
                sign = "-" if s[1] < 0 else "+"
                where = f"{_decimal(s[0], digits)}{sign}{_decimal(abs(s[1]), digits)}i"
                print(f"skipping s = {where}: {exc}", file=sys.stderr)
                continue
            rows.append(
                {
                    "s_re": _decimal(s[0], digits),
                    "s_im": _decimal(s[1], digits),
                    "value_re": mp.nstr(mp.re(report.value), digits),
                    "value_im": mp.nstr(mp.im(report.value), digits),
                    "terms_used": report.terms_used,
                    "error_estimate": mp.nstr(report.error_estimate, 17),
                }
            )
    header = ["s_re", "s_im", "value_re", "value_im", "terms_used", "error_estimate"]
    if args.fmt == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---- parser wiring ----


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetaident",
        description=(
            "Derive, verify, and evaluate a family of rapidly convergent "
            "zeta identities indexed by integration-by-parts depth p."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_digits(sp):
        sp.add_argument(
            "--digits",
            type=int,
            default=None,
            help="decimal digits of working target (default 40 or ZETA_DIGITS)",
        )

    sp = sub.add_parser("derive", help="derive identities and print/store them")
    sp.add_argument("--p", required=True, help='depth or range, e.g. "3" or "1..12"')
    sp.add_argument("--out", default=None, help="write identities as JSON")
    sp.add_argument(
        "--kmax", type=int, default=64, help="the last k the written records list (default 64)"
    )

    sp = sub.add_parser(
        "verify",
        help="run built-in verification (offline: derivation vs reference "
        "tables, special values, oracle cross-check)",
    )
    sp.add_argument(
        "--only",
        action="append",
        choices=_CHECK_NAMES,
        help="run a single named check (repeatable)",
    )
    sp.add_argument(
        "--in",
        dest="in_path",
        default=None,
        help="verify identities from a JSON file against the reference tables",
    )
    add_digits(sp)

    sp = sub.add_parser("eval", help="evaluate zeta(s) through an identity")
    sp.add_argument("--p", default=None, help="depth (default: chosen from Re s)")
    sp.add_argument(
        "--s", required=True, help='evaluation point, e.g. "2", "-2.5", "0.5+14.1i"'
    )
    add_digits(sp)

    sp = sub.add_parser("table", help="evaluate zeta on a grid, CSV or JSON")
    sp.add_argument("--p", default=None, help="depth (default: chosen per point)")
    sp.add_argument("--start", required=True, help="first real coordinate")
    sp.add_argument("--stop", required=True, help="last real coordinate (inclusive)")
    sp.add_argument("--step", required=True, help="grid spacing (rational)")
    sp.add_argument("--im", default="0", help="imaginary part for all rows")
    sp.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    add_digits(sp)

    sp = sub.add_parser("special", help="special-value and series checks")
    sp.add_argument("--check", required=True, choices=_SPECIAL_CHECKS)
    sp.add_argument("--p", default=None, help="depth or range (default per check)")
    add_digits(sp)

    return parser


_HANDLERS = {
    "derive": cmd_derive,
    "verify": cmd_verify,
    "eval": cmd_eval,
    "table": cmd_table,
    "special": cmd_special,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if "digits" in args:  # every command but derive, checked before any work
            if args.digits is None:
                args.digits = _default_digits()
            _check_digits(args.digits)
        status = _HANDLERS[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except BrokenPipeError:
        # the reader stopped (say `| head -1`): exit quietly, as the signal
        # module's SIGPIPE note advises, with stdout on devnull so the
        # flush at exit raises no second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except json.JSONDecodeError as exc:
        print(f"error: cannot parse JSON input: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
