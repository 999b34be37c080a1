"""Command-line interface: derive identities, verify them against the
reference tables and the independent oracle, and evaluate zeta.

Exit codes: 0 success, 1 verification mismatch, 2 usage/domain errors,
3 I/O errors. The ZETA_DIGITS environment variable overrides the default
precision (40) wherever --digits is not given.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from mpmath import mp

from .derive import (
    IdentitySpec,
    derive_identity,
    first_difference,
    identities_equal,
    identities_from_json_text,
    identities_to_json_text,
)
from .evalzeta import (
    EvalReport,
    eval_identities,
    eval_identity,
    parse_complex_literal,
    supports,
    sum_zeta_m1,
    trivial_zero_report,
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


@dataclass
class RunConfig:
    """Parsed invocation, normalized: depth selection, evaluation point or
    grid, precision, term budget, and output destination."""

    command: str
    p_values: Optional[list[int]] = None
    kmax: int = 64
    digits: int = 40
    s: Optional[tuple[Fraction, Fraction]] = None
    start: Optional[Fraction] = None
    stop: Optional[Fraction] = None
    step: Optional[Fraction] = None
    im: Fraction = Fraction(0)
    fmt: str = "csv"
    out_path: Optional[str] = None
    in_path: Optional[str] = None
    only: Optional[list[str]] = None
    check: Optional[str] = None


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
    """Grid coordinates: decimal or num/den rational."""
    return Fraction(text.strip())


def _default_digits() -> int:
    env = os.environ.get("ZETA_DIGITS")
    if env is None:
        return 40
    try:
        return int(env)
    except ValueError:
        raise ValueError("ZETA_DIGITS must be an integer") from None


def _tolerance(digits: int):
    return mp.mpf(10) ** (-(digits - 5))


def _point_arg(s: tuple[Fraction, Fraction]):
    re_part, im_part = s
    return re_part if im_part == 0 else (re_part, im_part)


def _derive_many(p_values: Sequence[int], kmax: int) -> dict[int, IdentitySpec]:
    """Each depth derived with terms through max(kmax, p + 2): every command
    but `derive` reads r_k from the closed form, so --kmax, which only sets
    how many terms a record stores, cannot make a depth underivable."""
    return {p: derive_identity(p, max(kmax, p + 2)) for p in p_values}


def _choose_depth(specs: dict[int, IdentitySpec], s) -> Optional[IdentitySpec]:
    """Smallest usable depth, preferring the even twin (same identity,
    nominal instead of extended validity)."""
    for p in sorted(specs):
        spec = specs[p]
        if supports(spec, s):
            twin = specs.get(p + 1)
            if p % 2 == 1 and p >= 3 and twin is not None and supports(twin, s):
                return twin
            return spec
    return None


def _depth_for(cfg: RunConfig) -> Callable[[object], Optional[IdentitySpec]]:
    """The depth `eval` and `table` use at a point: the single depth --p
    names, else _choose_depth over p = 1..12 (None where none covers it)."""
    if cfg.p_values:
        if len(cfg.p_values) != 1:
            raise ValueError(f"{cfg.command} expects a single depth, not a range")
        (spec,) = _derive_many(cfg.p_values, cfg.kmax).values()
        return lambda s: spec
    specs = _derive_many(_ALL_DEPTHS, cfg.kmax)
    return lambda s: _choose_depth(specs, s)


# ---- subcommand: derive ----


def cmd_derive(cfg: RunConfig) -> int:
    specs = [derive_identity(p, cfg.kmax) for p in cfg.p_values]
    for spec in specs:
        extended = (
            f", extends to Re s > {spec.extended_validity_re_gt}"
            if spec.extended_validity_re_gt is not None
            else ""
        )
        print(
            f"p={spec.p}: k0={spec.k0}, valid for Re s > "
            f"{spec.validity_re_gt}{extended}"
        )
        print(f"  Q_{spec.p}(s) = {spec.q_poly.to_str('s')}")
        print(f"  r_k = {spec.closed_form.to_str('k')}  (k >= {spec.k0})")
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8") as fh:
            fh.write(identities_to_json_text(specs))
            fh.write("\n")
        print(f"wrote {len(specs)} identities to {cfg.out_path}")
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
        difference = first_difference(spec, ref, min(spec.k_max, 64))
        if difference:
            return False, f"p={spec.p}: {difference}", ()
        if spec.validity_re_gt != ref.validity_re_gt:
            return False, f"p={spec.p}: validity bound differs", ()
        if spec.extended_validity_re_gt != ref.extended_validity_re_gt:
            return False, f"p={spec.p}: extended validity bound differs", ()
    return True, f"{len(specs)} identities match the reference tables exactly", ()


def _check_pairing(specs: list[IdentitySpec], digits: int) -> _Result:
    by_p = {spec.p: spec for spec in specs}
    for p in (3, 5, 7, 9, 11):
        if not identities_equal(by_p[p], by_p[p + 1], by_p[p].k_max):
            return False, f"depths {p} and {p + 1} differ", ()
    return True, "depths (3,4), (5,6), (7,8), (9,10), (11,12) pair up exactly", ()


def _check_trivial_zeros(specs: list[IdentitySpec], digits: int) -> _Result:
    lines, misses, worst = [], [], 0.0
    for spec in specs:
        report = trivial_zero_report(spec, digits)
        if not report:
            lines.append(
                f"p={spec.p}: no trivial zeros inside Re s > {spec.effective_validity}"
            )
        for s, magnitude in report:
            lines.append(f"p={spec.p}: |zeta({s})| = {magnitude:.3e}")
            worst = max(worst, magnitude)
            if not magnitude < _tolerance(digits):
                misses.append(f"{lines[-1]} >= tolerance")
    passed = f"all trivial zeros below tolerance (worst {worst:.3e})"
    return _verdict(misses, passed, lines)


def _off_target(p: int, name: str, report: EvalReport, target, digits: int):
    """|value - target| for depth p's value of name, and the miss, if any:
    a value passes inside the tolerance and inside its error estimate plus
    10^-(digits+9), which covers the target's rounding at digits + 10."""
    diff = abs(report.value - target)
    bound = mp.mpf(report.error_estimate) + mp.mpf(10) ** (-(digits + 9))
    if diff < _tolerance(digits) and diff <= bound:
        return diff, []
    estimate = f"{report.error_estimate:.3e}"
    return diff, [f"p={p}: {name} off by {mp.nstr(diff, 3)} (error estimate {estimate})"]


def _exact_value(
    specs: list[IdentitySpec], s: int, target, digits: int, passed: str, label: str = ""
) -> _Result:
    """Check each depth's zeta(s) against an exact target (_off_target). A
    label adds the target and the largest difference to the value lines."""
    lines, misses, worst = [], [], mp.mpf(0)
    for spec, report in zip(specs, eval_identities(specs, s, digits)):
        lines.append(f"p={spec.p}: zeta({s}) = {mp.nstr(mp.re(report.value), digits)}")
        diff, miss = _off_target(spec.p, f"zeta({s})", report, target, digits)
        worst = max(worst, diff)
        misses += miss
    if label:
        lines.append(f"{label:<10} = {mp.nstr(target, digits)}")
        lines.append(f"difference = {mp.nstr(worst, 3)}")
    return _verdict(misses, passed, lines)


def _check_zeta0(specs: list[IdentitySpec], digits: int) -> _Result:
    passed = f"zeta(0) = -1/2 for p = {specs[0].p}..{specs[-1].p}"
    return _exact_value(specs, 0, -mp.mpf(1) / 2, digits, passed)


def _check_zeta2(specs: list[IdentitySpec], digits: int) -> _Result:
    depths = ", ".join(str(spec.p) for spec in specs)
    passed = f"zeta(2) = pi^2/6 through the depth-{depths} series"
    return _exact_value(specs, 2, mp.pi**2 / 6, digits, passed, "pi^2/6")


def _check_zetaprime0(specs: list[IdentitySpec], digits: int) -> _Result:
    target = -mp.log(2 * mp.pi) / 2
    reports = {spec.p: zeta_prime_at_zero(spec, digits) for spec in specs}
    values = [mp.re(report.value) for report in reports.values()]
    lines = [f"p={p}: zeta'(0) = {mp.nstr(v, digits)}" for p, v in zip(reports, values)]
    lines.append(f"-log(2*pi)/2 = {mp.nstr(target, digits)}")
    listed = " and ".join(f"p={p}" for p in reports)
    # the depths must agree with each other as well as with the target
    spread = max(values) - min(values)
    misses = [] if spread < _tolerance(digits) else [f"{listed} disagree by {mp.nstr(spread, 3)}"]
    for p, report in reports.items():
        misses += _off_target(p, "zeta'(0)", report, target, digits)[1]
    return _verdict(misses, f"zeta'(0) = -log(2*pi)/2 from {listed}", lines)


def _check_sum_identity(specs: list[IdentitySpec], digits: int) -> _Result:
    total = sum_zeta_m1(digits)
    diff = abs(total - 1)
    lines = [
        f"sum_(k>=2) (zeta(k) - 1) = {mp.nstr(total, digits)}",
        f"difference from 1 = {mp.nstr(diff, 3)}",
    ]
    if not diff < mp.mpf(10) ** (-digits):
        return False, f"sum_k (zeta(k)-1) off 1 by {mp.nstr(diff, 3)}", lines
    return True, "sum_{k>=2} (zeta(k) - 1) = 1", lines


def _check_oracle(specs: list[IdentitySpec], digits: int) -> _Result:
    misses, diffs = [], []
    for point in ORACLE_GRID:
        arg = _point_arg((Fraction(point.real), Fraction(point.imag)))
        reference = zeta_em_reference(arg, digits)
        batch = [spec for spec in specs if supports(spec, arg)]
        for spec, report in zip(batch, eval_identities(batch, arg, digits)):
            diffs.append(abs(report.value - reference))
            if not diffs[-1] < _tolerance(digits):
                misses.append(
                    f"s={point}, p={spec.p}: identity and direct summation "
                    f"differ by {mp.nstr(diffs[-1], 3)}"
                )
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


def _verify_specs(cfg: RunConfig, names: list[str]) -> dict[str, list[IdentitySpec]]:
    """The identities each named check reads, from one source: the records
    of --in FILE, else fresh derivations, each depth once. From FILE,
    `coefficients` reads every record and each other check its own depths,
    which FILE must hold."""
    records = None
    if cfg.in_path:
        with open(cfg.in_path, "r", encoding="utf-8") as fh:
            records = identities_from_json_text(fh.read())
        source = {spec.p: spec for spec in records}
    else:
        wanted = {p for name in names for p in _CHECKS[name].depths}
        source = _derive_many(sorted(wanted), cfg.kmax)
    specs = {}
    for name in names:
        if name == "coefficients" and records is not None:
            specs[name] = records
            continue
        missing = [p for p in _CHECKS[name].depths if p not in source]
        if missing:
            raise ValueError(f"{cfg.in_path} has no depth-{missing[0]} identity; {name} reads it")
        specs[name] = [source[p] for p in _CHECKS[name].depths]
    return specs


def cmd_verify(cfg: RunConfig) -> int:
    names = cfg.only or (["coefficients"] if cfg.in_path else list(_CHECK_NAMES))
    specs = _verify_specs(cfg, names)
    failures = 0
    for name in names:
        with mp.workdps(cfg.digits + 10):
            ok, detail, _ = _CHECKS[name].run(specs[name], cfg.digits)
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        if not ok:
            failures += 1
    return 1 if failures else 0


def cmd_special(cfg: RunConfig) -> int:
    depths = _CHECKS[cfg.check].depths
    if cfg.p_values and depths:  # a check that reads no identity ignores --p
        depths = cfg.p_values
    specs = list(_derive_many(depths, cfg.kmax).values())
    with mp.workdps(cfg.digits + 10):
        ok, _, lines = _CHECKS[cfg.check].run(specs, cfg.digits)
    print(*lines, "PASS" if ok else "FAIL", sep="\n")
    return 0 if ok else 1


# ---- subcommand: eval ----


def cmd_eval(cfg: RunConfig) -> int:
    arg = _point_arg(cfg.s)
    spec = _depth_for(cfg)(arg)
    if spec is None:
        raise ValueError(
            f"no identity with p <= {MAX_REFERENCE_DEPTH} covers "
            f"Re s = {float(cfg.s[0])}"
        )
    report = eval_identity(spec, arg, cfg.digits)
    with mp.workdps(cfg.digits + 10):
        if mp.im(report.value) == 0:
            print(f"zeta(s) = {mp.nstr(mp.re(report.value), cfg.digits)}")
        else:
            print(f"zeta(s) = {mp.nstr(report.value, cfg.digits)}")
    print(
        f"p = {report.p_used}, terms used through k = {report.terms_used}, "
        f"error estimate <= {report.error_estimate:.3e}"
    )
    return 0


# ---- subcommand: table ----


def _grid_points(cfg: RunConfig) -> list[tuple[Fraction, Fraction]]:
    if cfg.step <= 0:
        raise ValueError("grid step must be positive")
    if cfg.stop < cfg.start:
        raise ValueError("grid stop must not precede start")
    points = []
    j = 0
    while True:
        s_re = cfg.start + j * cfg.step
        if s_re > cfg.stop:
            break
        points.append((s_re, cfg.im))
        j += 1
    return points


def _decimal(x: Fraction, digits: int) -> str:
    """x to digits significant digits, at any magnitude: no float round trip."""
    return mp.nstr(mp.mpf(x.numerator) / x.denominator, digits)


def cmd_table(cfg: RunConfig) -> int:
    points = _grid_points(cfg)
    depth_for = _depth_for(cfg)
    rows = []
    with mp.workdps(cfg.digits + 10):
        for s in points:
            arg = _point_arg(s)
            try:
                spec = depth_for(arg)
                if spec is None:
                    raise ValueError("no identity covers it")
                report = eval_identity(spec, arg, cfg.digits)
            except ValueError as exc:
                where = f"{_decimal(s[0], cfg.digits)}+{_decimal(s[1], cfg.digits)}i"
                print(f"skipping s = {where}: {exc}", file=sys.stderr)
                continue
            rows.append(
                {
                    "s_re": _decimal(s[0], cfg.digits),
                    "s_im": _decimal(s[1], cfg.digits),
                    "value_re": mp.nstr(mp.re(report.value), cfg.digits),
                    "value_im": mp.nstr(mp.im(report.value), cfg.digits),
                    "terms_used": report.terms_used,
                    "error_estimate": repr(report.error_estimate),
                }
            )
    header = ["s_re", "s_im", "value_re", "value_im", "terms_used", "error_estimate"]
    if cfg.fmt == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8") as fh:
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

    def add_common(sp, with_kmax=True):
        sp.add_argument(
            "--digits",
            type=int,
            default=None,
            help="decimal digits of working target (default 40 or ZETA_DIGITS)",
        )
        if with_kmax:
            sp.add_argument(
                "--kmax",
                type=int,
                default=64,
                help="largest stored series index (default 64)",
            )

    sp = sub.add_parser("derive", help="derive identities and print/store them")
    sp.add_argument("--p", required=True, help='depth or range, e.g. "3" or "1..12"')
    sp.add_argument("--out", default=None, help="write identities as JSON")
    add_common(sp)

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
    add_common(sp)

    sp = sub.add_parser("eval", help="evaluate zeta(s) through an identity")
    sp.add_argument("--p", default=None, help="depth (default: chosen from Re s)")
    sp.add_argument(
        "--s", required=True, help='evaluation point, e.g. "2", "-2.5", "0.5+14.1i"'
    )
    add_common(sp)

    sp = sub.add_parser("table", help="evaluate zeta on a grid, CSV or JSON")
    sp.add_argument("--p", default=None, help="depth (default: chosen per point)")
    sp.add_argument("--start", required=True, help="first real coordinate")
    sp.add_argument("--stop", required=True, help="last real coordinate (inclusive)")
    sp.add_argument("--step", required=True, help="grid spacing (rational)")
    sp.add_argument("--im", default="0", help="imaginary part for all rows")
    sp.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    add_common(sp)

    sp = sub.add_parser("special", help="special-value and series checks")
    sp.add_argument("--check", required=True, choices=_SPECIAL_CHECKS)
    sp.add_argument("--p", default=None, help="depth or range (default per check)")
    add_common(sp)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    digits = args.digits if args.digits is not None else _default_digits()
    cfg = RunConfig(command=args.command, digits=digits)
    if getattr(args, "kmax", None) is not None:
        cfg.kmax = args.kmax
    if getattr(args, "p", None):
        cfg.p_values = parse_p_range(args.p)
    if getattr(args, "s", None):
        cfg.s = parse_complex_literal(args.s)
    for name in ("start", "stop", "step", "im"):
        if getattr(args, name, None) is not None:
            setattr(cfg, name, parse_rational(getattr(args, name)))
    if getattr(args, "fmt", None):
        cfg.fmt = args.fmt
    if getattr(args, "out", None):
        cfg.out_path = args.out
    if getattr(args, "in_path", None):
        cfg.in_path = args.in_path
    if getattr(args, "only", None):
        cfg.only = args.only
    if getattr(args, "check", None):
        cfg.check = args.check
    return cfg


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
        cfg = _config_from_args(args)
        return _HANDLERS[args.command](cfg)
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
