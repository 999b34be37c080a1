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
from typing import Optional, Sequence

from mpmath import mp

from .derive import (
    IdentitySpec,
    derive_identity,
    identities_equal,
    identities_from_json_text,
    identities_to_json_text,
)
from .evalzeta import (
    CapacityError,
    PoleError,
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

_CHECK_NAMES = (
    "coefficients",
    "pairing",
    "trivial_zeros",
    "zeta0",
    "zetaprime0",
    "zeta2",
    "sum_identity",
    "oracle",
)

_SPECIAL_CHECKS = ("zeta0", "zetaprime0", "zeta2", "sum_identity", "trivial_zeros")

# Cross-check grid: real axis spans the deepest reachable strip; complex
# points keep Re large enough that the oracle's fixed Euler-Maclaurin
# schedule stays below the comparison tolerance (see zeta_em_reference).
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
    return {p: derive_identity(p, kmax) for p in p_values}


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


# ---- subcommand: verify ----


def _first_mismatch(derived: IdentitySpec, ref: IdentitySpec, k_max: int) -> str:
    if derived.pole_coefficient != ref.pole_coefficient:
        return (
            f"pole coefficient {derived.pole_coefficient} != "
            f"{ref.pole_coefficient}"
        )
    if derived.q_poly != ref.q_poly:
        return (
            f"Q polynomial ({derived.q_poly.to_str('s')}) != "
            f"({ref.q_poly.to_str('s')})"
        )
    if (
        derived.closed_form is not None
        and ref.closed_form is not None
        and derived.closed_form != ref.closed_form
    ):
        return (
            f"closed form r_k = ({derived.closed_form.to_str('k')}) != "
            f"({ref.closed_form.to_str('k')})"
        )
    for k in range(min(derived.k0, ref.k0), k_max + 1):
        a = derived.series_coefficient(k)
        b = ref.series_coefficient(k)
        if a != b:
            return f"k={k}: coefficient {a} != reference {b}"
    return "no mismatch found"


def _check_coefficients(cfg: RunConfig, derived: dict[int, IdentitySpec]) -> tuple[bool, str]:
    if cfg.in_path:
        with open(cfg.in_path, "r", encoding="utf-8") as fh:
            specs = identities_from_json_text(fh.read())
    else:
        specs = list(derived.values())
    if not specs:
        return False, "no identities to check"
    for spec in specs:
        if not 1 <= spec.p <= MAX_REFERENCE_DEPTH:
            return False, f"p={spec.p}: no reference table beyond depth 12"
        k_cap = min(spec.k_max, 64)
        ref = reference_identity(spec.p, spec.k_max)
        if not identities_equal(spec, ref, k_cap):
            return False, f"p={spec.p}: {_first_mismatch(spec, ref, k_cap)}"
        if spec.validity_re_gt != ref.validity_re_gt:
            return False, f"p={spec.p}: validity bound differs"
    return True, f"{len(specs)} identities match the reference tables exactly"


def _check_pairing(cfg: RunConfig, derived: dict[int, IdentitySpec]) -> tuple[bool, str]:
    for j in range(2, 7):
        odd, even = derived[2 * j - 1], derived[2 * j]
        if not identities_equal(odd, even, cfg.kmax):
            return False, f"depths {2 * j - 1} and {2 * j} differ"
    return True, "depths (3,4), (5,6), (7,8), (9,10), (11,12) pair up exactly"


def _check_trivial_zeros(cfg: RunConfig, specs: dict[int, IdentitySpec]) -> tuple[bool, str]:
    tol = _tolerance(cfg.digits)
    worst = 0.0
    for p, spec in specs.items():
        for s, magnitude in trivial_zero_report(spec, cfg.digits):
            worst = max(worst, magnitude)
            if not magnitude < tol:
                return False, f"p={p}: |zeta({s})| = {magnitude:.3e} >= tolerance"
    return True, f"all trivial zeros below tolerance (worst {worst:.3e})"


def _check_zeta0(cfg: RunConfig, specs: dict[int, IdentitySpec]) -> tuple[bool, str]:
    tol = _tolerance(cfg.digits)
    with mp.workdps(cfg.digits + 10):
        reports = eval_identities(list(specs.values()), 0, cfg.digits)
        for p, report in zip(specs, reports):
            diff = abs(report.value + mp.mpf(1) / 2)
            if not diff < tol:
                return False, f"p={p}: zeta(0) off by {mp.nstr(diff, 3)}"
    return True, f"zeta(0) = -1/2 for p = 2..{max(specs)}"


def _check_zetaprime0(cfg: RunConfig, specs: dict[int, IdentitySpec]) -> tuple[bool, str]:
    tol = _tolerance(cfg.digits)
    with mp.workdps(cfg.digits + 10):
        target = -mp.log(2 * mp.pi) / 2
        v2 = zeta_prime_at_zero(specs[2], cfg.digits)
        v3 = zeta_prime_at_zero(specs[3], cfg.digits)
        if not abs(v2 - v3) < tol:
            return False, f"p=2 and p=3 disagree by {mp.nstr(abs(v2 - v3), 3)}"
        if not abs(v2 - target) < tol:
            return False, f"off -log(2*pi)/2 by {mp.nstr(abs(v2 - target), 3)}"
    return True, "zeta'(0) = -log(2*pi)/2 from p=2 and p=3"


def _check_zeta2(cfg: RunConfig, specs: dict[int, IdentitySpec]) -> tuple[bool, str]:
    tol = _tolerance(cfg.digits)
    with mp.workdps(cfg.digits + 10):
        value = eval_identity(specs[5], 2, cfg.digits).value
        diff = abs(value - mp.pi**2 / 6)
        if not diff < tol:
            return False, f"zeta(2) off pi^2/6 by {mp.nstr(diff, 3)}"
    return True, "zeta(2) = pi^2/6 through the depth-5 series"


def _check_sum_identity(cfg: RunConfig) -> tuple[bool, str]:
    with mp.workdps(cfg.digits + 10):
        total = sum_zeta_m1(cfg.digits)
        diff = abs(total - 1)
        if not diff < mp.mpf(10) ** (-cfg.digits):
            return False, f"sum_k (zeta(k)-1) off 1 by {mp.nstr(diff, 3)}"
    return True, "sum_{k>=2} (zeta(k) - 1) = 1"


def _check_oracle(cfg: RunConfig, specs: dict[int, IdentitySpec]) -> tuple[bool, str]:
    tol = _tolerance(cfg.digits)
    worst = mp.mpf(0)
    count = 0
    with mp.workdps(cfg.digits + 10):
        for point in ORACLE_GRID:
            s = (Fraction(point.real), Fraction(point.imag))
            arg = _point_arg(s)
            reference = zeta_em_reference(arg, cfg.digits)
            batch = [spec for spec in specs.values() if supports(spec, arg)]
            for spec, report in zip(batch, eval_identities(batch, arg, cfg.digits)):
                diff = abs(report.value - reference)
                count += 1
                if diff > worst:
                    worst = diff
                if not diff < tol:
                    return False, (
                        f"s={point}, p={spec.p}: identity and direct summation "
                        f"differ by {mp.nstr(diff, 3)}"
                    )
    return True, (
        f"{count} (s, p) evaluations match direct summation "
        f"(worst {mp.nstr(worst, 3)})"
    )


def cmd_verify(cfg: RunConfig) -> int:
    names = list(cfg.only) if cfg.only else list(_CHECK_NAMES)
    if cfg.in_path and not cfg.only:
        names = ["coefficients"]
    # derived once for every check that reads them
    reads_derived = set(names) - {"sum_identity"}
    if cfg.in_path:
        reads_derived.discard("coefficients")
    derived: dict[int, IdentitySpec] = {}
    if reads_derived:
        derived = _derive_many(range(1, MAX_REFERENCE_DEPTH + 1), cfg.kmax)
    # the evaluation checks use the depths valid at s = 0
    specs = {p: spec for p, spec in derived.items() if p >= 2}
    failures = 0
    for name in names:
        if name == "coefficients":
            ok, detail = _check_coefficients(cfg, derived)
        elif name == "pairing":
            ok, detail = _check_pairing(cfg, derived)
        elif name == "trivial_zeros":
            ok, detail = _check_trivial_zeros(cfg, specs)
        elif name == "zeta0":
            ok, detail = _check_zeta0(cfg, specs)
        elif name == "zetaprime0":
            ok, detail = _check_zetaprime0(cfg, specs)
        elif name == "zeta2":
            ok, detail = _check_zeta2(cfg, specs)
        elif name == "sum_identity":
            ok, detail = _check_sum_identity(cfg)
        elif name == "oracle":
            ok, detail = _check_oracle(cfg, specs)
        else:
            raise ValueError(f"unknown check {name!r}; choose from {_CHECK_NAMES}")
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        if not ok:
            failures += 1
    return 1 if failures else 0


# ---- subcommand: eval ----


def _single_depth(cfg: RunConfig) -> Optional[int]:
    if not cfg.p_values:
        return None
    if len(cfg.p_values) != 1:
        raise ValueError(f"{cfg.command} expects a single depth, not a range")
    return cfg.p_values[0]


def cmd_eval(cfg: RunConfig) -> int:
    arg = _point_arg(cfg.s)
    p = _single_depth(cfg)
    if p is not None:
        spec = derive_identity(p, cfg.kmax)
    else:
        specs = _derive_many(range(1, MAX_REFERENCE_DEPTH + 1), cfg.kmax)
        spec = _choose_depth(specs, arg)
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


def cmd_table(cfg: RunConfig) -> int:
    points = _grid_points(cfg)
    p = _single_depth(cfg)
    if p is not None:
        specs = _derive_many([p], cfg.kmax)
    else:
        specs = _derive_many(range(1, MAX_REFERENCE_DEPTH + 1), cfg.kmax)
    rows = []
    with mp.workdps(cfg.digits + 10):
        for s in points:
            arg = _point_arg(s)
            if p is not None:
                spec = specs[p]
            else:
                spec = _choose_depth(specs, arg)
                if spec is None:
                    print(
                        f"skipping s = {float(s[0])}+{float(s[1])}i: "
                        f"no identity covers it",
                        file=sys.stderr,
                    )
                    continue
            try:
                report = eval_identity(spec, arg, cfg.digits)
            except (PoleError, ValueError) as exc:
                print(
                    f"skipping s = {float(s[0])}+{float(s[1])}i: {exc}",
                    file=sys.stderr,
                )
                continue
            rows.append(
                {
                    "s_re": mp.nstr(mp.mpf(s[0].numerator) / s[0].denominator, cfg.digits),
                    "s_im": mp.nstr(mp.mpf(s[1].numerator) / s[1].denominator, cfg.digits),
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


# ---- subcommand: special ----


def cmd_special(cfg: RunConfig) -> int:
    digits = cfg.digits
    tol = _tolerance(digits)
    p_list = cfg.p_values or list(range(2, MAX_REFERENCE_DEPTH + 1))
    ok = True
    with mp.workdps(digits + 10):
        if cfg.check == "zeta0":
            for p in p_list:
                spec = derive_identity(p, cfg.kmax)
                value = eval_identity(spec, 0, digits).value
                diff = abs(value + mp.mpf(1) / 2)
                ok = ok and diff < tol
                print(f"p={p}: zeta(0) = {mp.nstr(mp.re(value), digits)}")
        elif cfg.check == "zetaprime0":
            target = -mp.log(2 * mp.pi) / 2
            for p in cfg.p_values or (2, 3):
                spec = derive_identity(p, cfg.kmax)
                value = zeta_prime_at_zero(spec, digits)
                diff = abs(value - target)
                ok = ok and diff < tol
                print(f"p={p}: zeta'(0) = {mp.nstr(value, digits)}")
            print(f"-log(2*pi)/2 = {mp.nstr(target, digits)}")
        elif cfg.check == "zeta2":
            spec = derive_identity(_single_depth(cfg) or 5, cfg.kmax)
            value = eval_identity(spec, 2, digits).value
            target = mp.pi**2 / 6
            diff = abs(value - target)
            ok = diff < tol
            print(f"p={spec.p}: zeta(2) = {mp.nstr(mp.re(value), digits)}")
            print(f"pi^2/6     = {mp.nstr(target, digits)}")
            print(f"difference = {mp.nstr(diff, 3)}")
        elif cfg.check == "sum_identity":
            total = sum_zeta_m1(digits)
            diff = abs(total - 1)
            ok = diff < mp.mpf(10) ** (-digits)
            print(f"sum_(k>=2) (zeta(k) - 1) = {mp.nstr(total, digits)}")
            print(f"difference from 1 = {mp.nstr(diff, 3)}")
        elif cfg.check == "trivial_zeros":
            for p in p_list:
                spec = derive_identity(p, cfg.kmax)
                report = trivial_zero_report(spec, digits)
                if not report:
                    print(f"p={p}: no trivial zeros inside Re s > "
                          f"{spec.effective_validity}")
                for s, magnitude in report:
                    ok = ok and magnitude < tol
                    print(f"p={p}: |zeta({s})| = {magnitude:.3e}")
        else:
            raise ValueError(
                f"unknown special check {cfg.check!r}; choose from {_SPECIAL_CHECKS}"
            )
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


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
    except (PoleError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
