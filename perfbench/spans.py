"""Per-layer spans, installed from outside the package.

Public functions are wrapped at each layer boundary, in every module that
looks them up by name (`cli` imports the `derive` and `evalzeta` functions
into its own namespace). `power` is wrapped on mpmath's context class, so a
call on the global `mp` and one on a cloned context are both counted. Each
wrapped call is a span: its inclusive time, and its self time, which
excludes the time of wrapped calls made directly inside it.
"""

from __future__ import annotations

import sys
from time import process_time as clock

# (metric prefix, module defining the function, function name)
TIMED = (
    ("derive.derive_identity", "derive", "derive_identity"),
    ("derive.closed_form_part", "derive", "closed_form_part"),
    ("derive.fit_closed_form", "derive", "fit_closed_form"),
    ("derive.to_json_text", "derive", "identities_to_json_text"),
    ("derive.from_json_text", "derive", "identities_from_json_text"),
    ("reference.reference_identity", "reference", "reference_identity"),
    ("reference.identities_equal", "derive", "identities_equal"),
    ("evalzeta.eval_identity", "evalzeta", "eval_identity"),
    ("evalzeta.zeta_em_reference", "evalzeta", "zeta_em_reference"),
    ("evalzeta.zeta_prime_at_zero", "evalzeta", "zeta_prime_at_zero"),
    ("evalzeta.sum_zeta_m1", "evalzeta", "sum_zeta_m1"),
    ("evalzeta.trivial_zero_report", "evalzeta", "trivial_zero_report"),
    ("cli.main", "cli", "main"),
)
# Too frequent to time without distorting the times around them: counted only.
COUNTED = (("exactmath.bernoulli", "exactmath", "bernoulli"),)


def _rebind(original, wrapper) -> None:
    """Point every name bound to `original` in a zetaident module at `wrapper`."""
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] != "zetaident" or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


class Tracer:
    """Spans timed in CPU seconds, like every time of the benchmark."""

    def __init__(self) -> None:
        # name -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list] = {}
        self.terms_used = 0
        self.missing: list[str] = []  # traced names the package no longer defines
        self._stack: list[float] = []

    def _timed(self, name: str, fn, on_result=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return span

    def _counted(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])

        def count(*args, **kwargs):
            stats[0] += 1
            return fn(*args, **kwargs)

        return count

    def _add_terms(self, report) -> None:
        self.terms_used += report.terms_used

    def install(self) -> None:
        """Wrap every traced function of the loaded modules wherever the
        package looks it up, for the life of the process. Names a loaded
        module no longer defines read as zero."""
        from mpmath.ctx_mp import MPContext

        for spec in TIMED + COUNTED:
            name, home, func = spec
            module = sys.modules.get("zetaident." + home)
            if module is None:  # this workload never imports it
                continue
            original = getattr(module, func, None)
            if original is None:
                self.missing.append(name)
            elif spec in COUNTED:
                _rebind(original, self._counted(name, original))
            else:
                hook = self._add_terms if func == "eval_identity" else None
                _rebind(original, self._timed(name, original, hook))
        MPContext.power = self._timed("evalzeta.mp_power", MPContext.power)

    def unmeasured(self) -> list[str]:
        """Spans that read as zero because the package moved the work out of
        their reach, not because it did none."""
        out = list(self.missing)
        evals = self.stats.get("evalzeta.eval_identity", [0])[0]
        if evals and not self.stats["evalzeta.mp_power"][0]:
            out.append("evalzeta.mp_power: eval_identity ran, but no mpmath power call "
                       "was counted")
        return out

    def snapshot(self) -> dict:
        """[calls, inclusive s, self s] per span name, zero for names never
        called or no longer defined, plus the summed EvalReport.terms_used."""
        out = {name: [0, 0.0, 0.0] for name, _, _ in TIMED + COUNTED}
        out.update((name, list(v)) for name, v in self.stats.items())
        out["evalzeta.terms_used"] = [self.terms_used, 0.0, 0.0]
        return out
