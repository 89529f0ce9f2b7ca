"""RPR301 and RPR303 — numeric-safety rules backed by the interval pass.

The interval-domain interpreter (:mod:`repro.analysis.intervals`) binds
every local to a range over the extended reals, seeded from the
declared physical envelopes in ``constants.PHYSICAL_RANGES`` and
narrowed by branch conditions.  These rules report its diagnostics:

- RPR301: an arithmetic domain violation that is *provable* from the
  intervals — a division whose denominator contains zero, ``log`` of a
  possibly-nonpositive value, ``sqrt`` of a possibly-negative one.
- RPR303: a possibly NaN/inf-producing operation in the hot modules
  (kernels, thermal, power, failure models) inside a function with no
  guard of any kind — no raise/assert, no ``isfinite``/``nan_to_num``/
  ``where``/``errstate``/``clip``, no ``validate_*`` call.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, register


class IntervalRuleBase(Rule):
    """Shared plumbing for the interval-diagnostic-backed rules.

    Subclasses set :attr:`kind` to the diagnostic kind they report; the
    interpretation runs once per file and is shared via
    ``ctx.interval_diagnostics()``.
    """

    kind: str = ""

    def applies_to(self, ctx) -> bool:
        return not ctx.is_test

    def check(self, ctx) -> Iterator[Finding]:
        for diag in ctx.interval_diagnostics():
            if diag.kind == self.kind:
                yield self.finding(ctx, diag.line, diag.col, diag.message)


@register
class ReachableDomainErrorRule(IntervalRuleBase):
    id = "RPR301"
    name = "reachable-domain-error"
    severity = Severity.ERROR
    kind = "domain"
    description = (
        "division, log, or sqrt whose argument interval provably reaches "
        "the operation's domain boundary (zero or negative)"
    )
    rationale = (
        "The RAMP models are chains of Arrhenius exponentials and\n"
        "FIT/MTTF reciprocals.  exp underflows to exactly 0.0 for\n"
        "arguments below about -745, so `1.0 / exp(...)` of an\n"
        "unconstrained operating point is a concrete ZeroDivisionError\n"
        "(scalar) or silent inf (numpy).  The interval pass propagates\n"
        "the declared physical envelopes through the arithmetic; this\n"
        "rule fires only when the computed interval actually contains\n"
        "the bad point, so every finding is a reachable failure, not a\n"
        "style complaint.  Guard with a raising check (which narrows\n"
        "the interval) or the errstate+where idiom (which is exempt)."
    )
    example = (
        "def relative_mttf(temperature_k: float) -> float:\n"
        "    a = math.exp(-EA / (K_B * temperature_k))\n"
        "    return 1.0 / a  # a underflows to 0.0 for cold corners\n"
    )


@register
class UncheckedNanFlowRule(IntervalRuleBase):
    id = "RPR303"
    name = "unchecked-nan-flow"
    severity = Severity.WARNING
    kind = "nanflow"
    description = (
        "possibly NaN/inf-producing operation (unbounded exp, division "
        "by an unconstrained value) in a hot module with no downstream "
        "finite-check or guard"
    )
    rationale = (
        "In repro.kernels / repro.thermal / repro.power /\n"
        "repro.core.failure, a NaN born in one element of a batch\n"
        "survives every subsequent ufunc and poisons the aggregate.\n"
        "RPR301 needs a provable domain violation; this rule covers the\n"
        "residual risk: an exp of an unbounded argument or a division\n"
        "by a value the intervals cannot bound, inside a function that\n"
        "has no guard at all.  Any raise/assert, isfinite/nan_to_num/\n"
        "where/errstate/clip call, or validate_* call in the function\n"
        "counts as a guard and silences the rule — the point is that\n"
        "*somebody* checks, not where."
    )
    example = (
        "def leakage_w(scale):            # hot module, no guards\n"
        "    return BASE_W * np.exp(scale)  # scale unbounded -> inf\n"
    )
