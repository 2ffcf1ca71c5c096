"""Failure accounting for the CSV the CLI writes.

Every run scores each expected (scenario, method) row.  A row fails if it
is missing, carries ``error:``, has ``sound=false`` (verify), or has a
non-finite ``bound_log`` (bound).  At the default seed it also fails if its
flags differ from the committed reference CSV, or if a numeric field,
including each ``key=value`` of ``intermediates`` that the reference has,
differs from the reference by more than ``REL_TOL`` relative.  A crash or
an exit code other than 0 fails every row of that invocation.

Numbers are parsed with ``decimal`` so that mpmath strings such as
``-6.3e+127510`` count as finite.  One exception to the finiteness rule:
the CLI formats mpmath values through ``float()``, which turns a value
beyond double range into ``-inf`` instead of printing it in full.  The
``orlicz_quasidisc`` bound_log is always that far out (its report carries
``BoundUnderflow``), so ``-inf`` on a ``BoundUnderflow`` row is accepted
and counted separately as ``log_out_of_range``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation

# relative tolerance on every numeric field against the reference CSV;
# BENCHMARK.json states the same value in each workload's ``why``
REL_TOL = Decimal("1e-9")

NUMERIC_COLUMNS = ("bound", "bound_log", "mu_fem", "ratio")
UNDERFLOW_FLAG = "BoundUnderflow"


@dataclass
class Score:
    attempted: int = 0
    failures: list = field(default_factory=list)  # (scenario, method, reason)
    unexpected_rows: int = 0
    log_out_of_range: int = 0

    @property
    def failed(self):
        return len(self.failures)

    def add(self, other):
        self.attempted += other.attempted
        self.failures += other.failures
        self.unexpected_rows += other.unexpected_rows
        self.log_out_of_range += other.log_out_of_range


def parse_csv(text):
    """Header and rows (dicts, keyed by (scenario, method)) of a CLI CSV."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        return [], {}
    header = lines[0].split(",")
    rows = {}
    for line in lines[1:]:
        # the last column (flags) may hold an error message with commas
        row = dict(zip(header, line.split(",", len(header) - 1)))
        rows[(row.get("scenario"), row.get("method"))] = row
    return header, rows


def number(text):
    """The value of a CSV number as a Decimal, or None if it is not one."""
    try:
        return Decimal(text)
    except (InvalidOperation, TypeError):
        return None


def close(a, b):
    """Equal within REL_TOL (non-finite values must match exactly)."""
    if not (a.is_finite() and b.is_finite()):
        return a.compare_total(b) == 0
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _intermediates(text):
    return dict(part.split("=", 1) for part in text.split("|") if "=" in part)


def _reference_mismatch(row, ref):
    if row.get("flags") != ref.get("flags"):
        return f"flags {row.get('flags')!r} != reference {ref.get('flags')!r}"
    for col in NUMERIC_COLUMNS:
        if col not in ref:
            continue
        a, b = number(row.get(col)), number(ref[col])
        if a is None or b is None or not close(a, b):
            return f"{col} {row.get(col)} != reference {ref[col]}"
    if "intermediates" in ref:
        got = _intermediates(row.get("intermediates", ""))
        for key, want in _intermediates(ref["intermediates"]).items():
            if key not in got:
                return f"intermediate {key} missing"
            a, b = number(got[key]), number(want)
            same = close(a, b) if a is not None and b is not None else got[key] == want
            if not same:
                return f"intermediate {key}={got[key]} != reference {want}"
    return None


def score(text, expected, exit_code, reference=None):
    """Score one CLI invocation.

    ``expected`` lists the (scenario, method) keys of the rows the CLI
    should write; ``reference`` is the reference CSV text, or None when the
    seed has none.
    """
    result = Score(attempted=len(expected))
    if exit_code != 0:
        result.failures = [(*key, f"exit code {exit_code}") for key in expected]
        return result
    _, rows = parse_csv(text)
    ref_rows = parse_csv(reference)[1] if reference is not None else {}
    result.unexpected_rows = len(set(rows) - set(expected))
    for key in expected:
        row = rows.get(key)
        reason = None
        if row is None:
            reason = "missing"
        elif "error:" in row.get("flags", ""):
            reason = row["flags"]
        elif row.get("sound", "true") != "true":
            reason = f"sound={row.get('sound')}"
        elif "bound_log" in row:
            value = number(row["bound_log"])
            flags = row.get("flags", "").split(";")
            if value is not None and value.is_infinite() and value < 0 and UNDERFLOW_FLAG in flags:
                result.log_out_of_range += 1
            elif value is None or not value.is_finite():
                reason = f"bound_log={row['bound_log']}"
        if reason is None and row is not None and reference is not None:
            ref = ref_rows.get(key)
            reason = "missing from reference" if ref is None else _reference_mismatch(row, ref)
        if reason is not None:
            result.failures.append((*key, reason))
    return result
