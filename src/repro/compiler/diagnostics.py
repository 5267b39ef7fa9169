"""Diagnostics for the compiler verifier: codes, severities, reports.

Every check in :mod:`repro.compiler.verify` emits a :class:`Diagnostic`
carrying a stable error code (``STG0xx``), a severity, a human-readable
message, and source provenance (which IR node, tensor-IR op, or buffer the
problem anchors to).  Diagnostics accumulate into a :class:`LintReport`;
at plan-build time errors raise :class:`VerifyError` while warnings surface
through the tracer (as ``verify`` instant events) and the run manifest.

The code registry below is the single source of truth: each code has a
fixed default severity and a one-line description (rendered into the
``repro lint`` output and the docs/COMPILER.md error table), and every code
is provoked by at least one mutation test — ``STG0xx`` (compiler verifier)
in ``tests/test_compiler_verify.py``, ``STG2xx`` (the concurrency
lock-discipline analyzer, :mod:`repro.analysis.lockcheck` — see
docs/ANALYSIS.md) in ``tests/test_analysis_lockcheck.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.lower import CompileError

__all__ = [
    "Diagnostic",
    "LintReport",
    "VerifyError",
    "CODES",
    "CONCURRENCY_CODES",
    "ERROR",
    "WARNING",
    "code_table",
]

ERROR = "error"
WARNING = "warning"

#: code -> (default severity, one-line description)
CODES: dict[str, tuple[str, str]] = {
    # -- vertex-IR (VNode DAG) checks ----------------------------------
    "STG001": (ERROR, "vertex IR contains a cycle"),
    "STG002": (ERROR, "stage-algebra violation: stored stage disagrees with the recomputed stage (or malformed op)"),
    "STG003": (ERROR, "aggregation body is a pure destination-stage expression"),
    "STG004": (ERROR, "orphan (unnamed) or duplicate feature leaf"),
    "STG005": (WARNING, "nested aggregation pulled into edge space (legal only at scalar width)"),
    # -- tensor-IR (TProgram) checks -----------------------------------
    "STG010": (ERROR, "buffer assigned more than once (SSA violation)"),
    "STG011": (ERROR, "op reads a buffer before any definition"),
    "STG012": (ERROR, "dangling output / unused input or const"),
    "STG013": (ERROR, "op kind unknown or attr/operand schema violation"),
    "STG014": (ERROR, "buffer missing from the space table"),
    "STG015": (ERROR, "folded vertex scale is not a node-space input of the program"),
    # -- gradient / State-Stack checks ---------------------------------
    "STG020": (ERROR, "differentiable forward input has no gradient output in the backward program"),
    "STG021": (ERROR, "backward saved input not produced by the forward program (F_b ⊆ F_f violated)"),
    "STG022": (ERROR, "backward grad seed does not reference the forward output"),
    # -- write-hazard analysis -----------------------------------------
    "STG030": (ERROR, "non-reduction write from edge space into a node-space buffer (atomic-scatter condition)"),
    # -- concurrency lock-discipline checks (repro.analysis.lockcheck);
    #    each provoked by a mutation test in tests/test_analysis_lockcheck.py
    "STG201": (ERROR, "lock taken while holding a lock: every lock must be a leaf (deadlock risk)"),
    "STG202": (ERROR, "attribute written outside the lock it is written or read under elsewhere (data-race candidate)"),
    "STG203": (ERROR, "bare .acquire() without with/finally release (lock leak on exception)"),
    "STG204": (WARNING, "blocking call while holding a foreign lock (stall/deadlock risk)"),
}

#: The concurrency family (emitted by :mod:`repro.analysis.lockcheck`, not
#: the compiler verifier) — mutation coverage for these lives in
#: ``tests/test_analysis_lockcheck.py``.
CONCURRENCY_CODES: frozenset[str] = frozenset(
    code for code in CODES if code.startswith("STG2")
)


@dataclass(frozen=True)
class Diagnostic:
    """One verifier finding: stable code, severity, message, provenance."""

    code: str
    severity: str
    message: str
    #: source provenance: "%3 mul.edge", "op t4 = spmm(...)", "buffer 'n_h'"
    where: str = ""
    #: program / DAG the finding belongs to (e.g. "gcn", "gcn_bwd")
    program: str = ""

    def render(self) -> str:
        """Single-line form: ``STG010 error [gcn] message (at ...)``."""
        prog = f" [{self.program}]" if self.program else ""
        where = f" (at {self.where})" if self.where else ""
        return f"{self.code} {self.severity}{prog} {self.message}{where}"


class LintReport:
    """Accumulated diagnostics for one verification subject."""

    def __init__(self, subject: str = "") -> None:
        self.subject = subject
        self.diagnostics: list[Diagnostic] = []

    # ------------------------------------------------------------------
    def add(
        self,
        code: str,
        message: str,
        where: str = "",
        program: str = "",
        severity: str | None = None,
    ) -> Diagnostic:
        """Record one finding; severity defaults from the code registry."""
        if code not in CODES:
            raise KeyError(f"unknown diagnostic code {code!r}")
        diag = Diagnostic(
            code=code,
            severity=severity or CODES[code][0],
            message=message,
            where=where,
            program=program,
        )
        self.diagnostics.append(diag)
        return diag

    # ------------------------------------------------------------------
    @property
    def errors(self) -> list[Diagnostic]:
        """Findings at error severity."""
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        """Findings at warning severity."""
        return [d for d in self.diagnostics if d.severity == WARNING]

    def ok(self) -> bool:
        """True when no errors were recorded (warnings allowed)."""
        return not self.errors

    def codes(self) -> set[str]:
        """The set of codes recorded."""
        return {d.code for d in self.diagnostics}

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One-line ``subject: E errors, W warnings`` summary."""
        subject = f"{self.subject}: " if self.subject else ""
        return f"{subject}{len(self.errors)} error(s), {len(self.warnings)} warning(s)"

    def render(self) -> str:
        """Multi-line report: summary followed by one line per finding."""
        lines = [self.summary()]
        lines += [f"  {d.render()}" for d in self.diagnostics]
        return "\n".join(lines)

    def raise_if_errors(self) -> None:
        """Raise :class:`VerifyError` carrying this report if any error."""
        if self.errors:
            raise VerifyError(self)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LintReport({self.summary()!r})"


class VerifyError(CompileError):
    """A verification failure at plan-build (or ``repro lint``) time.

    Subclasses :class:`~repro.compiler.lower.CompileError` so existing
    ``except CompileError`` call sites treat verifier rejections like any
    other refusal to compile.  The full :class:`LintReport` rides along as
    ``.report``.
    """

    def __init__(self, report: LintReport) -> None:
        super().__init__(report.render())
        self.report = report


def code_table() -> list[tuple[str, str, str]]:
    """``(code, default severity, description)`` rows, sorted by code."""
    return [(code, sev, desc) for code, (sev, desc) in sorted(CODES.items())]
