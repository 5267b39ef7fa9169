"""Lock-discipline static analyzer: STG2xx diagnostics over the AST model.

Four checks run over the :class:`~repro.analysis.callgraph.CodeModel`:

* **STG201 — lock-order cycles.**  Acquiring ``B`` while holding ``A``
  (directly, or by calling a method whose transitive "may acquire" summary
  contains ``B``) adds the edge ``A -> B`` to a global order graph; any
  strongly connected component with a cycle is a potential deadlock.
* **STG202 — mixed guarded/unguarded writes.**  An attribute written both
  under a lock of its class and with no lock held is a data-race
  candidate; the unguarded sites are reported unless carrying a
  ``# lockcheck: ok(<reason>)`` suppression.
* **STG203 — bare ``.acquire()``.**  An ``acquire`` outside a ``with``
  whose release is not pinned in an immediately following ``finally``
  leaks the lock on any exception in between.
* **STG204 — blocking under a lock.**  A primitively blocking call
  (``join``, ``Condition.wait``, ``time.sleep``, file/socket I/O, …) — or
  a call to a method that transitively may block — while holding a lock
  stalls every other thread contending for it.  Waiting on a condition
  while holding *only* that condition's own lock is the intended condvar
  pattern and exempt, also when the wait sits behind a helper: a method's
  summary carries the one lock its callers may hold across it.

Findings flow through the compiler's diagnostics machinery
(:class:`~repro.compiler.diagnostics.LintReport`), and the committed
baseline (``src/repro/analysis/BASELINE.json``) holds triaged pre-existing
findings so ``repro lint --concurrency`` gates only on regressions: a
finding is matched against the baseline by its stable ``(code, where)``
fingerprint, never by line number.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.callgraph import CodeModel, MethodModel, build_model, build_model_from_sources
from repro.compiler.diagnostics import Diagnostic, LintReport

__all__ = [
    "BaselineEntry",
    "analyze_model",
    "analyze_path",
    "analyze_source",
    "apply_baseline",
    "default_baseline_path",
    "load_baseline",
    "write_baseline",
]


def default_baseline_path() -> Path:
    """The committed baseline shipped with the analysis package."""
    return Path(__file__).resolve().parent / "BASELINE.json"


# ---------------------------------------------------------------------------
# Check 1: lock-order cycles (STG201)
# ---------------------------------------------------------------------------
def _may_acquire(model: CodeModel) -> dict[str, set[str]]:
    """Fixpoint: locks each method may acquire, directly or via calls."""
    resolved_calls: dict[str, list[str]] = {
        qual: [t for call in m.calls for t in model.resolve_call(m, call)]
        for qual, m in model.methods.items()
    }
    summary: dict[str, set[str]] = {
        qual: {a.lock for a in m.acquires} for qual, m in model.methods.items()
    }
    changed = True
    while changed:
        changed = False
        for qual, callees in resolved_calls.items():
            mine = summary[qual]
            before = len(mine)
            for callee in callees:
                mine |= summary.get(callee, set())
            if len(mine) != before:
                changed = True
    return summary


def _order_edges(model: CodeModel, may_acquire: dict[str, set[str]]
                 ) -> dict[tuple[str, str], tuple[str, int]]:
    """``(holder, acquired) -> (method qualname, lineno)`` provenance."""
    edges: dict[tuple[str, str], tuple[str, int]] = {}
    for qual, method in model.methods.items():
        for acq in method.acquires:
            for held in acq.held:
                if held != acq.lock:
                    edges.setdefault((held, acq.lock), (qual, acq.lineno))
        for call in method.calls:
            if not call.held:
                continue
            for callee in model.resolve_call(method, call):
                for lock in may_acquire.get(callee, ()):
                    for held in call.held:
                        if held != lock:
                            edges.setdefault((held, lock), (qual, call.lineno))
    return edges


def _check_lock_order(model: CodeModel, report: LintReport) -> None:
    edges = _order_edges(model, _may_acquire(model))
    graph: dict[str, set[str]] = {}
    for holder, acquired in edges:
        graph.setdefault(holder, set()).add(acquired)
    seen_cycles: set[tuple[str, ...]] = set()
    for start in sorted(graph):
        stack: list[tuple[str, list[str]]] = [(start, [start])]
        while stack:
            node, path = stack.pop()
            for succ in sorted(graph.get(node, ())):
                if succ == start:
                    cycle = path + [start]
                    key = tuple(sorted(cycle[:-1]))
                    if key in seen_cycles:
                        continue
                    seen_cycles.add(key)
                    sites = "; ".join(
                        f"{a}->{b} at {edges[(a, b)][0]}:{edges[(a, b)][1]}"
                        for a, b in zip(cycle, cycle[1:])
                        if (a, b) in edges
                    )
                    report.add(
                        "STG201",
                        f"lock-order cycle {' -> '.join(cycle)} ({sites})",
                        where="cycle:" + "->".join(sorted(cycle[:-1])),
                    )
                elif succ not in path:
                    stack.append((succ, path + [succ]))


# ---------------------------------------------------------------------------
# Check 2: mixed guarded/unguarded writes (STG202)
# ---------------------------------------------------------------------------
def _check_guarded_writes(model: CodeModel, report: LintReport) -> None:
    for qual_cls in sorted(model.classes):
        cls = model.classes[qual_cls]
        if not cls.locks:
            continue
        class_locks = {site.key for site in cls.locks.values()}
        class_locks |= {model.canonical(site.key) for site in cls.locks.values()}
        guarded: dict[str, bool] = {}
        unguarded: dict[str, list[tuple[MethodModel, int, str | None]]] = {}
        for method in cls.methods.values():
            if method.name == "__init__":
                continue  # construction happens-before sharing
            for write in method.writes:
                if write.attr in cls.locks:
                    continue
                if any(h in class_locks for h in write.held):
                    guarded[write.attr] = True
                elif not write.held:
                    unguarded.setdefault(write.attr, []).append(
                        (method, write.lineno, write.suppressed)
                    )
        for attr in sorted(set(guarded) & set(unguarded)):
            for method, lineno, suppressed in unguarded[attr]:
                if suppressed is not None:
                    continue
                report.add(
                    "STG202",
                    f"attribute {attr!r} written under {qual_cls.rsplit('.', 1)[1]}'s "
                    f"lock elsewhere but unguarded here (line {lineno})",
                    where=method.qualname,
                )


# ---------------------------------------------------------------------------
# Check 3: bare .acquire() (STG203)
# ---------------------------------------------------------------------------
def _check_bare_acquire(model: CodeModel, report: LintReport) -> None:
    for qual in sorted(model.methods):
        method = model.methods[qual]
        for acq in method.acquires:
            if acq.bare and not acq.safe:
                report.add(
                    "STG203",
                    f"bare {acq.lock}.acquire() without with/finally release "
                    f"(line {acq.lineno}) leaks the lock on exception",
                    where=method.qualname,
                )


# ---------------------------------------------------------------------------
# Check 4: blocking while holding a lock (STG204)
# ---------------------------------------------------------------------------
def _may_block(model: CodeModel) -> dict[str, tuple[str, str | None]]:
    """Fixpoint: method qualname -> ``(reason, own_lock)`` when it may block.

    ``reason`` renders the first blocking path found.  ``own_lock`` is the
    condvar lock every blocking path waits on, so a caller holding only it
    is exempt; it is ``None`` once any path blocks some other way (or on
    another condition), and then every held lock is a finding.
    """
    summary: dict[str, tuple[str, str | None]] = {}

    def merge(qual: str, reason: str, own: str | None) -> bool:
        old = summary.get(qual)
        new = (reason, own) if old is None else (old[0], old[1] if old[1] == own else None)
        summary[qual] = new
        return new != old

    for qual, method in model.methods.items():
        for block in method.blocking:
            merge(qual, block.what, block.own_lock)
    resolved_calls: dict[str, list[tuple[str, str]]] = {
        qual: [(t, call.name) for call in m.calls for t in model.resolve_call(m, call)]
        for qual, m in model.methods.items()
    }
    changed = True
    while changed:
        changed = False
        for qual, callees in resolved_calls.items():
            for callee, name in callees:
                if callee in summary:
                    reason, own = summary[callee]
                    changed |= merge(qual, f"{name} -> {reason}", own)
    return summary


def _check_blocking(model: CodeModel, report: LintReport) -> None:
    may_block = _may_block(model)
    for qual in sorted(model.methods):
        method = model.methods[qual]
        for block in method.blocking:
            if not block.held or block.suppressed is not None:
                continue
            foreign = [h for h in block.held if block.own_lock is None or h != block.own_lock]
            if not foreign:
                continue  # condvar wait holding only its own lock
            report.add(
                "STG204",
                f"blocking call {block.what} (line {block.lineno}) while "
                f"holding {foreign!r}",
                where=method.qualname,
            )
        for call in method.calls:
            if not call.held or call.suppressed is not None:
                continue
            for callee in model.resolve_call(method, call):
                if callee not in may_block:
                    continue
                # Direct blocking at this site is already reported above;
                # the transitive pass covers callees that block deeper down.
                reason, own = may_block[callee]
                if all(h == own for h in call.held):
                    continue  # condvar wait behind a helper, holding only its lock
                report.add(
                    "STG204",
                    f"call {call.name} (line {call.lineno}) may block "
                    f"({reason}) while holding {list(call.held)!r}",
                    where=method.qualname,
                )
                break


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def analyze_model(model: CodeModel, subject: str = "concurrency") -> LintReport:
    """Run every lock-discipline check over ``model``."""
    report = LintReport(subject=subject)
    _check_lock_order(model, report)
    _check_guarded_writes(model, report)
    _check_bare_acquire(model, report)
    _check_blocking(model, report)
    # Deterministic output independent of traversal order.
    report.diagnostics.sort(key=lambda d: (d.code, d.where, d.message))
    return report


def analyze_path(root: Path | str) -> LintReport:
    """Analyze every ``.py`` file under ``root`` (normally ``src/repro``)."""
    return analyze_model(build_model(root), subject=str(root))


def analyze_source(source: str, module: str = "mod") -> LintReport:
    """Analyze a single in-memory module (mutation tests / tooling)."""
    return analyze_model(build_model_from_sources({module: source}), subject=module)


# ---------------------------------------------------------------------------
# Baseline: triaged pre-existing findings, gate on regressions only
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BaselineEntry:
    """One triaged finding: fingerprint plus the human justification."""

    code: str
    where: str
    justification: str

    @property
    def fingerprint(self) -> tuple[str, str]:
        return (self.code, self.where)


def load_baseline(path: Path | str | None = None) -> list[BaselineEntry]:
    """Parse the baseline file (missing file -> empty baseline)."""
    path = Path(path) if path is not None else default_baseline_path()
    if not path.exists():
        return []
    payload = json.loads(path.read_text(encoding="utf-8"))
    return [
        BaselineEntry(
            code=str(e["code"]), where=str(e["where"]),
            justification=str(e.get("justification", "")),
        )
        for e in payload.get("findings", [])
    ]


def write_baseline(report: LintReport, path: Path | str,
                   justification: str = "TODO: justify this triaged finding"
                   ) -> list[BaselineEntry]:
    """Write every finding in ``report`` as a baseline; returns the entries.

    Existing justifications at matching fingerprints are preserved so
    re-generating the file never erases triage notes; genuinely new
    entries get the placeholder ``justification`` for a human to edit.
    """
    path = Path(path)
    existing = {e.fingerprint: e.justification for e in load_baseline(path)}
    seen: set[tuple[str, str]] = set()
    findings = []
    for diag in report.diagnostics:
        fp = (diag.code, diag.where)
        if fp in seen:
            continue
        seen.add(fp)
        findings.append({
            "code": diag.code,
            "where": diag.where,
            "severity": diag.severity,
            "justification": existing.get(fp, justification),
        })
    payload = {
        "_comment": "Triaged pre-existing concurrency findings. The "
                    "`repro lint --concurrency` gate fails only on findings "
                    "NOT fingerprinted here; regenerate with "
                    "`repro lint --concurrency --write-baseline` and add a "
                    "justification for every new entry.",
        "findings": findings,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return [
        BaselineEntry(code=f["code"], where=f["where"], justification=f["justification"])
        for f in findings
    ]


def apply_baseline(report: LintReport, baseline: list[BaselineEntry]
                   ) -> tuple[LintReport, list[Diagnostic], list[BaselineEntry]]:
    """Split ``report`` against ``baseline``.

    Returns ``(new_report, baselined, unused)`` where ``new_report`` holds
    only findings absent from the baseline (what the gate judges),
    ``baselined`` the suppressed ones, and ``unused`` stale baseline
    entries whose finding no longer occurs (candidates for deletion —
    reported, never gating).
    """
    known = {e.fingerprint for e in baseline}
    new_report = LintReport(subject=report.subject)
    baselined: list[Diagnostic] = []
    matched: set[tuple[str, str]] = set()
    for diag in report.diagnostics:
        fp = (diag.code, diag.where)
        if fp in known:
            matched.add(fp)
            baselined.append(diag)
        else:
            new_report.diagnostics.append(diag)
    unused = [e for e in baseline if e.fingerprint not in matched]
    return new_report, baselined, unused
