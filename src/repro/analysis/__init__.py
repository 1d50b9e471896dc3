"""repro.analysis — static analysis and runtime invariant checking.

Two halves (see ``docs/ANALYSIS.md``):

* **the project linter** (:mod:`repro.analysis.lint`,
  :mod:`repro.analysis.rules`) — an AST-based pass encoding this repo's
  own invariants: the service locking contract, version-stamp
  discipline of the compiled caches, the observability name registry,
  deterministic core modules, plus the usual hygiene rules.  Run it with ``python -m repro.analysis src/``,
  ``repro lint`` or ``make lint``; it exits non-zero on errors and
  honors ``# repro-lint: disable=RULE`` suppressions.
* **the lock-order checker** (:mod:`repro.analysis.lockcheck`) —
  instrumented lock wrappers that record the per-thread acquisition
  graph and raise on cycles (or on forbidden co-holding), switched into
  ``repro.service`` and ``CrowdCache`` under tests.

On top of the per-file linter sits the **whole-program pass**
(``repro lint --deep``): :mod:`repro.analysis.callgraph` builds the
project call graph, :mod:`repro.analysis.effects` infers transitive
effect sets over it, and :mod:`repro.analysis.deep` runs the four deep
rules (async-blocking-transitive, determinism-transitive,
static-lock-order, wire-taint), each finding carrying a witness call
chain.

The package ``__init__`` stays import-light: the core engine imports
:mod:`~repro.analysis.lockcheck` at module load (for the lock
factories), so the heavier lint machinery is loaded lazily on first
attribute access.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List

from .findings import Finding, Severity
from .lockcheck import (
    LockOrderChecker,
    LockOrderError,
    TrackedLock,
    TrackedRLock,
    checking,
    current_checker,
    install,
    named_lock,
    named_rlock,
    uninstall,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .callgraph import CallGraph
    from .deep import DeepResult
    from .effects import EffectAnalysis
    from .lint import LintResult

__all__ = [
    "CallGraph",
    "DeepResult",
    "EffectAnalysis",
    "Finding",
    "LintResult",
    "LockOrderChecker",
    "LockOrderError",
    "Severity",
    "TrackedLock",
    "TrackedRLock",
    "build_callgraph",
    "checking",
    "current_checker",
    "infer_effects",
    "install",
    "main",
    "named_lock",
    "named_rlock",
    "run_deep",
    "run_lint",
    "uninstall",
]

_LAZY_LINT_EXPORTS = frozenset({"LintResult", "main", "run_lint"})
_LAZY_DEEP_EXPORTS = {
    "CallGraph": "callgraph",
    "build_callgraph": "callgraph",
    "EffectAnalysis": "effects",
    "infer_effects": "effects",
    "DeepResult": "deep",
    "run_deep": "deep",
}


def __getattr__(name: str) -> Any:
    """Lazily expose the lint/deep drivers without importing them eagerly."""
    if name in _LAZY_LINT_EXPORTS:
        from . import lint

        return getattr(lint, name)
    if name in _LAZY_DEEP_EXPORTS:
        import importlib

        module = importlib.import_module(
            f".{_LAZY_DEEP_EXPORTS[name]}", __name__
        )
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> List[str]:
    return sorted(__all__)
