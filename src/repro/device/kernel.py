"""Kernel objects and the launcher.

Seastar's codegen emits CUDA source that is NVRTC-compiled and cached; the
executor then launches those kernels.  Our codegen (``repro.compiler.codegen``)
emits Python source targeting vectorized NumPy; :class:`CompiledKernel` holds
the source plus the compiled callable, and :class:`KernelLauncher` plays the
role of the CUDA launch layer: it compiles generated source (once per
distinct source) and launches the kernels the plans hold.  Every launch is
one ``device.kernel_launch`` interval of the
telemetry spine: launch counts and seconds are that site's device totals
(``device.totals.read()``), the per-tier latency histogram and the trace
span are derived from the same record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.spine import span
from repro.resilience.faults import current_injector

__all__ = ["CompiledKernel", "KernelLauncher"]


@dataclass
class CompiledKernel:
    """A generated kernel: inspectable source + executable entry point.

    Attributes
    ----------
    name:
        Entry-point symbol in the generated module.
    source:
        The full generated source (kept for debugging / tests, exactly like
        Seastar keeps generated ``.cu`` files).
    fn:
        The executable produced by compiling ``source``.
    arg_names:
        Ordered argument names the executor must supply.
    """

    name: str
    source: str
    fn: Callable[..., Any]
    arg_names: tuple[str, ...]
    meta: dict[str, Any] = field(default_factory=dict)

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self.fn(*args, **kwargs)


def compile_kernel_source(source: str, entry: str, globals_extra: dict[str, Any] | None = None) -> Callable[..., Any]:
    """Compile generated kernel source and return its entry-point callable.

    This is the stand-in for NVRTC: the source is real generated code and
    errors in codegen surface as compile errors here, not silently.
    """
    namespace: dict[str, Any] = {}
    if globals_extra:
        namespace.update(globals_extra)
    code = compile(source, f"<generated kernel {entry}>", "exec")
    exec(code, namespace)  # noqa: S102 - executing our own generated code
    fn = namespace.get(entry)
    if fn is None:
        raise RuntimeError(f"generated source does not define entry point {entry!r}")
    return fn


class KernelLauncher:
    """Compiles generated kernels and launches them.

    Kernels live on the compiler's plans (``repro.compiler.plan_cache()`` is
    the cache a re-traced vertex-centric function hits).  :meth:`compile`
    deduplicates at the *source* level: two compilation requests
    with byte-identical generated source (and the same
    entry point) share one :class:`CompiledKernel`, so e.g. plans that differ
    only in a specialization attribute never pay for ``compile()``/``exec``
    twice.  ``compile_count`` counts actual compilations and
    ``source_dedup_hits`` counts requests served from the source cache.
    """

    def __init__(self) -> None:
        self._by_source: dict[tuple[str, str], CompiledKernel] = {}
        self.compile_count = 0
        self.source_dedup_hits = 0
        #: launches per execution tier (a kernel's ``meta["tier"]``; the
        #: generated kernels are all "python") — lets benchmarks verify
        #: which tier actually ran.
        self.launches_by_tier: dict[str, int] = {}

    def compile(
        self,
        source: str,
        entry: str,
        globals_extra: dict[str, Any] | None = None,
        meta: dict[str, Any] | None = None,
    ) -> CompiledKernel:
        """Compile ``source`` into a launchable kernel, deduplicating by source.

        Identical (entry, source) pairs return the *same* kernel object
        without recompiling — the NVRTC-cache analogue at the source level.
        """
        key = (entry, source)
        kernel = self._by_source.get(key)
        if kernel is not None:
            self.source_dedup_hits += 1
            return kernel
        fn = compile_kernel_source(source, entry, globals_extra=globals_extra)
        kernel = CompiledKernel(
            name=entry, source=source, fn=fn, arg_names=(), meta=dict(meta or {})
        )
        self._by_source[key] = kernel
        self.compile_count += 1
        return kernel

    def launch(self, kernel: CompiledKernel, *args: Any, **kwargs: Any) -> Any:
        """Execute a kernel as one ``device.kernel_launch`` interval.

        The ``kernel=`` attr is the entry point — which embeds the plan id
        (``plan_<hash>_fwd`` etc.), so traces attribute kernel time to
        specific compiled plans; a launch that raises is still counted.

        An armed fault injector (``use_fault_plan``) can fail the launch
        here with :class:`~repro.resilience.faults.InjectedKernelFault`; the
        aggregation layer's degradation ladder retries once and then falls
        back to the interpreter engine (see ``repro.core.module``).
        """
        injector = current_injector()
        if injector.enabled:
            injector.fire("kernel")
        tier = kernel.meta.get("tier", "python")
        self.launches_by_tier[tier] = self.launches_by_tier.get(tier, 0) + 1
        with span("device.kernel_launch", kernel=kernel.name, tier=tier):
            return kernel(*args, **kwargs)

    def clear(self) -> None:
        """Drop the source cache and reset launch/compile counters."""
        self._by_source.clear()
        self.compile_count = 0
        self.source_dedup_hits = 0
        self.launches_by_tier.clear()
