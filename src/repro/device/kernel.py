"""Kernel objects and the launcher.

Seastar's codegen emits CUDA source that is NVRTC-compiled and cached; the
executor then launches those kernels.  Our codegen (``repro.compiler.codegen``)
emits Python source targeting vectorized NumPy; :class:`CompiledKernel` holds
the source plus the compiled callable (built by the compiler when a plan is
built, see ``repro.compiler.codegen.compile_program``), and
:class:`KernelLauncher` plays the role of the CUDA launch layer: it only
launches the kernels the plans hold.  Every launch is one
``device.kernel_launch`` interval of the telemetry spine: launch counts and
seconds are that site's device totals (``device.totals.read()``), the
per-tier latency histogram and the trace span are derived from the same
record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.obs.spine import span
from repro.resilience.faults import current_injector

__all__ = ["CompiledKernel", "KernelLauncher"]

#: the one execution tier: generated Python over vectorized NumPy
_TIER = "python"


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
    """

    name: str
    source: str
    fn: Callable[..., Any]

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
    """Launches generated kernels.

    Kernels live on the compiler's plans (``repro.compiler.plan_cache()`` is
    the cache a re-traced vertex-centric function hits), so a kernel is
    compiled once per plan build, by the compiler and process-wide; the
    launcher never compiles.
    """

    def __init__(self) -> None:
        #: launches per execution tier — lets benchmarks verify which tier
        #: actually ran (every generated kernel is the "python" tier).
        self.launches_by_tier: dict[str, int] = {}

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
        self.launches_by_tier[_TIER] = self.launches_by_tier.get(_TIER, 0) + 1
        with span("device.kernel_launch", kernel=kernel.name, tier=_TIER):
            return kernel(*args, **kwargs)

    def clear(self) -> None:
        """Reset the launch counters."""
        self.launches_by_tier.clear()
