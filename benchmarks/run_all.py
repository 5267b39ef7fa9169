"""Regenerate every table and figure of the paper's evaluation section.

Prints the paper-style tables/series and (with ``--write``) refreshes the
measured sections of EXPERIMENTS.md.  Scales are controlled by the
environment (see ``repro.bench.experiments``):

    REPRO_BENCH_STATIC_SCALE=1.0 REPRO_BENCH_DYNAMIC_SCALE=0.05 \\
        python benchmarks/run_all.py --write

Defaults keep the full run under ~10 minutes on a laptop.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from repro.bench.experiments import (
    bench_epochs,
    dynamic_scale,
    fig5_static_time,
    fig6_static_memory,
    fig7_dtdg_time,
    fig8_dtdg_memory,
    fig9_time_breakup,
    static_scale,
    table1_capabilities,
    table2_datasets,
    table3_summary,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true", help="refresh EXPERIMENTS.md measured data")
    args = parser.parse_args(argv)

    fs = (8, 16, 32, 64)

    sections: list[tuple[str, str]] = []
    t_start = time.perf_counter()

    print(f"# scales: static={static_scale()} dynamic={dynamic_scale()} epochs={bench_epochs()}\n")

    _, t1 = table1_capabilities()
    print(t1, "\n")
    sections.append(("Table I", t1))

    _, t2 = table2_datasets()
    print(t2, "\n")
    sections.append(("Table II", t2))

    static_results, f5 = fig5_static_time(feature_sizes=fs)
    print(f5, "\n")
    sections.append(("Figure 5", f5))

    static_mem_results, f6 = fig6_static_memory()
    print(f6, "\n")
    sections.append(("Figure 6", f6))

    dyn_time_results, f7 = fig7_dtdg_time(feature_sizes=fs)
    print(f7, "\n")
    sections.append(("Figure 7", f7))

    dyn_mem_results, f8 = fig8_dtdg_memory(percent_changes=(1.0, 2.5, 5.0, 10.0))
    print(f8, "\n")
    sections.append(("Figure 8", f8))

    _, f9 = fig9_time_breakup(feature_sizes=fs)
    print(f9, "\n")
    sections.append(("Figure 9", f9))

    _, t3 = table3_summary(
        static_results + static_mem_results, dyn_time_results, dyn_mem_results
    )
    print(t3, "\n")
    sections.append(("Table III", t3))

    elapsed = time.perf_counter() - t_start
    print(f"# total harness time: {elapsed:.1f}s")

    if args.write:
        path = pathlib.Path(__file__).parent.parent / "EXPERIMENTS.md"
        marker = "<!-- measured-data -->"
        text = path.read_text() if path.exists() else ""
        head = text.split(marker)[0] if marker in text else text
        body = [head.rstrip(), "", marker, ""]
        body.append(f"_Regenerated by `benchmarks/run_all.py` in {elapsed:.1f}s "
                    f"(static scale {static_scale()}, dynamic scale {dynamic_scale()}, "
                    f"{bench_epochs()} epochs)._\n")
        for name, block in sections:
            body.append(f"### {name} (measured)\n\n```\n{block}\n```\n")
        path.write_text("\n".join(body))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
