#!/usr/bin/env python
"""Section 3 study: stacked-cache capacity sweep over the RMS workloads.

Reproduces Figure 5 (CPMA + off-die bandwidth for every workload at
4/12/32/64 MB), Figure 8a (peak temperatures of the four stack options),
and the Section 3 headline numbers.

By default runs a representative subset of workloads at reduced trace
length; pass ``--full`` for all twelve at full length (a few minutes).
"""

import argparse

from repro.analysis import format_figure5, compare_to_paper
from repro.core.experiments import get_experiment
from repro.core.memory_on_logic import run_memory_study

SUBSET = ["conj", "gauss", "ssym", "sus", "svm"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full", action="store_true",
        help="all 12 workloads at full trace length",
    )
    parser.add_argument(
        "--scale", type=int, default=8,
        help="capacity/footprint scale divisor (default 8)",
    )
    args = parser.parse_args()

    workloads = None if args.full else SUBSET
    length_factor = 1.0 if args.full else 0.5
    result = run_memory_study(
        workloads=workloads, scale=args.scale, length_factor=length_factor
    )

    print(format_figure5(result.cpma, result.bandwidth))

    print("\nFigure 8a: peak temperatures")
    paper_temps = get_experiment("figure-8").paper_values
    print(compare_to_paper(paper_temps, result.peak_temps, unit="C"))

    figure5 = get_experiment("figure-5").paper_values
    print("\nSection 3 headlines")
    print(f"  avg CPMA reduction at 32 MB:  "
          f"{100 * result.cpma_reduction('3D 32MB'):5.1f}%  "
          f"(paper: {100 * figure5['avg_cpma_reduction_32mb']:.0f}%)")
    print(f"  max CPMA reduction at 32 MB:  "
          f"{100 * result.max_cpma_reduction('3D 32MB'):5.1f}%  "
          f"(paper: up to {100 * figure5['max_cpma_reduction_32mb']:.0f}%)")
    print(f"  bus power/BW reduction:       "
          f"{100 * result.bus_power_reduction('3D 32MB'):5.1f}%  "
          f"(paper: {100 * figure5['bus_power_reduction_32mb']:.0f}%)")
    delta = result.peak_temps["3D 32MB"] - result.peak_temps["2D 4MB"]
    paper_delta = paper_temps["3D 32MB"] - paper_temps["2D 4MB"]
    print(f"  32 MB stack temperature delta: {delta:+.2f} C  "
          f"(paper: {paper_delta:+.2f} C)")


if __name__ == "__main__":
    main()
