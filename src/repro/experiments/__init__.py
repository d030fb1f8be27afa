"""Experiment drivers: one entry point per table/figure of the paper.

Every driver returns plain dictionaries/lists so that the benchmark harness
(`benchmarks/`), the examples and EXPERIMENTS.md can all print the same rows
the paper reports.  All drivers accept a ``quick`` knob: the full-paper
settings run hundreds of compilations per benchmark, which is hours of work
even on the simulated substrate, so the default configuration uses reduced
iteration budgets and benchmark subsets while preserving the comparisons'
*shape* (who wins, and by roughly how much).

| Paper artefact | Driver |
|----------------|--------|
| Figure 1(a)(b) | :func:`repro.experiments.mirai.run_fig1_mirai_study` |
| Figure 5(a)(b) | :func:`repro.experiments.scores.run_fig5_binhunt_scores` |
| Table 1        | :func:`repro.experiments.scores.run_table1_search_cost` |
| Figure 6       | :func:`repro.experiments.scores.run_fig6_ncd_variation` |
| Figure 7       | :func:`repro.experiments.potency.run_fig7_flag_potency` |
| Figure 8(a)(b) | :func:`repro.experiments.tools.run_fig8_tool_precision` |
| Table 2        | :func:`repro.experiments.malware_eval.run_table2_malware_detection` |
| Table 3        | :func:`repro.experiments.speedup.run_table3_speedup` |
| Tables 4/5     | :func:`repro.experiments.scores.run_table45_cross_comparison` |
| Figure 10      | :func:`repro.experiments.scores.run_fig10_ncd_binhunt_correlation` |
| Tables 7/8     | :func:`repro.experiments.scores.run_table78_matched_ratios` |
"""

from repro.experiments.mirai import run_fig1_mirai_study
from repro.experiments.scores import (
    run_fig5_binhunt_scores,
    run_table1_search_cost,
    run_fig6_ncd_variation,
    run_table45_cross_comparison,
    run_fig10_ncd_binhunt_correlation,
    run_table78_matched_ratios,
    tune_benchmark,
    tune_suite,
)
from repro.experiments.potency import run_fig7_flag_potency
from repro.experiments.tools import run_fig8_tool_precision
from repro.experiments.malware_eval import run_table2_malware_detection
from repro.experiments.speedup import run_table3_speedup

__all__ = [
    "run_fig1_mirai_study",
    "run_fig5_binhunt_scores",
    "run_table1_search_cost",
    "run_fig6_ncd_variation",
    "run_table45_cross_comparison",
    "run_fig10_ncd_binhunt_correlation",
    "run_table78_matched_ratios",
    "tune_benchmark",
    "tune_suite",
    "run_fig7_flag_potency",
    "run_fig8_tool_precision",
    "run_table2_malware_detection",
    "run_table3_speedup",
]
