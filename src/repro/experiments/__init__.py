"""Experiment drivers: one module per paper table/figure (see DESIGN.md
section 4 for the experiment index).  Each module exposes ``run(...)``
returning rows and a printable ``main()``."""

from repro.experiments import (
    ablation_miniblocks,
    ablation_vertical,
    compression_speed,
    fig5_blocks_per_tb,
    fig7_bitwidths,
    fig8_distributions,
    fig9_ssb_compression,
    fig10_decompression,
    fig11_ssb_queries,
    fig12_coprocessor,
    lightweight_vs_entropy,
    multigpu_scaling,
    opt_ladder,
    random_access,
    related_work,
    sensitivity_gpu,
    sharding_workload,
    tiering_workload,
)

__all__ = [
    "ablation_miniblocks",
    "ablation_vertical",
    "compression_speed",
    "fig10_decompression",
    "fig11_ssb_queries",
    "fig12_coprocessor",
    "fig5_blocks_per_tb",
    "fig7_bitwidths",
    "fig8_distributions",
    "fig9_ssb_compression",
    "lightweight_vs_entropy",
    "multigpu_scaling",
    "opt_ladder",
    "random_access",
    "related_work",
    "sensitivity_gpu",
    "sharding_workload",
    "tiering_workload",
]
