"""Evaluation harness: testbed construction and figure/table reproduction."""

from .chaos import ChaosRunner, EpisodeResult
from .figures import (DEFAULT_CLIENTS, figure2, figure3, figure4,
                      render_table, sweep_clients, url_table_overhead,
                      write_csv)
from .recovery import (collect_recovery_golden, recovery_episode_fn,
                       render_recovery, run_promotion_episode,
                       run_recovery_episode)
from .sweep import (SweepEngine, SweepError, SweepSpec, load_spec,
                    merge_sweep, write_report)
from .testbed import (SCHEMES, Deployment, ExperimentConfig,
                      build_deployment)

__all__ = [
    "ExperimentConfig", "Deployment", "build_deployment", "SCHEMES",
    "figure2", "figure3", "figure4", "url_table_overhead",
    "render_table", "DEFAULT_CLIENTS", "sweep_clients", "write_csv",
    "ChaosRunner", "EpisodeResult",
    "SweepSpec", "SweepEngine", "SweepError", "load_spec", "merge_sweep",
    "write_report",
    "run_recovery_episode", "run_promotion_episode",
    "recovery_episode_fn", "render_recovery", "collect_recovery_golden",
]
