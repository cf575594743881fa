"""The per-trial Monte Carlo step of ``experiments.run_uniqueness_mc``, kept as an oracle.

Each trial built its own scenario (streams keyed by ``(seed, trial, r, q)``),
one game per distance ratio, and certified those games as one stack per
``Dq_mode``.  ``run_uniqueness_mc`` now draws and certifies trials in
chunks and must give every trial the same verdict codes.
"""

from dataclasses import replace

import numpy as np

from specnash.channel import build_game, ratio_distances
from specnash.experiments import scenario_from_config
from specnash.uniqueness import DQ_MODES, verdict_codes


def oracle_trial_codes(cfg: dict, trial: int) -> np.ndarray:
    """Verdict codes of one trial of a ``uniqueness_mc`` config, shape (ratios, modes, 7)."""
    scen = cfg["scenario"]
    ch = scenario_from_config(scen, seed=(cfg.get("seed", 0), trial))
    ratios = cfg.get("d_ratio_sweep") or [scen.get("d_ratio", 2.0)]
    # An explicit distance matrix overrides d_ratio, as in ratio_scenario.
    explicit = scen.get("d") is not None
    games = [build_game(replace(ch, d=ch.d if explicit else ratio_distances(ch.Q, r)))
             for r in ratios]
    return np.stack([verdict_codes(games, mode) for mode in cfg.get("Dq_modes", DQ_MODES)], axis=1)
