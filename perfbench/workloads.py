"""Benchmark workloads: seeded inputs for the tll-cd-sim command.

Each workload is a config text plus the command line that runs it.  The seed
jitters the couplings by at most 2%: enough to vary the inputs, small enough
that the work per call (t_f of `ref_simulate` scales with g2) stays nearly
the same, and far inside the Luttinger and CD stability windows (even at
g2 = 1.1, t_f = 5 in `tf_sweep` keeps a CD margin of +0.034).  The program
receives only the generated config; nothing here calls into it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi
# Maximum slope of the poly5 ramp 10 s^3 - 15 s^4 + 6 s^5, reached at s = 1/2.
POLY5_MAX_DPDS = 1.875

NAMES = ("ref_simulate", "tf_sweep", "table_records")

# The tiny size keeps every code path and output of a workload but shrinks
# it to a fraction of a second, for the benchmark's own tests.
_TINY = {"n_modes": 4, "record_points": 11}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "simulate" or "sweep"
    params: tuple  # ((config key, value), ...) in file order
    tf_values: tuple  # final times the command integrates

    def param(self, key):
        return dict(self.params)[key]

    def config_text(self, t_f: float | None = None) -> str:
        """The config file; `t_f` replaces the final time (one sweep point)."""
        lines = []
        for key, value in self.params:
            if key == "t_f" and t_f is not None:
                value = t_f
            lines.append(f"{key} = {_fmt(value)}")
        return "\n".join(lines) + "\n"

    def argv(self, config_path, out_dir) -> list:
        argv = [self.command, "--config", str(config_path), "--out", str(out_dir)]
        if self.command == "sweep":
            argv += ["--tf-list", ",".join(_fmt(t) for t in self.tf_values)]
        return argv

    @property
    def cd(self) -> bool:
        return self.param("cd") == "on"

    def momenta(self) -> list:
        """p_k = 2 pi k / L, k = 1..n_modes, in mode order."""
        L = self.param("L")
        return [TWO_PI * k / L for k in range(1, self.param("n_modes") + 1)]

    def check_modes(self) -> list:
        """1-based mode numbers checked against the reference: first,
        middle and top mode."""
        n = self.param("n_modes")
        return sorted({1, (n + 1) // 2, n})


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    """Workload `name` with couplings drawn from `seed`."""
    rng = random.Random(f"{name}:{seed}")

    def jitter(x):
        return x * rng.uniform(0.98, 1.02)

    if name == "ref_simulate":
        g2, g4, L = jitter(1.0), jitter(0.5), 100.0
        # twice the closed-form bound L |dg2| max P' / (2 pi v_F)^2
        t_f = 2.0 * L * g2 * POLY5_MAX_DPDS / TWO_PI**2
        params = [
            ("family", "contact"), ("g2_end", g2), ("g4_end", g4),
            ("schedule", "poly5"), ("t_f", t_f), ("L", L),
            ("n_modes", 128), ("record_points", 201), ("cd", "on"),
        ]
        command, tf_values = "simulate", (t_f,)
    elif name == "tf_sweep":
        tf_values = (5.0, 10.0, 20.0, 40.0)
        params = [
            ("family", "contact"), ("g2_end", jitter(1.0)), ("g4_end", jitter(0.5)),
            ("schedule", "poly5"), ("t_f", tf_values[0]), ("L", 100.0),
            ("n_modes", 32), ("record_points", 201), ("cd", "on"),
        ]
        command = "sweep"
    elif name == "table_records":
        rows = ((0.0, 0.9, 0.45), (0.5, 0.85, 0.45), (1.0, 0.8, 0.4),
                (1.5, 0.7, 0.4), (2.5, 0.6, 0.35))
        table = "; ".join(
            f"{p!r}:{jitter(g2)!r}:{jitter(g4)!r}" for p, g2, g4 in rows
        )
        params = [
            ("family", "custom_table"), ("table", table), ("schedule", "linear"),
            ("t_f", 10.0), ("L", 100.0), ("n_modes", 32),
            ("record_points", 1001), ("cd", "off"),
        ]
        command, tf_values = "simulate", (10.0,)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    if tiny:
        params = [(k, _TINY.get(k, v)) for k, v in params]
    return Workload(name, command, tuple(params), tf_values)


# Tiny contact ramp run once in every fresh process before timing, so that
# lazy imports and first-call costs land in setup_s rather than in wall_s.
WARMUP_CONFIG = (
    "family = contact\ng2_end = 1.0\ng4_end = 0.5\nt_f = 9.5\nL = 100\n"
    "n_modes = 2\nrecord_points = 5\ncd = on\n"
)
