"""A run's peak memory: one `run_simulation` and its `cli.write_outputs`
hold the result, the record grid and one block of temporaries at a time,
measured with tracemalloc, to which numpy reports its array memory; and
the states that `observables` and a sweep let go, and when."""

import tracemalloc
import weakref

import numpy as np
import pytest

from tllcd import _fmt17, cli, dynamics, integrator, model
from tllcd.protocol import DriveProtocol

# the shapes of two benchmark workloads: table_records (custom_table, CD
# off, 32 modes x 1001 records, Magnus steps) and ref_simulate (contact
# poly5, CD on, 128 x 201, the phase route)
CONFIGS = {
    "table": (
        "family = custom_table\n"
        "table = 0.0:0.9:0.45; 0.5:0.85:0.45; 1.0:0.8:0.4; 1.5:0.7:0.4; 2.5:0.6:0.35\n"
        "schedule = linear\nt_f = 10.0\nL = 100.0\nn_modes = 32\n"
        "record_points = 1001\ncd = off\n"
    ),
    "contact": (
        "family = contact\ng2_end = 1.0\ng4_end = 0.5\nschedule = poly5\n"
        "t_f = 9.5\nL = 100.0\nn_modes = 128\nrecord_points = 201\ncd = on\n"
    ),
}
WORD = 8  # bytes of a float64, int64 or (half of a) complex128 entry

# Temporaries of one block, counted from the code.  The integrator's
# largest block is a Magnus block on per-mode couplings: `_steps` holds
# the node grid's g2, g4, dg2, dg4, chi_cd and v_s, and eps and r, each of
# 3 nodes x BLOCK_POINTS points (24 words a point), while `_omega` forms
# its 13 terms, 3 results and up to 4 temporaries of an expression (20).
# The phase route's blocks and the chunks of the test, `_lab`, `_start`
# and the defect are smaller.
INTEGRATOR_WORDS = 24 + 20
# The writer's largest block temporary is `_fmt17.words` on a block's
# values, per value: the values and `_block_words`' run index (2); X, yh,
# yl and two masks in `words` (4); and in `_layout` at its peak X, lead,
# rest, the two digit words v, length, row, the 4 words of cells and 3
# temporaries of one expression (14).  A value that `_shifted` lays out
# (10 <= |x| < 1e17) takes more, the copies and words `_shifted` forms;
# these tables have none.  The block of cells, its words and its bytes
# come after, 12 words per cell at most.
WRITER_WORDS = 2 + 4 + 14
# per entry of a column that repeats down the table: its words and index
# (5), kept through the blocks, and while `words` forms them before the
# first block, its temporaries (as above, 20) and words in their first
# layout (4)
KEPT_WORDS, FORMING_WORDS = 5, 5 + 20 + 4
# the columns of `modes.csv` that a run writes from a (mode, record) array
MODE_COLUMNS = ("n_bare", "n_qp", "fidelity", "pair_energy", "residual", "epsilon_cd", "chi")


def held_bytes(*objects) -> int:
    """The bytes of the distinct array buffers that `objects` hold, through
    instance attributes (cached ones included) and tuples; a view counts
    its base."""
    buffers = {}

    def visit(x):
        if isinstance(x, np.ndarray):
            while isinstance(x.base, np.ndarray):
                x = x.base
            buffers[id(x)] = x.nbytes
        elif isinstance(x, tuple):
            for item in x:
                visit(item)
        elif hasattr(x, "__dict__"):
            for value in vars(x).values():
                visit(value)

    for x in objects:
        visit(x)
    return sum(buffers.values())


@pytest.mark.parametrize("shape", sorted(CONFIGS))
def test_a_run_holds_its_result_the_record_grid_and_one_block(shape, monkeypatch, tmp_path):
    cfg = cli.parse_config(CONFIGS[shape])
    proto = cfg.protocol()
    settings = cfg.rtol, cfg.atol, cfg.record_points

    # a first, untraced run keeps its record grid, the first grid on the
    # record times, to count what the run leaves in it; it also fills the
    # writer's tables of powers of ten
    grids, grid = [], DriveProtocol.grid

    def keep(self, p, t):
        c = grid(self, p, t)
        if np.size(t) == cfg.record_points:
            grids.append(c)
        return c

    monkeypatch.setattr(DriveProtocol, "grid", keep)
    cli.write_outputs(dynamics.run_simulation(proto, *settings), cfg, tmp_path)
    monkeypatch.undo()
    record_grid = held_bytes(grids[0])
    del grids

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = dynamics.run_simulation(proto, *settings)
        cli.write_outputs(result, cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()

    column = cfg.n_modes * cfg.record_points * WORD
    traj = result.trajectories
    columns = [getattr(traj, name) for name in MODE_COLUMNS]
    columns = [x for x in columns if held_bytes(x) >= column]
    full = len(columns)
    magnitudes = np.abs(np.concatenate([x.ravel() for x in columns]))
    assert not np.any((magnitudes >= 10.0) & (magnitudes < 1e17))
    # the own entries of t, p and at most one row of chi
    repeated = cfg.record_points + cfg.n_modes + cfg.record_points
    # while the run forms it: the integrator's block, or observables'
    # last column, whose spectrum takes up to 3 columns beyond its own
    run = record_grid + max(INTEGRATOR_WORDS * WORD * integrator.BLOCK_POINTS, 3 * column)
    # while the writer writes it: the repeated columns, then one block
    block = _fmt17.CSV_BLOCK_ROWS * WRITER_WORDS * full
    write = WORD * max(FORMING_WORDS * repeated, KEPT_WORDS * repeated + block)
    result_bytes = held_bytes(result)
    bound = result_bytes + max(run, write)
    assert peak <= bound, (peak, result_bytes, record_grid, run, write)


def test_observables_let_the_frame_state_go_first(monkeypatch):
    # the frame state (u', v') is dead once n_qp and the fidelity are read:
    # before observables forms omega and g (model.pair_frequencies, first
    # called after the integration there) and the columns after them.
    # observables is called through a wrapper that holds its arguments
    # until it returns, as the caller does on CPython 3.10, so that the
    # test holds on every version
    cfg = cli.parse_config(CONFIGS["table"])
    frames, alive = [], []
    integrate, pair_frequencies = dynamics.integrate_modes, model.pair_frequencies
    observables = dynamics.observables

    def holding(*args):
        return observables(*args)

    def keep(*args):
        u, v, report, frame = integrate(*args)
        frames.append(weakref.ref(frame))
        return u, v, report, frame

    def check(*args):
        if frames and not alive:
            alive.append(frames[0]() is not None)
        return pair_frequencies(*args)

    monkeypatch.setattr(dynamics, "integrate_modes", keep)
    monkeypatch.setattr(model, "pair_frequencies", check)
    monkeypatch.setattr(dynamics, "observables", holding)
    dynamics.run_simulation(cfg.protocol(), record_points=41)
    assert alive == [False]


def test_a_sweep_lets_each_t_f_go_before_the_next(monkeypatch):
    # the lab and frame states of one t_f are dead when the next integrates
    cfg = cli.parse_config(CONFIGS["contact"])
    states, alive = [], []
    integrate = dynamics.integrate_modes

    def keep(*args):
        alive.append([state() is not None for state in states])
        u, v, report, frame = integrate(*args)
        states.extend(weakref.ref(x) for x in (u.base, frame))
        return u, v, report, frame

    monkeypatch.setattr(dynamics, "integrate_modes", keep)
    rows = dynamics.sweep_tf(cfg.protocol(), [5.0, 10.0, 20.0], record_points=41)
    assert [row.failure for row in rows] == [None] * 3
    assert alive == [[], [False] * 2, [False] * 4]
