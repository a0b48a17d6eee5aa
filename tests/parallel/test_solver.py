"""Bit-identical results from every backend (the CREW guarantee)."""

import numpy as np
import pytest

from repro.core.huang import HuangSolver
from repro.core.sequential import solve_sequential
from repro.problems.generators import random_generic, random_matrix_chain


class TestParallelSolver:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_matches_serial_bitwise(self, backend):
        p = random_generic(10, seed=6)
        serial = HuangSolver(p)
        out_serial = serial.run()
        with HuangSolver(p, backend=backend, tiles=3) as par:
            out_par = par.run()
        # Bit-identical, not just close: same operations, same order
        # within each reduction tile.
        assert np.array_equal(
            np.nan_to_num(out_serial.w, posinf=-1),
            np.nan_to_num(out_par.w, posinf=-1),
        )
        assert out_serial.iterations == out_par.iterations

    def test_value_correct(self):
        p = random_matrix_chain(12, seed=4)
        with HuangSolver(p, backend="thread") as s:
            assert s.run().value == pytest.approx(solve_sequential(p).value)

    def test_tile_count_default(self):
        """Without ``tiles=`` a solver tiles once per backend worker."""
        p = random_generic(6, seed=0)
        with HuangSolver(p) as s:
            assert s.tiles == 1
        with HuangSolver(p, backend="thread", workers=3) as s:
            assert s.tiles == 3

    def test_many_tiles(self):
        p = random_generic(8, seed=1)
        with HuangSolver(p, backend="thread", tiles=9) as s:
            assert s.run().value == pytest.approx(solve_sequential(p).value)

    def test_context_manager(self):
        p = random_generic(5, seed=0)
        with HuangSolver(p, backend="thread") as s:
            s.run()
        # close() after exit is idempotent via backend shutdown semantics.
