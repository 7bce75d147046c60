import hashlib

import pytest

from rule110_oracle import GridRow, calc_bit, evolve_cyclic, evolve_grid
from utxo110.interp import EvalContext, WidthExceeded, evaluate
from utxo110.lang import Bits, serialize_script
from utxo110.model import Output, Payload
from utxo110.parser import parse
from utxo110.rule110 import (
    build_bit_script, build_layer_script, cell_output, genesis_grid, genesis_layer,
)


class TestCalcBit:
    def test_matches_rule_number_110(self):
        # oracle: bit (4l + 2c + r) of the binary rule number 01101110
        for l in (0, 1):
            for c in (0, 1):
                for r in (0, 1):
                    assert calc_bit(l, c, r) == (110 >> (4 * l + 2 * c + r)) & 1

    def test_spot_values(self):
        assert calc_bit(0, 0, 0) == 0
        assert calc_bit(1, 1, 1) == 0
        assert calc_bit(1, 0, 1) == 1


class TestEvolveCyclic:
    def test_hand_checked_step(self):
        assert evolve_cyclic([0, 0, 0, 1], 1) == [Bits([0, 0, 1, 1])]

    def test_quiescence(self):
        rows = evolve_cyclic([0] * 6, 5)
        assert all(row == Bits([0] * 6) for row in rows)

    def test_width_one_degenerates(self):
        # single cell is its own left and right neighbor
        assert evolve_cyclic([1], 3) == [Bits([0]), Bits([0]), Bits([0])]

    def test_zero_steps(self):
        assert evolve_cyclic([1, 0], 0) == []


class TestEvolveGrid:
    def test_single_one_first_step(self):
        (row,) = evolve_grid(GridRow.from_bits([1]), 1)
        assert row.n == -1
        assert row.bits == (1, 1)

    def test_quiescent_rows_still_grow(self):
        rows = evolve_grid(GridRow.from_bits([0, 0]), 3)
        assert [r.n for r in rows] == [-2, -3, -4]
        assert all(set(r.bits) == {0} for r in rows)

    def test_domain_invariant(self):
        with pytest.raises(ValueError):
            GridRow(n=-1, bits=(1,))
        with pytest.raises(ValueError):
            GridRow(n=1, bits=(1, 1))

    def test_window_against_cyclic_oracle(self):
        # wide zero-padded cyclic layer cannot feel the wrap within 16
        # steps, so the window over [n, 0] must match the grid exactly
        width = 64
        layer = [0] * width
        layer[width - 1] = 1  # column 0 sits at the right edge
        cyc = evolve_cyclic(layer, 16)
        grid = evolve_grid(GridRow.from_bits([1]), 16)
        for t in range(16):
            window = [cyc[t][x + width - 1] for x in range(grid[t].n, 1)]
            assert window == list(grid[t].bits)


class TestLayerScript:
    def _ctx(self, src, dst, out_script=None):
        script = build_layer_script()
        inp = Output(script, Payload((("layer", Bits(src)),)))
        out = Output(out_script if out_script is not None else script,
                     Payload((("layer", Bits(dst)),)))
        return EvalContext(self_input=inp, inputs=(inp,), outputs=(out,))

    def test_valid_step(self):
        nxt = list(evolve_cyclic([0, 1, 1, 0, 1], 1)[0])
        value, receipt = evaluate(build_layer_script(),
                                  self._ctx([0, 1, 1, 0, 1], nxt), 10_000)
        assert value is True
        assert receipt.total_cost > 0

    def test_script_mismatch_fails(self):
        nxt = list(evolve_cyclic([0, 1, 1, 0, 1], 1)[0])
        ctx = self._ctx([0, 1, 1, 0, 1], nxt, out_script=parse("true"))
        assert evaluate(build_layer_script(), ctx, 10_000)[0] is False

    def test_every_flipped_bit_fails(self):
        src = [0, 1, 1, 0, 1, 0]
        good = list(evolve_cyclic(src, 1)[0])
        for pos in range(len(src)):
            bad = list(good)
            bad[pos] ^= 1
            assert evaluate(build_layer_script(), self._ctx(src, bad),
                            10_000)[0] is False


class TestBitScript:
    def _normal_ctx(self, vals, x=-2, n=-4, swap=False):
        script = build_bit_script()
        ins = [cell_output(vals[0], x - 1, n, False, script),
               cell_output(vals[1], x, n, True, script),
               cell_output(vals[2], x + 1, n, False, script)]
        if swap:
            ins[0], ins[1] = ins[1], ins[0]
        v = calc_bit(*vals)
        outs = (cell_output(v, x, n - 1, False, script),
                cell_output(v, x, n - 1, True, script),
                cell_output(v, x, n - 1, False, script))
        return EvalContext(self_input=ins[0], inputs=tuple(ins), outputs=outs)

    def test_valid_interior_transaction(self):
        for vals in ((0, 0, 0), (1, 0, 1), (1, 1, 1)):
            ctx = self._normal_ctx(list(vals))
            assert evaluate(build_bit_script(), ctx, 10_000)[0] is True

    def test_swapped_inputs_fail(self):
        ctx = self._normal_ctx([1, 0, 1], swap=True)
        assert evaluate(build_bit_script(), ctx, 10_000)[0] is False

    def test_leftmost_transaction(self):
        script = build_bit_script()
        n = -3
        inp = cell_output(1, n, n, False, script)
        v = calc_bit(0, 0, 1)
        outs = (cell_output(v, n - 1, n - 1, False, script),
                cell_output(v, n - 1, n - 1, True, script),
                cell_output(v, n - 1, n - 1, False, script))
        ctx = EvalContext(self_input=inp, inputs=(inp,), outputs=outs)
        assert evaluate(script, ctx, 10_000)[0] is True


class TestGenesis:
    def test_layer_bounds(self, params):
        assert len(genesis_layer(Bits([1]), params).outputs) == 1
        wide = Bits([0] * params.max_width)
        assert genesis_layer(wide, params).outputs[0].payload.get("layer") == wide
        with pytest.raises(WidthExceeded):
            genesis_layer(Bits([0] * (params.max_width + 1)), params)

    def test_grid_single_cell(self):
        tx = genesis_grid([1])
        assert len(tx.outputs) == 3
        mids = [out.payload.get("mid") for out in tx.outputs]
        assert mids.count(True) == 1

    def test_grid_width_three(self):
        tx = genesis_grid([1, 0, 1])
        assert len(tx.outputs) == 9
        script_bytes = {out.script_bytes for out in tx.outputs}
        assert script_bytes == {serialize_script(build_bit_script())}


def test_validator_bytes_unchanged():
    # sha256 of each validator's canonical bytes, which every tx id of a
    # chain depends on: comments and layout of the .script files may
    # change, the parsed script may not
    digests = {
        build_layer_script:
            "f37e4cbdb5f874db025850c59917666317af793f137e8769768aa91eadc02259",
        build_bit_script:
            "c7a6cee0ce38268c3871f2df1c575d6a8156da0ce3eaf2e613d8a745a792c01d",
    }
    for build, digest in digests.items():
        assert hashlib.sha256(serialize_script(build())).hexdigest() == digest
