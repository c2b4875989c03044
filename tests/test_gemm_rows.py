"""GEMM row stability: a row's product does not depend on the rows beside it.

For float64 `X @ W` with 16, 32 or 64 output columns, row i of the product is
the same bits whether X has 2 rows or many, and whichever rows sit next to it.
Batching evaluation rows into blocks, or stacking cold-start rows, is bitwise
only while this holds, and a numpy or BLAS upgrade may change it. A one-row
call (the matrix-vector path) and outputs of one or two columns (the
decoder's last layer) are not covered: there the bits may differ, which is
why `structmap.cold_start` runs the structural map on one row at a time.
"""

import numpy as np
import pytest

ROWS = 70


@pytest.mark.parametrize("cols", [16, 32, 64])
@pytest.mark.parametrize("inner", [4, 16, 40, 64, 100])
def test_row_of_a_stacked_product_is_the_row_alone(cols, inner):
    rng = np.random.default_rng(cols * 1000 + inner)
    x = rng.standard_normal((ROWS, inner))
    w = rng.standard_normal((inner, cols))
    full = x @ w
    for i in range(ROWS):
        other = (i + 1 + int(rng.integers(ROWS - 1))) % ROWS
        pair = x[[i, other]] @ w
        assert np.array_equal(pair[0], full[i])
        assert np.array_equal(pair[1], full[other])
    for _ in range(40):
        lo = int(rng.integers(ROWS - 1))
        hi = int(rng.integers(lo + 2, ROWS + 1))
        assert np.array_equal(x[lo:hi] @ w, full[lo:hi])
        rows = rng.choice(ROWS, size=int(rng.integers(2, ROWS + 1)), replace=False)
        assert np.array_equal(x[rows] @ w, full[rows])


@pytest.mark.parametrize("cols", [16, 32, 64])
def test_long_stack_matches_its_blocks(cols):
    """A block-wise pass over many rows (blocks of at least 2) equals one call."""
    rng = np.random.default_rng(cols)
    x = rng.standard_normal((1500, 40))
    w = rng.standard_normal((40, cols))
    full = x @ w
    for block in (2, 3, 511, 512, 513):
        starts = list(range(0, len(x), block))
        if len(x) - starts[-1] < 2:
            starts.pop()
        bounds = starts + [len(x)]
        blocked = np.concatenate([x[a:b] @ w for a, b in zip(bounds, bounds[1:])])
        assert np.array_equal(blocked, full)
