import numpy as np
import pytest
from scipy import sparse

import weightopt.eig
from weightopt.grid import make_box, make_rectangle


@pytest.fixture(scope="session")
def unit_square_64():
    """64x64-cell square whose effective Dirichlet boundary spans (0,1)^2."""
    return make_box(1.0, 1.0, 64)


@pytest.fixture
def small_rect():
    return make_rectangle(6, 5, 0.5)


@pytest.fixture
def assemblies(monkeypatch):
    """Forget the last stiffness factor for one test and record the shape of
    every mask whose stiffness matrix is assembled."""
    monkeypatch.setattr(weightopt.eig, "_LAST", (None, None))
    calls = []
    assemble = weightopt.eig.assemble_stiffness

    def counted(domain):
        calls.append(domain.mask.shape)
        return assemble(domain)

    monkeypatch.setattr(weightopt.eig, "assemble_stiffness", counted)
    return calls


def _split_masks():
    row = np.zeros((3, 7), dtype=bool)
    row[1] = [0, 1, 1, 0, 1, 1, 0]
    corner = np.zeros((4, 4), dtype=bool)
    corner[1, 1] = corner[2, 2] = True
    blocks = np.zeros((12, 23), dtype=bool)
    blocks[1:11, 1:11] = blocks[1:11, 12:22] = True
    return {"row": (row, 0.5), "corner": (corner, 0.5), "blocks": (blocks, 0.1)}


# (mask, h) of domains whose in-domain cells are not one 4-connected set:
# two runs of one row, two cells that touch only at a corner (both solved
# densely), and two 10 x 10 blocks (200 cells, the ARPACK path)
SPLIT_MASKS = _split_masks()


def dumbbell(block, neck):
    """Mask of two block x block squares of cells joined by a one-cell neck
    of the given length, with a one-cell margin.  λ₂ of the constant weight
    approaches λ₁ as the neck grows."""
    mask = np.zeros((block + 2, 2 * block + neck + 2), dtype=bool)
    mask[1:block + 1, 1:block + 1] = mask[1:block + 1, block + neck + 1:-1] = True
    mask[1 + block // 2, block + 1:block + neck + 1] = True
    return mask


def rng_field(domain, rng, lo=-16, hi=17, denom=8.0):
    """Random field with dyadic-rational values (exact float arithmetic)."""
    return domain.field(rng.integers(lo, hi, domain.n_cells) / denom)


def indicator(domain, subset_mask):
    """Characteristic function of a cell subset as a field on the domain."""
    return domain.field(domain.subset_cells(subset_mask).astype(float))


def reflect_field(f):
    """Mirror a field across its domain's vertical axis."""
    domain = f.domain
    assert domain.axis is not None
    return domain.field(f.to_grid()[:, ::-1][domain.cell_rows, domain.cell_cols])


def coo_stiffness(domain):
    """The 5-point stiffness matrix assembled entry by entry in COO form and
    converted to CSR: the reference for eig.assemble_stiffness."""
    idx = domain.index_map
    n = domain.n_cells
    rows = [np.arange(n)]
    cols = [np.arange(n)]
    data = [np.full(n, 4.0)]
    r, c = domain.cell_rows, domain.cell_cols
    for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        nb = idx[r + dr, c + dc]
        has = nb >= 0
        rows.append(idx[r[has], c[has]])
        cols.append(nb[has])
        data.append(np.full(int(has.sum()), -1.0))
    A = sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return A.tocsr()


def row_intervals(domain):
    """(row, first column, last column + 1) of each nonempty row, read off
    the mask; asserts the row is one interval."""
    out = []
    for r in np.flatnonzero(domain.mask.any(axis=1)):
        cols = np.flatnonzero(domain.mask[r])
        assert cols[-1] - cols[0] + 1 == cols.size, f"row {r} is not one interval"
        out.append((int(r), int(cols[0]), int(cols[-1]) + 1))
    return out


def steiner_reference(domain, f):
    """Steiner symmetrization of a field row by row: the reference for
    steiner.symmetrize_function.  Each row's values are sorted descending,
    equal values (+0.0 and -0.0 among them) in column order, and placed at
    the row's cells ordered by distance to the axis, the left cell of a
    pair first."""
    center2 = domain.axis
    grid = f.to_grid()
    out = np.empty_like(grid)
    for row, start, stop in row_intervals(domain):
        row_vals = grid[row, start:stop]
        cols = np.arange(start, stop)
        order = cols[np.lexsort((cols, np.abs(2 * cols - center2)))]
        out[row, order] = row_vals[np.argsort(-row_vals, kind="stable")]
    return domain.field(out[domain.cell_rows, domain.cell_cols])


def steiner_set_reference(domain, mask):
    """Steiner symmetrization of a cell subset row by row: the reference for
    steiner.symmetrize_set.  A row's k cells are re-placed as one run
    starting (width - k) // 2 cells into the row's interval, which puts the
    extra cell of a parity mismatch at the lower column."""
    out = np.zeros(domain.shape, dtype=bool)
    for row, start, stop in row_intervals(domain):
        k = int(mask[row, start:stop].sum())
        first = start + (stop - start - k) // 2
        out[row, first:first + k] = True
    return out
