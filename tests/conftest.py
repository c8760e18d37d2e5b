import numpy as np
import pytest
from scipy import sparse

from weightopt.grid import make_box, make_rectangle
from weightopt.steiner import row_sections


@pytest.fixture(scope="session")
def unit_square_64():
    """64x64-cell square whose effective Dirichlet boundary spans (0,1)^2."""
    return make_box(1.0, 1.0, 64)


@pytest.fixture
def small_rect():
    return make_rectangle(6, 5, 0.5)


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


def steiner_reference(domain, f):
    """Steiner symmetrization of a field row by row: the reference for
    steiner.symmetrize_function.  Each row's values are sorted descending,
    equal values (+0.0 and -0.0 among them) in column order, and placed at
    the row's cells ordered by distance to the axis, the left cell of a
    pair first."""
    center2 = domain.axis.center2
    grid = f.to_grid()
    out = np.empty_like(grid)
    for sec in row_sections(domain):
        row_vals = grid[sec.row, sec.col_start:sec.col_stop]
        cols = np.arange(sec.col_start, sec.col_stop)
        order = cols[np.lexsort((cols, np.abs(2 * cols - center2)))]
        out[sec.row, order] = row_vals[np.argsort(-row_vals, kind="stable")]
    return domain.field(out[domain.cell_rows, domain.cell_cols])
