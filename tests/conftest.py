import numpy as np
import pytest
from scipy import sparse

import weightopt.eig
from weightopt import optimize as opt
from weightopt.grid import ScalarField, make_box, make_rectangle, unit_scale


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


def reference_swap_candidates(m, u):
    """optimize._swap_candidates as one loop per level: the reference for
    its single sort."""
    n = m.size
    cap = n if n <= 64 else (8 if n <= 400 else 2)
    levels = np.unique(m)[::-1]
    cells_by_level = {}
    for v in levels:
        cells = np.flatnonzero(m == v)
        cells_by_level[v] = cells[np.argsort(u[cells], kind="stable")]
    out = []
    for ia in range(len(levels)):
        for ib in range(ia + 1, len(levels)):
            a_cells = cells_by_level[levels[ia]]
            b_cells = cells_by_level[levels[ib]][::-1]
            k = min(cap, a_cells.size, b_cells.size)
            out.extend((int(a_cells[t]), int(b_cells[t])) for t in range(k))
    return out


def reference_minimize_over_class(domain, profile, seeds, rng_seed):
    """optimize._minimize_over_class without its mirror-image rules: every
    polish probe the Temple screen passes is solved, and every seed runs to
    its end.  Each seed takes the same start: the cheap ranking moves, each
    of opt.RANK_SOLVES inverse-iteration steps, end at a repeated ranking or
    at a move with a step that leaves a cell of v <= 0.  The reference for
    the rules' claim that they change only the number of eigensolves.  Every
    name resolves through weightopt.optimize, so a test that patches one
    there patches it here too."""
    beta = opt.second_mu_bound(domain, float(profile[0]))
    solve_a = opt._factored_stiffness(domain)[2]
    best = None
    for s in range(seeds):
        r = opt.random_arrangement(profile, domain, np.random.default_rng([rng_seed, s]))
        w = unit_scale(r.values)[0]
        v = solve_a(w - w.min())
        m = opt.hl_pairing(domain.field(v), domain.field(profile))
        u0, ranked = None, set()
        while opt.RANK_SOLVES and v.min() > 0 and len(ranked) < opt.MAX_FIXED_POINT_ITERS:
            if m.values.tobytes() in ranked:
                break
            ranked.add(m.values.tobytes())
            x, failed, w = v, False, unit_scale(m.values)[0]
            for _ in range(opt.RANK_SOLVES):
                x = solve_a(w * x)
                x = x / np.abs(x).max()
                failed = failed or not x.min() > 0
            if failed:
                break
            u0 = v = x
            m = opt.rearrangement_step(profile, domain.field(v))
        m0 = m
        pair = pair0 = opt.principal_positive_eigenvalue(domain, m, u0=u0)
        evals, history = 1, [pair.lambda1]
        seen = set()
        stabilized = False
        while evals < opt.MAX_FIXED_POINT_ITERS:
            seen.add(m.values.tobytes())
            m_next = opt.rearrangement_step(profile, pair.u)
            u2 = pair.u.values**2
            t_old, t_new = (float(unit_scale(w.values)[0] @ u2) * domain.cell_area
                            for w in (m, m_next))
            if t_new < t_old - opt.DESCENT_RTOL * max(abs(t_old), abs(t_new)):
                raise RuntimeError("rearrangement step decreased ∫ m u² dx")
            stabilized = np.array_equal(m_next.values, m.values)
            if not stabilized and m_next.values.tobytes() not in seen:
                m = m_next
                pair = opt.principal_positive_eigenvalue(domain, m_next, u0=pair.u.values)
                evals += 1
            else:
                lam0 = pair0.lambda1
                mu_cut = (1.0 - opt.LAMBDA_TIE_RTOL) / lam0
                swaps = opt._swap_candidates(m0.values, pair0.u.values)
                swaps = swaps[:opt.MAX_FIXED_POINT_ITERS - evals]
                bounds = opt.temple_swap_bounds(m0, pair0, swaps, beta)
                for t, ((i, j), bound) in enumerate(zip(swaps, bounds)):
                    if bound < mu_cut:
                        continue
                    values = m0.values.copy()
                    values[i], values[j] = values[j], values[i]
                    m = ScalarField(domain, values)
                    pair = opt.principal_positive_eigenvalue(domain, m, u0=pair0.u.values)
                    if pair.lambda1 < lam0 * (1.0 - opt.LAMBDA_TIE_RTOL):
                        break
                else:
                    break
                evals += t + 1
                stabilized = False
            if pair.lambda1 > history[-1] * (1.0 + opt.DESCENT_RTOL):
                raise RuntimeError(f"lambda increased from {history[-1]!r} to {pair.lambda1!r}")
            history.append(pair.lambda1)
            if pair.lambda1 < pair0.lambda1:
                m0, pair0 = m, pair
        if best is None or pair0.lambda1 < best.final.lambda1 * (1.0 - opt.LAMBDA_TIE_RTOL):
            best = opt.OptimizeReport(lambda_history=history, final=pair0, weight=m0,
                                      stabilized=stabilized)
    return best
