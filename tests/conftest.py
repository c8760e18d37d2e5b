import pytest

from weightopt.grid import make_box, make_rectangle


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
