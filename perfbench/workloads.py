"""The benchmark's workloads: inputs made from the workload seed, the CLI
argument list of each op, and the correctness check of each op's artifacts.

Reference values come from the benchmark's own 5-point assembly of the
written weight, never from the solver under test.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy import sparse
from scipy.sparse import linalg as splinalg

LAMBDA_RTOL = 1e-8   # solver residual 1e-8 bounds the eigenvalue error well below this
DENSE_MAX_CELLS = 400


def read_field_csv(path: Path) -> tuple[np.ndarray, float]:
    """Grid of values (nan outside the domain) and the spacing h."""
    lines = path.read_text().splitlines()
    nx, ny, h = lines[1].split(",")
    nx, ny = int(nx), int(ny)
    values = np.array([float(s) for s in lines[2:2 + nx * ny]])
    return values.reshape(ny, nx), float(h)


def reference_lambda(grid: np.ndarray, h: float) -> float:
    """Smallest positive λ of A u = λ diag(m h²) u, A the 5-point Dirichlet
    stiffness over the non-nan cells: dense eigh on small grids, sparse
    generalized Lanczos (A factored once) above."""
    inside = ~np.isnan(grid)
    n = int(inside.sum())
    idx = np.full((grid.shape[0] + 2, grid.shape[1] + 2), -1)
    r, c = np.nonzero(inside)
    idx[r + 1, c + 1] = np.arange(n)
    rows, cols, data = [np.arange(n)], [np.arange(n)], [np.full(n, 4.0)]
    for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        nb = idx[r + 1 + dr, c + 1 + dc]
        has = nb >= 0
        rows.append(np.flatnonzero(has))
        cols.append(nb[has])
        data.append(np.full(int(has.sum()), -1.0))
    A = sparse.csc_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                          shape=(n, n))
    m = grid[inside] * h * h
    if n <= DENSE_MAX_CELLS:
        mu = scipy.linalg.eigh(np.diag(m), A.toarray(), eigvals_only=True)[-1]
    else:
        lu = splinalg.splu(A)
        Ainv = splinalg.LinearOperator((n, n), matvec=lu.solve, dtype=float)
        mu = splinalg.eigsh(sparse.diags(m), k=1, M=A, Minv=Ainv, which="LA",
                            v0=np.ones(n), tol=1e-14)[0][0]
    return float(1.0 / mu)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def write_config(path: Path, cfg: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=2) + "\n")
    return path


class Workload:
    """One CLI task on a fixed domain; each op has its own --seed."""

    task: str
    grid_n: int | None = None
    files: tuple[str, ...]

    def __init__(self, seed: int, inputs: Path, n_ops: int, tag: int):
        rng = np.random.default_rng([seed, tag])
        self.op_seeds = [int(s) for s in rng.integers(0, 2**31, n_ops)]
        self.config = write_config(inputs / "config.json", self.make_config())

    def make_config(self) -> dict:
        raise NotImplementedError

    def argv(self, k: int, out: Path) -> list[str]:
        grid = ["--grid", str(self.grid_n)] if self.grid_n else []
        return [self.task, "--config", str(self.config), *grid,
                "--seed", str(self.op_seeds[k]), "--out", str(out)]

    def check(self, out: Path) -> tuple[float, str]:
        """(λ reported by the op, "" if its artifacts are correct, else why)."""
        missing = [f for f in self.files if not (out / f).is_file()]
        if missing:
            return math.nan, f"missing {missing}"
        res = json.loads((out / "results.json").read_text())
        grid, h = read_field_csv(out / "weight.csv")
        return self.check_results(res, grid, h)

    def check_results(self, res: dict, grid: np.ndarray, h: float) -> tuple[float, str]:
        raise NotImplementedError


class Opt2Box(Workload):
    """optimize2 on the unit square, the paper's remark classes."""

    task, grid_n = "optimize2", 32
    files = ("results.json", "weight.csv", "eigenfunction.csv", "heatmap.pgm")

    def make_config(self) -> dict:
        n = self.grid_n
        omega = (n / (n + 1)) ** 2   # make_box rule: n x n cells of side 1/(n+1)
        return {
            "task": "optimize2",
            "domain": {"shape": "rectangle", "nx": n, "ny": n, "h": 1.0 / (n + 1)},
            "classes": [{"p": 0.0, "q": 1.0, "l": 2.0 * omega / 3.0},
                        {"p": 1.0, "q": 0.0, "l": -omega / 2.0}],
            "seeds": 1,
            "heatmap": True,
        }

    def check_results(self, res, grid, h):
        lam = res["lambda"]
        w = grid[~np.isnan(grid)]
        lv = res["levels"]
        E, G = w == lv["top"], w > lv["bot"]
        if not np.isin(w, [lv["top"], lv["mid"], lv["bot"]]).all():
            return lam, "weight takes values outside its three levels"
        if (E & ~G).any():
            return lam, "E is not contained in G"
        if not (_close(res["measure_E"], E.sum() * h * h, 1e-12)
                and _close(res["measure_G"], G.sum() * h * h, 1e-12)):
            return lam, "reported level-set measures do not match weight.csv"
        ref = reference_lambda(grid, h)
        if not _close(lam, ref, LAMBDA_RTOL):
            return lam, f"lambda {lam!r} vs reference {ref!r}"
        return lam, ""


class TinyRect(Workload):
    """optimize on the 6 x 5-cell rectangle of the verify descent suite."""

    task = "optimize"
    files = ("results.json", "weight.csv", "eigenfunction.csv")
    NX, NY, H = 6, 5, 0.5

    def make_config(self) -> dict:
        omega = self.NX * self.NY * self.H**2
        return {
            "task": "optimize",
            "domain": {"shape": "rectangle", "nx": self.NX, "ny": self.NY, "h": self.H},
            "single_class": {"m1": 1.0, "m2": 1.0, "m3": omega / 6.0},
            "seeds": 2,
        }

    def check_results(self, res, grid, h):
        lam = res["lambda"]
        w = grid[~np.isnan(grid)]
        if not np.isin(w, [1.0, -1.0]).all():
            return lam, "weight is not bang-bang"
        if not _close(res["realized_integral"], w.sum() * h * h, 1e-12):
            return lam, "realized integral does not match weight.csv"
        ref = reference_lambda(grid, h)
        if not _close(lam, ref, LAMBDA_RTOL):
            return lam, f"lambda {lam!r} vs reference {ref!r}"
        return lam, ""


class SymDiskCold(Workload):
    """symmetrize a random bang-bang weight on the disk."""

    task, grid_n = "symmetrize", 48
    files = ("results.json", "weight.csv", "eigenfunction.csv", "heatmap.pgm")

    def make_config(self) -> dict:
        n = self.grid_n
        return {
            "task": "symmetrize",
            "domain": {"shape": "ellipse", "nx": n + 1, "ny": n + 1, "h": 1.0 / n,
                       "semi_axes": [0.5, 0.5]},
            "weight": {"kind": "bang_bang", "m1": 1.0, "m2": 1.0, "m3": math.pi / 4 / 6},
            "heatmap": True,
        }

    def check_results(self, res, grid, h):
        lam = res["lambda_after"]
        w = grid[~np.isnan(grid)]
        if not np.isin(w, [1.0, -1.0]).all():
            return lam, "symmetrized weight is not bang-bang"
        if res["defect_after"] != 0.0:
            return lam, f"symmetrized weight has defect {res['defect_after']!r}"
        if not lam <= res["lambda_before"] * (1.0 + LAMBDA_RTOL):
            return lam, "Steiner symmetrization raised lambda"
        ref = reference_lambda(grid, h)
        if not _close(lam, ref, LAMBDA_RTOL):
            return lam, f"lambda {lam!r} vs reference {ref!r}"
        return lam, ""


# name -> (class, tag mixed into the seed so workloads draw distinct streams)
WORKLOADS = {
    "opt2-box": (Opt2Box, 1),
    "tiny-cli": (TinyRect, 2),
    "sym-disk-cold": (SymDiskCold, 3),
}


def make(name: str, seed: int, inputs: Path, n_ops: int) -> Workload:
    cls, tag = WORKLOADS[name]
    return cls(seed, inputs, n_ops, tag)
