import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackError

import weightopt.eig
import weightopt.io
import weightopt.optimize
import weightopt.verify
from weightopt.cli import TASKS, RunConfig, main, run
from weightopt.grid import from_mask, make_ellipse, make_rectangle
from weightopt.io import (
    domain_from_config,
    heatmap_image,
    read_field_csv,
    read_pgm,
    write_field_csv,
    write_pgm,
)

from conftest import SPLIT_MASKS, dumbbell, row_intervals


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "domain": {"shape": "rectangle", "nx": 12, "ny": 10, "h": 0.1},
        "weight": {"kind": "constant", "value": 1.0},
        "output_dir": str(path.parent / "out"),
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg, indent=1))
    return path


class TestFieldCsv:
    def test_roundtrip_exact(self, tmp_path):
        dom = make_rectangle(7, 5, 0.25)
        rng = np.random.default_rng(0)
        f = dom.field(rng.normal(size=dom.n_cells))
        p = tmp_path / "f.csv"
        write_field_csv(p, f)
        g = read_field_csv(p)
        assert g.domain.shape == dom.shape
        assert g.domain.h == dom.h
        assert np.array_equal(g.values, f.values)
        write_field_csv(tmp_path / "g.csv", g)
        assert (tmp_path / "g.csv").read_bytes() == p.read_bytes()

    def test_header_and_nan_layout(self, tmp_path):
        dom = make_rectangle(3, 3, 1.0)
        f = dom.constant_field(2.0)
        p = tmp_path / "f.csv"
        write_field_csv(p, f)
        lines = p.read_text().splitlines()
        assert lines[0] == "nx,ny,h"
        assert lines[1] == "5,5,1.0"
        assert lines[2] == "nan"  # padded corner cell
        assert sum(1 for s in lines[2:] if s != "nan") == dom.n_cells

    def test_domain_axis_follows_the_nan_pattern(self, tmp_path):
        p = tmp_path / "f.csv"
        write_field_csv(p, make_ellipse(9, 7, 0.5, (2.0, 1.5)).constant_field(1.0))
        assert read_field_csv(p).domain.axis is not None
        mask = np.zeros((5, 6), dtype=bool)
        mask[1:4, 1:3] = True
        write_field_csv(p, from_mask(mask, 0.5).constant_field(1.0))
        assert read_field_csv(p).domain.axis is None

    def test_domain_mismatch_rejected(self, tmp_path):
        dom = make_rectangle(3, 3, 1.0)
        other = make_rectangle(4, 3, 1.0)
        p = tmp_path / "f.csv"
        write_field_csv(p, dom.constant_field(1.0))
        with pytest.raises(ValueError):
            read_field_csv(p, other)


def test_writer_bytes_match_per_element_formula(tmp_path):
    dom = make_rectangle(3, 3, 0.5)  # padded grid: nan outside the domain
    vals = np.array([-0.0, 5e-324, 1e300, 0.1, -2.5e-310, 1 / 3, -1e-300, 7.0, 0.0])
    f = dom.field(vals)
    p = tmp_path / "f.csv"
    write_field_csv(p, f)
    ny, nx = dom.shape
    lines = ["nx,ny,h", f"{nx},{ny},{dom.h!r}"]
    lines.extend("nan" if np.isnan(v) else repr(float(v)) for v in f.to_grid().ravel())
    assert "nan" in lines
    assert p.read_text() == "\n".join(lines) + "\n"
    assert read_field_csv(p).values.tobytes() == vals.tobytes()

    img = np.array([[0, 255, 7], [255, 0, 128]], dtype=np.uint8)
    q = tmp_path / "img.pgm"
    write_pgm(q, img)
    rows = [" ".join(str(int(v)) for v in row) for row in img]
    assert q.read_text() == "P2\n3 2\n255\n" + "\n".join(rows) + "\n"
    assert np.array_equal(read_pgm(q), img)


@pytest.mark.parametrize("image", [
    np.arange(256, dtype=np.uint8).reshape(16, 16),
    np.random.default_rng(3).integers(0, 256, (49, 49), dtype=np.uint8),
    np.random.default_rng(4).uniform(0, 255, (34, 34)),  # truncated to uint8
], ids=["every-sample", "random-49x49", "float-34x34"])
def test_pgm_bytes_match_per_sample_str(tmp_path, image):
    # the samples' text comes from a lookup table; it must equal str() of
    # each uint8 sample, joined by spaces and newlines
    write_pgm(tmp_path / "img.pgm", image)
    rows = [" ".join(map(str, row)) for row in image.astype(np.uint8).tolist()]
    ny, nx = image.shape
    expected = f"P2\n{nx} {ny}\n255\n" + "\n".join(rows) + "\n"
    assert (tmp_path / "img.pgm").read_bytes() == expected.encode()


@pytest.mark.parametrize("values", [
    lambda n: np.resize([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e308, 0.1], n),
    lambda n: np.where(np.random.default_rng(5).random(n) < 0.3, 1.0, -1.0),
    lambda n: np.random.default_rng(6).standard_normal(n),
    lambda n: np.full(n, -0.0),
], ids=["signed-zeros-and-extremes", "two-levels", "all-distinct", "one-value"])
def test_field_csv_bytes_match_per_value_repr(tmp_path, values):
    # the values' text comes from a table of the distinct bit patterns; it
    # must equal repr() of each grid value, nan outside the domain, so +0.0,
    # -0.0 and nan each keep their own text
    dom = make_ellipse(49, 49, 1 / 48, (0.5, 0.5))
    f = dom.field(values(dom.n_cells))
    write_field_csv(tmp_path / "f.csv", f)
    grid = "\n".join(map(repr, f.to_grid().ravel().tolist()))
    expected = f"nx,ny,h\n49,49,{dom.h!r}\n{grid}\n"
    assert (tmp_path / "f.csv").read_bytes() == expected.encode()
    assert read_field_csv(tmp_path / "f.csv", dom).values.tobytes() == f.values.tobytes()


@pytest.mark.parametrize("image", [np.zeros(4, dtype=np.uint8), np.array([[0, 256]]),
                                   np.array([[-1, 0]])], ids=["1d", "above-255", "negative"])
def test_write_pgm_rejects_what_no_pgm_holds(tmp_path, image):
    with pytest.raises(ValueError, match="PGM"):
        write_pgm(tmp_path / "img.pgm", image)
    assert not (tmp_path / "img.pgm").exists()


class TestPgm:
    def test_p2_roundtrip(self, tmp_path):
        img = np.arange(12, dtype=np.uint8).reshape(3, 4)
        p = tmp_path / "img.pgm"
        write_pgm(p, img)
        assert np.array_equal(read_pgm(p), img)

    def test_p5_read(self, tmp_path):
        p = tmp_path / "bin.pgm"
        data = bytes(range(12))
        p.write_bytes(b"P5\n# comment\n4 3\n255\n" + data)
        img = read_pgm(p)
        assert img.shape == (3, 4)
        assert img[0, 0] == 0 and img[2, 3] == 11

    def test_p5_16bit(self, tmp_path):
        p = tmp_path / "wide.pgm"
        vals = np.array([[256, 1], [65535, 0]], dtype=">u2")
        p.write_bytes(b"P5 2 2 65535\n" + vals.tobytes())
        img = read_pgm(p)
        assert img[0, 0] == 256 and img[1, 0] == 65535

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"#",
                                     b"P5", b"7", b"\x00", b"\x1c", b"\x85", b"\xff"]),
                    max_size=24))
    def test_tokens_match_a_byte_scanner(self, parts):
        # reference: scan byte by byte; whitespace is bytes.isspace, and a
        # '#' outside a token starts a comment that runs to \n or \r
        raw = b"".join(parts)
        expected, i = [], 0
        while i < len(raw):
            if raw[i:i + 1].isspace():
                i += 1
            elif raw[i:i + 1] == b"#":
                while i < len(raw) and raw[i:i + 1] not in (b"\n", b"\r"):
                    i += 1
            else:
                j = i
                while j < len(raw) and not raw[j:j + 1].isspace() and raw[j:j + 1] != b"#":
                    j += 1
                expected.append((raw[i:j], j))
                i = j
        assert list(weightopt.io._pgm_tokens(raw)) == expected

    def test_mask_file_domain(self, tmp_path):
        mask = np.zeros((5, 6), dtype=np.uint8)
        mask[1:4, 1:5] = 7  # nonzero = in-domain
        p = tmp_path / "mask.pgm"
        write_pgm(p, mask)
        dom = domain_from_config(
            {"shape": "mask_file", "mask_path": "mask.pgm", "h": 0.5}, tmp_path
        )
        assert dom.n_cells == 12

    def test_heatmap_range(self):
        dom = make_rectangle(3, 3, 1.0)
        f = dom.field(np.linspace(-1.0, 1.0, dom.n_cells))
        img = heatmap_image(f)
        assert img.min() == 0 and img.max() == 255
        assert img[0, 0] == 0  # out-of-domain background
        flat = heatmap_image(dom.constant_field(3.0))
        assert flat[dom.mask].min() == 255

    def test_heatmap_of_the_largest_doubles(self):
        # hi - lo overflows; the map goes through halves
        dom = make_rectangle(3, 3, 1.0)
        img = heatmap_image(dom.field([-1e308, 0.0, 1e308] * 3))
        assert img[dom.cell_rows, dom.cell_cols].tolist() == [0, 128, 255] * 3


class TestDomainConfig:
    def test_rectangle_and_ellipse(self):
        rect = domain_from_config({"shape": "rectangle", "nx": 8, "ny": 6, "h": 0.5})
        assert rect.n_cells == 48
        ell = domain_from_config(
            {"shape": "ellipse", "nx": 33, "ny": 33, "h": 1 / 32,
             "semi_axes": [0.5, 0.5]}
        )
        assert ell.axis is not None

    def test_unknown_shape(self):
        with pytest.raises(ValueError):
            domain_from_config({"shape": "triangle"})


class TestRunConfig:
    def test_malformed_json_reports_line(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{\n "task": "eig",\n  oops\n}\n')
        from weightopt.cli import ConfigError

        with pytest.raises(ConfigError, match=r":3:"):
            RunConfig.load(p)

    def test_task_override_conflict(self, tmp_path):
        p = write_config(tmp_path / "c.json", task="eig")
        from weightopt.cli import ConfigError

        with pytest.raises(ConfigError):
            RunConfig.load(p, task_override="optimize")

    def test_defaults(self, tmp_path):
        p = write_config(tmp_path / "c.json", task="eig")
        cfg = RunConfig.load(p)
        assert cfg.seeds == 8


class TestRunTask:
    def test_eig_run_and_artifacts(self, tmp_path):
        p = write_config(tmp_path / "c.json", task="eig", heatmap=True)
        assert run(p) == 0
        out = tmp_path / "out"
        results = json.loads((out / "results.json").read_text())
        assert results["lambda"] > 0
        assert (out / "weight.csv").exists()
        assert (out / "eigenfunction.csv").exists()
        assert (out / "heatmap.pgm").read_text().startswith("P2")
        u = read_field_csv(out / "eigenfunction.csv")
        assert u.values.min() > 0

    def test_infeasible_exits_2(self, tmp_path):
        p = write_config(
            tmp_path / "c.json", task="optimize",
            single_class={"m1": 1.0, "m2": 1.0, "m3": 100.0},
        )
        assert run(p) == 2

    def test_malformed_exits_1(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        assert run(p) == 1

    def test_optimize_run(self, tmp_path):
        p = write_config(
            tmp_path / "c.json", task="optimize",
            domain={"shape": "rectangle", "nx": 10, "ny": 10, "h": 1 / 11},
            single_class={"m1": 1.0, "m2": 1.0, "m3": 0.1},
            seeds=2,
        )
        assert run(p) == 0
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        lam = results["lambda_history"]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(lam, lam[1:]))
        assert results["stabilized"] is True

    def test_determinism_byte_identical(self, tmp_path):
        # 8 x 8 cells solve densely, 12 x 12 by Lanczos
        assert 8 * 8 <= weightopt.eig.DENSE_MAX_CELLS < 12 * 12
        for n in (8, 12):
            domain = {"shape": "rectangle", "nx": n, "ny": n, "h": 1 / (n + 1)}
            omega = n * n / (n + 1) ** 2
            tasks = {
                "optimize": {"single_class": {"m1": 1.0, "m2": 1.0, "m3": 0.0}},
                "optimize2": {"classes": [{"p": 0.5, "q": 2.0, "l": omega},
                                          {"p": 1.0, "q": 0.5, "l": -omega / 4}]},
                "remark": {},
            }
            for task, fields in tasks.items():
                p = write_config(tmp_path / f"{task}{n}.json", task=task, domain=domain,
                                 seeds=2, seed=11, **fields)
                a, b = tmp_path / f"{task}{n}" / "a", tmp_path / f"{task}{n}" / "b"
                assert run(p, out_dir=str(a)) == 0
                assert run(p, out_dir=str(b)) == 0
                for name in ("results.json", "weight.csv", "eigenfunction.csv"):
                    assert (a / name).read_bytes() == (b / name).read_bytes(), (n, task, name)

    def test_constant_weight_class_optimizes(self, tmp_path):
        # e = 0.02 rounds to no cell, so every cell takes -m2 = 0.5 > 0: the
        # class holds one constant weight, whose λ is the optimum
        p = write_config(
            tmp_path / "c.json", task="optimize",
            domain={"shape": "rectangle", "nx": 6, "ny": 5, "h": 0.5},
            single_class={"m1": 1.0, "m2": -0.5, "m3": 3.76}, seeds=2,
        )
        assert run(p) == 0
        out = tmp_path / "out"
        results = json.loads((out / "results.json").read_text())
        dom = make_rectangle(6, 5, 0.5)
        weight = read_field_csv(out / "weight.csv", dom)
        assert np.array_equal(weight.values, np.full(dom.n_cells, 0.5))
        lam = weightopt.verify.dense_lambda1(dom.constant_field(0.5))
        assert results["lambda"] == pytest.approx(lam, rel=1e-10)

    def test_symmetrize_run(self, tmp_path):
        p = write_config(
            tmp_path / "c.json", task="symmetrize",
            weight={"kind": "bang_bang", "m1": 1.0, "m2": 1.0, "m3": 0.2},
            seeds=1,
        )
        assert run(p) == 0
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        assert results["defect_after"] == 0.0
        assert results["defect_before"] > 0.0

    def test_symmetry_defect_does_not_depend_on_h(self, tmp_path):
        # the cell area cancels in the defect, also where h² is far below
        # the denominator's floor
        results = []
        for h in (0.5, 1e-17):
            p = write_config(
                tmp_path / "c.json", task="symmetrize",
                domain={"shape": "rectangle", "nx": 6, "ny": 5, "h": h},
                weight={"kind": "bang_bang", "m1": 1.0, "m2": 1.0, "m3": 0.0},
            )
            assert run(p, out_dir=str(tmp_path / str(h))) == 0
            results.append(json.loads((tmp_path / str(h) / "results.json").read_text()))
        assert results[0]["defect_before"] > 0.0
        assert results[1]["defect_before"] == results[0]["defect_before"]

    def test_csv_weight_input(self, tmp_path):
        dom = make_rectangle(12, 10, 0.1)
        rng = np.random.default_rng(5)
        vals = rng.uniform(-1, 1, dom.n_cells)
        vals[0] = 1.0
        write_field_csv(tmp_path / "w.csv", dom.field(vals))
        p = write_config(tmp_path / "c.json", task="eig",
                         weight={"kind": "csv", "path": "w.csv"})
        assert run(p) == 0

    def test_scattered_small_share_csv_weight_solves(self, tmp_path):
        # a favourable 5 of the 16-grid box's 256 cells, scattered: the cold
        # pass converges at the stop of every other pass, where a stop at
        # machine precision hit the A-solve cap and exited 3
        dom = make_rectangle(16, 16, 1 / 17)
        vals = np.where(np.random.default_rng([1, 256]).permutation(256) < 5, 1.0, -1.0)
        write_field_csv(tmp_path / "w.csv", dom.field(vals))
        p = write_config(tmp_path / "c.json", task="eig",
                         domain={"shape": "rectangle", "nx": 16, "ny": 16, "h": 1 / 17},
                         weight={"kind": "csv", "path": "w.csv"})
        assert run(p) == 0
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        assert results["lambda"] == pytest.approx(982.6368099120417, rel=0, abs=1e-8)

    def test_grid_override(self, tmp_path):
        p = write_config(tmp_path / "c.json", task="eig")
        assert run(p, grid_n=16, out_dir=str(tmp_path / "o")) == 0
        lines = (tmp_path / "o" / "weight.csv").read_text().splitlines()
        assert lines[1].startswith("18,18,")  # 16 cells + padding ring

    def test_eig_constant_weight_matches_analytic(self, tmp_path):
        p = write_config(
            tmp_path / "c.json", task="eig",
            domain={"shape": "rectangle", "nx": 64, "ny": 64, "h": 1 / 65},
        )
        assert run(p) == 0
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        assert results["lambda"] == pytest.approx(2 * np.pi**2, rel=0.01)

    def test_remark_task_strict_ordering(self, tmp_path):
        p = write_config(
            tmp_path / "c.json", task="remark",
            domain={"shape": "rectangle", "nx": 10, "ny": 10, "h": 1 / 11},
            seeds=3,
        )
        assert run(p) == 0
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        assert results["lambda_two_resource"] > results["lambda_single"]
        assert results["single_beats_two_resource"] is True

    def test_optimize2_task(self, tmp_path):
        omega = 12 * 10 * 0.1 * 0.1
        p = write_config(
            tmp_path / "c.json", task="optimize2",
            classes=[
                {"p": 0.0, "q": 1.0, "l": 2 * omega / 3},
                {"p": 1.0, "q": 0.0, "l": -omega / 2},
            ],
            seeds=2,
        )
        assert run(p) == 0
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        assert results["levels"] == {"top": 1.0, "mid": 0.0, "bot": -1.0}
        assert results["measure_E"] <= results["measure_G"]


# (p, q, l) of two classes on the 6 x 5 rectangle with h = 0.5, |Ω| = 7.5,
# and the levels whose set quantization leaves empty
OPTIMIZE2_CLASS_PAIRS = {
    "e1_gt_e2": (((0.5, 2.0, 8.75), (1.0, 0.5, -3.75)), ()),     # e = 5, 2.5
    "e1_lt_e2": (((1.0, 0.5, -3.75), (0.5, 1.5, 5.25)), ()),     # e = 2.5, 4.5
    "e1_eq_e2": (((1.0, 1.0, 0.0), (2.0, 2.0, 0.0)), ("mid",)),  # e = 3.75, 3.75
    "quantized_tie": (((1.0, 2.0, 3 * 3.76 - 7.5), (1.0, 1.0, 0.0)), ("mid",)),  # e = 3.76, 3.75
    "saturated": (((1, 1, 7.4), (1, 1, 0)), ("bot",)),            # e = 7.45, 3.75
}


@pytest.mark.parametrize("pair, empty", OPTIMIZE2_CLASS_PAIRS.values(),
                         ids=OPTIMIZE2_CLASS_PAIRS.keys())
def test_optimize2_levels_follow_the_classes(tmp_path, pair, empty):
    """levels, level-set measures and realized integrals depend only on the
    classes and their half-up quantized cell counts, not on the arrangement.
    The middle level is q1 - p2 when e1 > e2 and q2 - p1 when e1 < e2; a
    level is null where quantization leaves its set empty: G∖E when both e
    round to the same cell count (equal e, and the tie: both round to 15
    cells), Ω∖G when a level set rounds to every cell (saturated)."""
    area, omega = 0.25, 7.5
    config = write_config(
        tmp_path / "c.json", task="optimize2",
        domain={"shape": "rectangle", "nx": 6, "ny": 5, "h": 0.5},
        classes=[dict(zip("pql", c)) for c in pair], seeds=1,
    )
    assert run(config) == 0
    results = json.loads((tmp_path / "out" / "results.json").read_text())
    (p1, q1, l1), (p2, q2, l2) = pair
    e1, e2 = (p1 * omega + l1) / (p1 + q1), (p2 * omega + l2) / (p2 + q2)
    k1, k2 = (int(np.floor(e / area + 0.5)) for e in (e1, e2))
    mid = q1 - p2 if e1 > e2 else q2 - p1 if e1 < e2 else 0.0
    levels = {"top": q1 + q2, "mid": mid, "bot": -(p1 + p2)}
    assert results["levels"] == {**levels, **dict.fromkeys(empty)}
    assert results["measure_E"] == min(k1, k2) * area
    assert results["measure_G"] == max(k1, k2) * area
    assert results["realized_integrals"] == [
        q * k * area - p * (omega - k * area) for p, q, k in ((p1, q1, k1), (p2, q2, k2))
    ]


# the 17 x 17 grid of `--grid 16` holds 193 disk cells, above
# DENSE_MAX_CELLS, so both symmetrize solves run ARPACK
SYM_DISK = {"task": "symmetrize",
            "domain": {"shape": "ellipse", "nx": 17, "ny": 17, "h": 1 / 16,
                       "semi_axes": [0.5, 0.5]},
            "weight": {"kind": "bang_bang", "m1": 1.0, "m2": 1.0, "m3": math.pi / 24}}


class TestSymmetrizeWarmStart:
    """symmetrize solves m and m♯ alike, without a start vector."""

    def _run(self, tmp_path, seed=0):
        p = write_config(tmp_path / "c.json", **SYM_DISK)
        return run(p, seed=seed)

    def test_both_solves_run_without_u0(self, tmp_path, monkeypatch):
        assert make_ellipse(17, 17, 1 / 16, (0.5, 0.5)).n_cells > weightopt.eig.DENSE_MAX_CELLS
        calls = []

        def recording(domain, m, **kwargs):
            calls.append(kwargs)
            return weightopt.eig.principal_positive_eigenvalue(domain, m, **kwargs)

        monkeypatch.setattr("weightopt.cli.principal_positive_eigenvalue", recording)
        assert self._run(tmp_path) == 0
        assert calls == [{}, {}]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lambda_after_matches_a_cold_solve(self, tmp_path, seed):
        assert self._run(tmp_path, seed) == 0
        out = tmp_path / "out"
        results = json.loads((out / "results.json").read_text())
        domain = make_ellipse(17, 17, 1 / 16, (0.5, 0.5))
        m_sym = read_field_csv(out / "weight.csv", domain)
        cold = weightopt.eig.principal_positive_eigenvalue(domain, m_sym)
        assert results["lambda_after"] == cold.lambda1
        assert results["lambda_after"] <= results["lambda_before"]
        u = read_field_csv(out / "eigenfunction.csv", domain).values
        assert u.tobytes() == cold.u.values.tobytes()

    def test_failed_second_solve_exits_3(self, tmp_path, monkeypatch, capsys):
        calls = []

        def second_fails(domain, m, **kwargs):
            calls.append(kwargs)
            if len(calls) == 2:
                raise weightopt.eig.NoConvergence("second solve refused")
            return weightopt.eig.principal_positive_eigenvalue(domain, m, **kwargs)

        monkeypatch.setattr("weightopt.cli.principal_positive_eigenvalue", second_fails)
        assert self._run(tmp_path) == 3
        assert calls == [{}, {}]
        assert capsys.readouterr().err == "no convergence: second solve refused\n"
        assert not (tmp_path / "out").exists()


def annulus_config(tmp_path: Path, task: str, **fields) -> Path:
    """The 15 x 15 annulus of radii 2.5 to 6, h = 0.1: mirror-symmetric about
    both center lines, but its middle rows and columns are split in two."""
    i = np.arange(15) - 7
    r = np.hypot(i[:, None], i[None, :])
    write_pgm(tmp_path / "annulus.pgm", np.where((2.5 <= r) & (r <= 6), 255, 0))
    domain = {"shape": "mask_file", "mask_path": "annulus.pgm", "h": 0.1}
    return write_config(tmp_path / f"{task}.json", task=task, domain=domain, seeds=2, **fields)


class TestAnnulus:
    """A mirror-symmetric domain that is not Steiner-symmetric has no axis."""

    def test_domain_has_no_axis(self, tmp_path):
        dom = domain_from_config(json.loads(annulus_config(tmp_path, "eig").read_text())["domain"],
                                 tmp_path)
        assert np.array_equal(dom.mask, dom.mask[:, ::-1])
        assert np.array_equal(dom.mask, dom.mask.T)
        assert dom.axis is None

    def test_optimize_writes_null_defects(self, tmp_path):
        p = annulus_config(tmp_path, "optimize",
                           single_class={"m1": 1.0, "m2": 1.0, "m3": 0.1})
        assert run(p) == 0
        results = json.loads((tmp_path / "out" / "results.json").read_text())
        assert results["symmetry_defect_vertical"] is None
        assert results["symmetry_defect_horizontal"] is None
        assert (tmp_path / "out" / "weight.csv").exists()

    NO_AXIS_LINES = {
        "symmetrize": "infeasible: domain is not Steiner-symmetric about its vertical center line",
        "remark": "infeasible: comparison domain must carry a symmetry axis",
    }

    @pytest.mark.parametrize("task, target", [
        ("symmetrize", "weightopt.cli.principal_positive_eigenvalue"),
        ("remark", "weightopt.optimize.optimize_two"),
    ])
    def test_exits_2_before_any_solve(self, tmp_path, monkeypatch, capsys, task, target):
        def refuse(*args, **kwargs):
            raise AssertionError("solved on a domain without an axis")

        monkeypatch.setattr(target, refuse)
        p = annulus_config(tmp_path, task,
                           weight={"kind": "bang_bang", "m1": 1.0, "m2": 1.0, "m3": 0.1})
        assert run(p) == 2
        err = capsys.readouterr().err
        assert err == self.NO_AXIS_LINES[task] + "\n", err
        assert not (tmp_path / "out").exists()


def split_mask_config(tmp_path: Path, name: str, task: str) -> Path:
    mask, h = SPLIT_MASKS[name]
    write_pgm(tmp_path / f"{name}.pgm", mask.astype(np.uint8))
    domain = {"shape": "mask_file", "mask_path": f"{name}.pgm", "h": h}
    return write_config(tmp_path / f"{task}.json", task=task, domain=domain, verify_trials=2,
                        single_class={"m1": 1.0, "m2": 1.0, "m3": 0.0})


@pytest.mark.parametrize("name, task", [("row", "eig"), ("corner", "eig"), ("blocks", "eig"),
                                        ("row", "optimize")])
def test_split_mask_exits_2(tmp_path, capsys, name, task):
    assert run(split_mask_config(tmp_path, name, task)) == 2
    err = capsys.readouterr().err
    assert err == "infeasible: in-domain cells are not one 4-connected set: 2 components\n"
    assert not (tmp_path / "out").exists()


def test_verify_runs_on_a_split_mask(tmp_path):
    # verify never solves on the configured domain
    assert run(split_mask_config(tmp_path, "row", "verify")) == 0


# every check of weightopt verify, in the order it prints them
VERIFY_CHECKS = [
    "hl_inequality", "hl_pairing_equality", "pair_family_sum_profile",
    "precedes_reflexive", "precedes_mean_constant",
    "precedes_antisymmetry_up_to_equimeasurability", "equimeasurable_under_transforms",
    "steiner_measure_preserved", "steiner_equimeasurable", "steiner_idempotent",
    "steiner_superlevel_consistency", "steiner_monotone_transform_commutes",
    "steiner_hardy_littlewood",
    "descent_lambda_history", "descent_fixed_point_comonotone", "descent_class_preserved",
    "oracle_hl_bound_vs_permutations", "oracle_subset_supremum",
    "oracle_optimizer_vs_enumeration",
]


def _one_solve_of_the_random_start(monkeypatch):
    """optimize_single capped at one eigensolve per seed, of the random
    arrangement itself: the start's A-solve is replaced by the identity, so
    the cells are ranked by the arrangement's own values.  The cap alone
    passes descent_fixed_point_comonotone: the smoothed start is already a
    comonotone step."""
    optimize_single = weightopt.verify.optimize_single

    def capped(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(weightopt.optimize, "MAX_FIXED_POINT_ITERS", 1)
            m.setattr(weightopt.optimize, "_factored_stiffness",
                      lambda domain: (None, None, lambda x: x))
            return optimize_single(*args, **kwargs)
    return capped


class TestVerifyTask:
    def test_verify_passes(self, tmp_path):
        p = write_config(tmp_path / "c.json", task="verify", verify_trials=15)
        assert run(p, out_dir=str(tmp_path / "v"), task="verify") == 0
        results = json.loads((tmp_path / "v" / "results.json").read_text())
        assert results["all_passed"] is True

    def test_run_all_returns_python_bools(self, small_rect):
        # results.json is written with no conversion of numpy scalars
        checks = weightopt.verify.run_all(small_rect, rng_seed=0, trials=2)
        assert [name for name, passed in checks.items() if type(passed) is not bool] == []

    def test_broken_tie_rule_negative_control(self, tmp_path, monkeypatch):
        def right_biased_symmetrize_set(domain, mask):
            # the extra cell of a parity mismatch goes to the higher column
            # index, against the rule symmetrize_function follows
            out = np.zeros_like(mask)
            for row, start, stop in row_intervals(domain):
                k = int(mask[row, start:stop].sum())
                first = start + (stop - start - k + 1) // 2
                out[row, first:first + k] = True
            return out

        monkeypatch.setattr(weightopt.verify, "symmetrize_set", right_biased_symmetrize_set)
        p = write_config(tmp_path / "c.json", task="verify", verify_trials=10)
        assert run(p, out_dir=str(tmp_path / "v"), task="verify") == 4
        results = json.loads((tmp_path / "v" / "results.json").read_text())
        assert results["checks"]["steiner_superlevel_consistency"] is False
        failed = [k for k, v in results["checks"].items() if not v]
        assert failed == ["steiner_superlevel_consistency"]

    def test_verify_prints_every_check_in_suite_order(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.json", task="verify", verify_trials=2)
        assert run(p, out_dir=str(tmp_path / "v"), task="verify") == 0
        assert capsys.readouterr().out.splitlines() == [f"PASS {name}" for name in VERIFY_CHECKS]
        results = json.loads((tmp_path / "v" / "results.json").read_text())
        assert results["checks"] == dict.fromkeys(VERIFY_CHECKS, True)

    @pytest.mark.parametrize("cut, checks", [
        (False, VERIFY_CHECKS),
        (True, [name for name in VERIFY_CHECKS if not name.startswith("steiner_")]),
    ], ids=["disk", "disk-without-axis"])
    def test_verify_on_a_mask_file_disk(self, tmp_path, capsys, cut, checks):
        # the 11 x 11 disk of radius 4.6 cells has a Steiner axis; without
        # cell (5, 2) its row 5 splits, so it has none and the Steiner suite
        # is left out, while the other 13 checks run and are reported
        i = np.arange(11) - 5
        mask = np.hypot(i[:, None], i[None, :]) <= 4.6
        mask[5, 2] = not cut
        write_pgm(tmp_path / "disk.pgm", mask.astype(np.uint8))
        domain = {"shape": "mask_file", "mask_path": "disk.pgm", "h": 0.1}
        assert (domain_from_config(domain, tmp_path).axis is None) == cut
        p = write_config(tmp_path / "c.json", task="verify", domain=domain, verify_trials=2)
        assert run(p, out_dir=str(tmp_path / "v"), task="verify") == 0
        assert capsys.readouterr().out.splitlines() == [f"PASS {name}" for name in checks]
        results = json.loads((tmp_path / "v" / "results.json").read_text())
        assert results["checks"] == dict.fromkeys(checks, True)
        assert results["all_passed"] is True

    @pytest.mark.parametrize("target, breakage, failing", [
        ("hl_pairing", lambda monkeypatch: lambda f, g: g, ["hl_pairing_equality"]),
        ("precedes", lambda monkeypatch: lambda g, f: False,
         ["precedes_reflexive", "precedes_mean_constant",
          "precedes_antisymmetry_up_to_equimeasurability"]),
        ("optimize_single", _one_solve_of_the_random_start,
         ["descent_fixed_point_comonotone", "oracle_optimizer_vs_enumeration"]),
    ], ids=["hl-pairing-returns-g", "precedes-always-false", "optimizer-one-step"])
    def test_broken_library_negative_control(self, tmp_path, monkeypatch, capsys,
                                             target, breakage, failing):
        # each suite reports exactly the checks that the broken function
        # falsifies, and every other check still passes
        monkeypatch.setattr(weightopt.verify, target, breakage(monkeypatch))
        p = write_config(tmp_path / "c.json", task="verify", verify_trials=10)
        assert run(p, out_dir=str(tmp_path / "v"), task="verify") == 4
        results = json.loads((tmp_path / "v" / "results.json").read_text())
        assert results["checks"] == {name: name not in failing for name in VERIFY_CHECKS}
        # results.json sorts its keys; stdout keeps the suites' order
        out = capsys.readouterr().out.splitlines()
        assert out == [f"{'FAIL' if name in failing else 'PASS'} {name}"
                       for name in VERIFY_CHECKS]

    @pytest.mark.parametrize("bad_trial", [0, 2, 4])
    def test_a_check_failing_in_one_trial_fails_the_suite(self, monkeypatch, bad_trial):
        calls = iter(range(5))
        hl_pairing = weightopt.verify.hl_pairing
        monkeypatch.setattr(weightopt.verify, "hl_pairing",
                            lambda f, g: g if next(calls) == bad_trial else hl_pairing(f, g))
        checks = weightopt.verify.check_hardy_littlewood(
            make_rectangle(6, 5, 0.5), np.random.default_rng(0), trials=5)
        assert checks == {"hl_inequality": True, "hl_pairing_equality": False,
                          "pair_family_sum_profile": True}


@pytest.mark.parametrize("value", [-1.0, 0.0], ids=["negative", "zero"])
def test_dense_lambda1_rejects_a_weight_without_positive_eigenvalue(small_rect, value):
    with pytest.raises(ValueError, match="no positive eigenvalue"):
        weightopt.verify.dense_lambda1(small_rect.constant_field(value))


class TestCliEntry:
    def test_console_invocation(self, tmp_path):
        p = write_config(tmp_path / "c.json")
        proc = subprocess.run(
            [sys.executable, "-m", "weightopt.cli", "eig",
             "--config", str(p), "--out", str(tmp_path / "o")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "o" / "results.json").exists()

    def test_unknown_task_rejected(self, tmp_path):
        p = write_config(tmp_path / "c.json")
        proc = subprocess.run(
            [sys.executable, "-m", "weightopt.cli", "fly", "--config", str(p)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1  # a usage error is malformed input
        assert proc.stderr.count("\n") == 1

    def test_unrepresentable_lambda_prints_one_line(self, tmp_path):
        # m h² = 2.5e-323 leaves 1/μ beyond the doubles; warnings, which the
        # in-process exit-code table does not see, would add stderr lines
        p = write_config(tmp_path / "c.json", domain=RECT,
                         weight={"kind": "constant", "value": 1e-322})
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "weightopt.cli", "eig", "--config", str(p)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("no convergence: ")
        assert proc.stderr.count("\n") == 1, proc.stderr

    @pytest.mark.parametrize("nx, ny, value", [(20, 20, 1e307), (6, 5, 1e308)],
                             ids=["lanczos", "dense"])
    def test_overflowing_mu_prints_one_line(self, tmp_path, nx, ny, value):
        # at h = 1, μ = 1/λ₁ is beyond the doubles: Lanczos μ times 2^e on
        # 400 cells, and dsyevr's μ of the overflowing whitened pencil on 30
        p = write_config(tmp_path / "c.json",
                         domain={"shape": "rectangle", "nx": nx, "ny": ny, "h": 1.0},
                         weight={"kind": "constant", "value": value})
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "weightopt.cli", "eig", "--config", str(p)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("no convergence: μ = 1/λ₁ overflows a double")
        assert proc.stderr.count("\n") == 1, proc.stderr

    @pytest.mark.parametrize("argv, code", [
        (["eig", "--config", "c.json", "--seed", "x"], 1),
        (["eig"], 1),
        (["--help"], 0),
    ])
    def test_usage_exit_codes(self, argv, code, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == code
        if code:
            assert capsys.readouterr().err.startswith("error: ")


# config fields and CLI arguments -> exit code; relative file names resolve
# in the test's directory, which holds the files that _exit_case_files writes
RECT = {"shape": "rectangle", "nx": 6, "ny": 5, "h": 0.5}
SINGLE = {"task": "optimize", "single_class": {"m1": 1.0, "m2": 1.0, "m3": 1.25}}
MALFORMED_PGMS = {
    "sample-above-maxval": b"P2 3 3 1\n0 1 0\n1 5 1\n0 1 0\n",
    "negative-sample": b"P2 3 3 1\n0 1 0\n1 -1 1\n0 1 0\n",
    "p2-maxval-70000": b"P2 3 3 70000\n0 1 0\n1 1 1\n0 1 0\n",
    "p5-maxval-70000": b"P5 3 3 70000\n" + np.ones(9, dtype=">u2").tobytes(),
    "p2-sample-beyond-int64": b"P2 3 1 255\n1 100000000000000000000000 1\n",
    "p5-width-beyond-int64": b"P5 100000000000000000000000 1 255\n\x01",
    "wrong-magic": b"P3 3 3 1\n0 1 0\n1 1 1\n0 1 0\n",
    "truncated-header": b"P2 3 3\n",
    "zero-width": b"P2 0 3 1\n",
    "short-p5-body": b"P5 3 3 255\n\x00\x01\x00\x01",
}
EXIT_CASES = {
    "eig-runs": ({}, [], 0),
    # λ₁ and λ₂ agree to rounding: the solver's eigenvector changes sign,
    # and its |u| is accepted
    "eig-on-a-near-double-lambda1": ({"domain": {"shape": "mask_file",
                                                 "mask_path": "dumbbell.pgm", "h": 0.1}}, [], 0),
    "csv-weight-without-path": ({"weight": {"kind": "csv"}}, [], 1),
    "unknown-weight-kind": ({"weight": {"kind": "gaussian"}}, [], 1),
    "zero-seeds": ({**SINGLE, "seeds": 0}, [], 1),
    "seeds-not-a-number": ({**SINGLE, "seeds": "many"}, [], 1),
    # the eigenpair residual bound is eig.EIG_RESIDUAL_RTOL, set by no config:
    # `tolerances` is an unknown key, whatever its value
    "tolerances-not-an-object": ({"tolerances": 5}, [], 1),
    "dead-tolerance-key": ({"tolerances": {"integral_rel": 1e-12}}, [], 1),
    "tolerances-is-an-unknown-key": ({"tolerances": {"eig_residual": 1e-8}}, [], 1),
    "missing-config-file": ({}, ["--config", "absent.json"], 1),  # the last --config wins
    "missing-mask-file": ({"domain": {"shape": "mask_file", "mask_path": "absent.pgm",
                                      "h": 0.5}}, [], 1),
    "malformed-mask-file": ({"domain": {"shape": "mask_file", "mask_path": "bad.pgm",
                                        "h": 0.5}}, [], 1),
    "missing-csv-file": ({"weight": {"kind": "csv", "path": "absent.csv"}}, [], 1),
    "csv-of-another-grid": ({"weight": {"kind": "csv", "path": "other.csv"}}, [], 1),
    "nx-not-an-integer": ({"domain": {**RECT, "nx": "a"}}, [], 1),
    "grid-zero": ({}, ["--grid", "0"], 1),
    "negative-seed": (SINGLE, ["--seed", "-1"], 1),
    "heatmap-as-string": ({"heatmap": "no"}, [], 1),
    "weight-value-of-400-digits": ({"weight": {"kind": "constant", "value": 10**399}}, [], 1),
    "infeasible-constants": ({**SINGLE, "single_class": {"m1": 1.0, "m2": 1.0, "m3": 100.0}},
                             [], 2),
    # q|Ω| and p|Ω| are inf, then p + q
    "optimize2-constants-overflow": ({"task": "optimize2", "seeds": 1,
                                      "classes": [{"p": 0.0, "q": 1e308, "l": 1e307},
                                                  {"p": 1e308, "q": 0.0, "l": -1e307}]}, [], 2),
    "optimize-constants-overflow": ({**SINGLE, "single_class": {"m1": 1e308, "m2": 1e308,
                                                                "m3": 0.0}}, [], 2),
    # m h² near the largest double overflows no product of the Temple screen
    "optimize-constants-near-the-largest-double": ({**SINGLE, "single_class": {
        "m1": 1e307, "m2": 1e307, "m3": 0.0}}, [], 0),
    # on 400 cells Σ m and Σ m u² overflow in ∫m and the Hardy-Littlewood
    # check, and q k in optimize2's realized integrals: all three rescale
    "optimize-cell-sums-overflow": ({**SINGLE, "seeds": 1,
                                     "domain": {**RECT, "nx": 20, "ny": 20, "h": 0.05},
                                     "single_class": {"m1": 1e307, "m2": 1e307, "m3": 0.0}},
                                    [], 0),
    "optimize2-cell-products-overflow": ({"task": "optimize2", "seeds": 1,
                                          "domain": {**RECT, "nx": 20, "ny": 20, "h": 0.05},
                                          "classes": [{"p": 0.0, "q": 1e307, "l": 5e306},
                                                      {"p": 1e307, "q": 0.0, "l": -5e306}]},
                                         [], 0),
    # Σ|m| = 3e308 overflows in the symmetry defects, which rescale
    "symmetrize-weight-sum-overflows": ({"task": "symmetrize",
                                         "weight": {"kind": "bang_bang", "m1": 1e307,
                                                    "m2": 1e307, "m3": 0.0}}, [], 0),
    # e = 0.05 rounds to no cell of the one class, or of the first of two
    "optimize-empty-level-set": ({**SINGLE, "single_class": {"m1": 1.0, "m2": 1.0,
                                                             "m3": -7.4}}, [], 2),
    "optimize2-empty-level-set": ({"task": "optimize2", "seeds": 1,
                                   "classes": [{"p": 1.0, "q": 1.0, "l": -7.4},
                                               {"p": 1.0, "q": 1.0, "l": 0.0}]}, [], 2),
    "optimize2-sum-q-not-positive": ({"task": "optimize2", "seeds": 1,
                                      "classes": [{"p": 1.0, "q": 0.0, "l": -3.75},
                                                  {"p": 1.0, "q": 0.0, "l": -2.5}]}, [], 2),
    "remark-without-axis": ({"task": "remark", "seeds": 1,
                             "domain": {"shape": "mask_file", "mask_path": "lopsided.pgm",
                                        "h": 0.5}}, [], 2),
    "h-squared-underflows": ({"domain": {**RECT, "h": 1e-200}}, [], 2),
    "h-squared-overflows": ({"domain": {**RECT, "h": 1e200}}, [], 2),
    "grid-too-large-to-allocate": ({}, ["--grid", "2147483648"], 2),
    "weight-times-cell-area-overflows": ({"domain": {**RECT, "h": 1e150},
                                          "weight": {"kind": "constant", "value": 1e300}},
                                         [], 2),
    # m h² rounds to 0 on every cell
    "weight-times-cell-area-underflows": ({"weight": {"kind": "constant", "value": 5e-324}},
                                          [], 2),
    # m h² = 2.5e-323, so λ₁ = 1/μ overflows
    "lambda-not-a-finite-double": ({"weight": {"kind": "constant", "value": 1e-322}}, [], 3),
    # m h² = 2.5e-321 solves after scaling, but μ = 5.6e-320 is subnormal,
    # so λ₁ = 1/μ overflows
    "arpack-starting-vector-zero": ({"domain": {**RECT, "nx": 20, "ny": 20, "h": 0.05},
                                     "weight": {"kind": "constant", "value": 1e-318}}, [], 3),
    # malformed masks: a sample outside 0..maxval, a maxval outside 1..65535,
    # numbers beyond int64, and broken headers and bodies
    **{f"mask-{name}": ({"domain": {"shape": "mask_file", "mask_path": f"{name}.pgm",
                                    "h": 0.5}}, [], 1) for name in MALFORMED_PGMS},
    "optimize-without-single-class": ({"task": "optimize"}, [], 1),
    "optimize2-without-classes": ({"task": "optimize2"}, [], 1),
    "grid-on-a-mask-file": ({"domain": {"shape": "mask_file", "mask_path": "lopsided.pgm",
                                        "h": 0.5}}, ["--grid", "8"], 1),
    **{f"weight-csv-{name}": ({"weight": {"kind": "csv", "path": f"{name}.csv"}}, [], 1)
       for name in ("bad-header", "value-count", "nan-pattern")},
    "remark-ordering-fails": ({"task": "remark", "seeds": 2,
                               "domain": {"shape": "rectangle", "nx": 3, "ny": 3, "h": 0.1}},
                              [], 4),
}


def _exit_case_files(d: Path) -> None:
    lopsided = np.zeros((6, 7), dtype=np.uint8)
    lopsided[1:5, 1:4] = 1
    lopsided[1, 4] = 1
    write_pgm(d / "lopsided.pgm", lopsided)
    write_pgm(d / "dumbbell.pgm", dumbbell(6, 48).astype(np.uint8))
    (d / "bad.pgm").write_text("P2\n3 3\n255\n1 2\n")
    write_field_csv(d / "other.csv", make_rectangle(4, 4, 0.5).constant_field(1.0))
    for name, raw in MALFORMED_PGMS.items():
        (d / f"{name}.pgm").write_bytes(raw)
    write_field_csv(d / "good.csv", make_rectangle(6, 5, 0.5).constant_field(1.0))
    lines = (d / "good.csv").read_text().splitlines()
    (d / "bad-header.csv").write_text("\n".join(["nx,ny"] + lines[1:]))
    (d / "value-count.csv").write_text("\n".join(lines[:-1]))
    # the padding's first cell holds a number, where the domain has none
    (d / "nan-pattern.csv").write_text("\n".join(lines[:2] + ["1.0"] + lines[3:]))


# the whole stderr line of a row, where it is pinned and not only counted
EXIT_MESSAGES = {
    **{name: "error: c.json: tolerances: unexpected key"
       for name in ("tolerances-not-an-object", "dead-tolerance-key",
                    "tolerances-is-an-unknown-key")},
    "infeasible-constants": "infeasible: infeasible constants: need -7.5 < l=100.0 < 7.5",
    "optimize2-constants-overflow": "infeasible: constants overflow a double: "
                                    "p=0.0, q=1e+308, l=1e+307 on measure 7.5",
    "optimize-constants-overflow": "infeasible: constants overflow a double: "
                                   "p=1e+308, q=1e+308, l=0.0 on measure 7.5",
    **{name: "infeasible: the classes' quantized sum is never positive"
       for name in ("optimize-empty-level-set", "optimize2-empty-level-set",
                    "optimize2-sum-q-not-positive")},
    "weight-times-cell-area-underflows":
        "infeasible: need m h² > 0 on at least one in-domain cell",
}


@pytest.mark.parametrize("name, fields, args, code",
                         [(name, *case) for name, case in EXIT_CASES.items()],
                         ids=EXIT_CASES.keys())
def test_exit_code_table(tmp_path, monkeypatch, capsys, name, fields, args, code):
    monkeypatch.chdir(tmp_path)
    _exit_case_files(tmp_path)
    cfg = {"task": "eig", "domain": RECT, "output_dir": "out", **fields}
    Path("c.json").write_text(json.dumps(cfg))
    assert main([cfg["task"], "--config", "c.json", *args]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == (code != 0), err
    if name in EXIT_MESSAGES:
        assert err == EXIT_MESSAGES[name] + "\n", err


@pytest.mark.parametrize("raw", [b"[1, 2]", b'{"task": "eig\xff"}',
                                 b"[" * 100000 + b"]" * 100000],
                         ids=["root-not-an-object", "not-utf-8", "nested-100000-deep"])
def test_malformed_config_bytes_exit_1(tmp_path, monkeypatch, capsys, raw):
    monkeypatch.chdir(tmp_path)
    Path("c.json").write_bytes(raw)
    assert main(["eig", "--config", "c.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err


def _raise_arpack_error(*args, **kwargs):
    raise ArpackError(-9)


@pytest.mark.parametrize("name, replacement, nx, prefix", [
    ("dsyevr", lambda a, **kwargs: (None, None, 0, None, 1), 6, "no convergence: "),
    ("eigs", _raise_arpack_error, 26, "no convergence: "),
    # the all-ones vector misses the eigen-equation: the residual rule rejects it
    ("eigs", lambda op, **kwargs: (np.array([0.5 + 1e-3j]), np.ones((op.shape[0], 1), complex)),
     26, "no convergence: eigenpair rejected: residual 14.7, "),
], ids=["dsyevr", "eigs", "eigs-complex-ritz"])
def test_lapack_failure_exits_3(tmp_path, monkeypatch, capsys, name, replacement, nx, prefix):
    # a failed dense or Lanczos eigensolve is a solver failure, not
    # infeasible input
    assert (nx * RECT["ny"] > weightopt.eig.DENSE_MAX_CELLS) == (name == "eigs")
    monkeypatch.setattr(weightopt.eig, name, replacement)
    cfg = {**SINGLE, "domain": {**RECT, "nx": nx}, "output_dir": str(tmp_path / "out")}
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    assert main(["optimize", "--config", str(tmp_path / "c.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(prefix) and len(err.splitlines()) == 1, err


# the benchmark's three tasks: optimize2 on the 32-grid box (Lanczos path),
# symmetrize on the 48-grid disk, optimize on the 6 x 5 rectangle (dense)
CACHED_RUNS = {
    "optimize2-box": ({"task": "optimize2", "seeds": 1, "heatmap": True,
                       "domain": {"shape": "rectangle", "nx": 32, "ny": 32, "h": 1 / 33},
                       "classes": [{"p": 0.0, "q": 1.0, "l": 2 / 3 * (32 / 33) ** 2},
                                   {"p": 1.0, "q": 0.0, "l": -(32 / 33) ** 2 / 2}]},
                      ["--grid", "32"]),
    "symmetrize-disk": ({"task": "symmetrize", "heatmap": True,
                         "domain": {"shape": "ellipse", "nx": 49, "ny": 49, "h": 1 / 48,
                                    "semi_axes": [0.5, 0.5]},
                         "weight": {"kind": "bang_bang", "m1": 1.0, "m2": 1.0,
                                    "m3": math.pi / 24}},
                        ["--grid", "48"]),
    "optimize-rect": ({**SINGLE, "domain": RECT, "seeds": 2}, []),
}


@pytest.mark.parametrize("cfg, args", CACHED_RUNS.values(), ids=CACHED_RUNS.keys())
def test_second_run_reuses_the_factor(tmp_path, assemblies, cfg, args):
    # a run in the same process finds the first run's factor, and writes
    # the same bytes as the run that factored
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    for out in ("cold", "warm"):
        argv = [cfg["task"], "--config", str(tmp_path / "c.json"), *args, "--seed", "5"]
        assert main([*argv, "--out", str(tmp_path / out)]) == 0
    assert len(assemblies) == 1
    names = sorted(p.name for p in (tmp_path / "cold").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "warm").iterdir())
    for name in names:
        assert (tmp_path / "cold" / name).read_bytes() == (tmp_path / "warm" / name).read_bytes()


# numbers stay small and strings hold no digits, so that no reading of a size
# field, however lax, asks for more than 8 x 8 cells or two seeds
TEXT = st.text(st.characters(blacklist_categories=("Nd",)), max_size=4)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats(-2.5, 2.5)
    | st.sampled_from([math.nan, math.inf]) | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=5,
)
NUM = st.floats(-2, 2) | st.integers(-2, 2) | st.floats()
SIZE = st.integers(3, 8)
SPACING = st.floats(0.05, 1.0)
DOMAIN = st.one_of(
    st.fixed_dictionaries({"shape": st.just("rectangle"), "nx": SIZE, "ny": SIZE, "h": SPACING}),
    st.fixed_dictionaries({"shape": st.just("ellipse"), "nx": SIZE, "ny": SIZE, "h": SPACING,
                           "semi_axes": st.lists(st.floats(0.05, 0.6), min_size=2, max_size=2)}),
    st.fixed_dictionaries({"shape": st.just("mask_file"), "h": SPACING,
                           "mask_path": st.sampled_from(["disk.pgm", "bad.pgm", "absent.pgm"])}),
)
WEIGHT = st.one_of(
    st.fixed_dictionaries({"kind": st.just("constant")}, optional={"value": NUM}),
    st.fixed_dictionaries({"kind": st.just("csv"),
                           "path": st.sampled_from(["w.csv", "absent.csv"])}),
    st.fixed_dictionaries({"kind": st.just("bang_bang"), "m1": NUM, "m2": NUM, "m3": NUM}),
)


def _paths(node, at=()):
    """Paths to every value inside a JSON document, the root excluded."""
    items = node.items() if type(node) is dict else enumerate(node) if type(node) is list else ()
    for key, value in items:
        yield at + (key,)
        yield from _paths(value, at + (key,))


@st.composite
def fuzz_cases(draw):
    """(CLI task, config): a config of the right shape whose numbers are
    random, with up to two of its values deleted or replaced by any JSON
    value."""
    task = draw(st.sampled_from(TASKS))
    cfg = draw(st.fixed_dictionaries({
        "domain": DOMAIN,
        "single_class": st.fixed_dictionaries({"m1": NUM, "m2": NUM, "m3": NUM}),
        "classes": st.lists(st.fixed_dictionaries({"p": NUM, "q": NUM, "l": NUM}),
                            min_size=2, max_size=2),
    }, optional={
        "task": st.just(task),
        "weight": WEIGHT,
        "seeds": st.integers(1, 2),
        "seed": st.integers(0, 2**64 - 1),
        "output_dir": st.text(min_size=1, max_size=4),
        "heatmap": st.booleans(),
        "verify_trials": st.integers(1, 2),
    }))
    # deepest first, so that no replacement removes a path still to come
    for path in sorted(draw(st.lists(st.sampled_from(list(_paths(cfg))), max_size=2,
                                     unique=True)),
                       key=len, reverse=True):
        node = cfg
        for key in path[:-1]:
            node = node[key]
        if type(node) is dict and draw(st.booleans()):
            del node[path[-1]]
        else:
            node[path[-1]] = draw(JSON)
    return task, cfg


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=fuzz_cases(), grid=st.none() | st.integers(-1, 7),
       seed=st.none() | st.integers(-1, 2**64))
def test_fuzzed_config_exit_codes(case, grid, seed):
    """Random JSON in every config field exits with a documented code: grids of
    at most 8 x 8 cells, at most two seeds and two verify trials."""
    task, cfg = case
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        disk = np.zeros((7, 7), dtype=np.uint8)
        disk[2:5, 1:6] = disk[1:6, 2:5] = 1
        write_pgm(d / "disk.pgm", disk)
        (d / "bad.pgm").write_text("P5 2 2 255\n")
        write_field_csv(d / "w.csv", make_rectangle(6, 6, 0.2).constant_field(0.5))
        (d / "c.json").write_text(json.dumps(cfg))
        argv = [task, "--config", str(d / "c.json"), "--out", str(d / "out")]
        argv += [] if grid is None else ["--grid", str(grid)]
        argv += [] if seed is None else ["--seed", str(seed)]
        assert main(argv) in (0, 1, 2, 3, 4)
