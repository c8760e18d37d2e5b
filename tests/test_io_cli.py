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

import weightopt.eig
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
from weightopt.steiner import row_sections


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
        assert cfg.tolerances["eig_residual"] == 1e-8
        dead = write_config(tmp_path / "d.json", task="eig",
                            tolerances={"symmetry_defect": 0.02})
        assert run(dead) == 1


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
        lam = weightopt.verify.dense_lambda1(dom, dom.constant_field(0.5))
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

    def test_csv_weight_input(self, tmp_path):
        dom = make_rectangle(12, 10, 0.1)
        rng = np.random.default_rng(5)
        vals = rng.uniform(-1, 1, dom.n_cells)
        vals[0] = 1.0
        write_field_csv(tmp_path / "w.csv", dom.field(vals))
        p = write_config(tmp_path / "c.json", task="eig",
                         weight={"kind": "csv", "path": "w.csv"})
        assert run(p) == 0

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


class TestVerifyTask:
    def test_verify_passes(self, tmp_path):
        p = write_config(tmp_path / "c.json", task="verify", verify_trials=15)
        assert run(p, out_dir=str(tmp_path / "v"), task="verify") == 0
        results = json.loads((tmp_path / "v" / "results.json").read_text())
        assert results["all_passed"] is True

    def test_broken_tie_rule_negative_control(self, tmp_path, monkeypatch):
        def right_biased_symmetrize_set(domain, mask):
            # the extra cell of a parity mismatch goes to the higher column
            # index, against the rule symmetrize_function follows
            out = np.zeros_like(mask)
            for sec in row_sections(domain):
                k = int(mask[sec.row, sec.col_start:sec.col_stop].sum())
                start = sec.col_start + (sec.width - k + 1) // 2
                out[sec.row, start:start + k] = True
            return out

        monkeypatch.setattr(weightopt.verify, "symmetrize_set", right_biased_symmetrize_set)
        p = write_config(tmp_path / "c.json", task="verify", verify_trials=10)
        assert run(p, out_dir=str(tmp_path / "v"), task="verify") == 4
        results = json.loads((tmp_path / "v" / "results.json").read_text())
        assert results["checks"]["steiner_superlevel_consistency"] is False
        failed = [k for k, v in results["checks"].items() if not v]
        assert failed == ["steiner_superlevel_consistency"]


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
EXIT_CASES = {
    "eig-runs": ({}, [], 0),
    "csv-weight-without-path": ({"weight": {"kind": "csv"}}, [], 1),
    "unknown-weight-kind": ({"weight": {"kind": "gaussian"}}, [], 1),
    "zero-seeds": ({**SINGLE, "seeds": 0}, [], 1),
    "seeds-not-a-number": ({**SINGLE, "seeds": "many"}, [], 1),
    "tolerances-not-an-object": ({"tolerances": 5}, [], 1),
    "dead-tolerance-key": ({"tolerances": {"integral_rel": 1e-12}}, [], 1),
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
    "infeasible-constants": ({**SINGLE, "single_class": {"m1": 1.0, "m2": 1.0, "m3": 100.0}},
                             [], 2),
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
    "unreachable-eig-residual": ({"tolerances": {"eig_residual": 1e-300}}, [], 3),
    "remark-ordering-fails": ({"task": "remark", "seeds": 2,
                               "domain": {"shape": "rectangle", "nx": 3, "ny": 3, "h": 0.1}},
                              [], 4),
}


def _exit_case_files(d: Path) -> None:
    lopsided = np.zeros((6, 7), dtype=np.uint8)
    lopsided[1:5, 1:4] = 1
    lopsided[1, 4] = 1
    write_pgm(d / "lopsided.pgm", lopsided)
    (d / "bad.pgm").write_text("P2\n3 3\n255\n1 2\n")
    write_field_csv(d / "other.csv", make_rectangle(4, 4, 0.5).constant_field(1.0))


@pytest.mark.parametrize("fields, args, code", EXIT_CASES.values(), ids=EXIT_CASES.keys())
def test_exit_code_table(tmp_path, monkeypatch, capsys, fields, args, code):
    monkeypatch.chdir(tmp_path)
    _exit_case_files(tmp_path)
    cfg = {"task": "eig", "domain": RECT, "output_dir": "out", **fields}
    Path("c.json").write_text(json.dumps(cfg))
    assert main([cfg["task"], "--config", "c.json", *args]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == (code != 0), err


def test_lapack_failure_exits_3(tmp_path, monkeypatch, capsys):
    # a failed dense eigensolve is a solver failure, not infeasible input
    monkeypatch.setattr(weightopt.eig, "dsyevr", lambda a, **kwargs: (None, None, 0, None, 1))
    cfg = {**SINGLE, "domain": RECT, "output_dir": str(tmp_path / "out")}
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    assert main(["optimize", "--config", str(tmp_path / "c.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("no convergence: ") and len(err.splitlines()) == 1, err


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
        "tolerances": st.fixed_dictionaries({}, optional={
            "eig_residual": st.floats(1e-12, 1e-4)}),
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
