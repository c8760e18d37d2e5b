"""Command-line front end.

``weightopt <task> --config <path> [--out <dir>] [--seed <u64>] [--grid <n>]``

Tasks: eig, optimize, optimize2, symmetrize, verify, remark.  Each run
reads a JSON config, validates the whole config before any computation, and
writes results.json plus weight.csv / eigenfunction.csv (and an optional
heatmap.pgm).  Identical config and seed produce byte-identical artifacts.

Exit codes: 0 success, 1 bad usage, malformed config or unreadable file,
2 infeasible constants or domain, 3 eigensolver non-convergence,
4 verification failure.  Every nonzero exit prints one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io as wio
from . import verify as wverify
from .eig import NoConvergence, principal_positive_eigenvalue
from .grid import GridDomain, ScalarField, transpose_field, unit_scale
from .optimize import (
    DEFAULT_SEEDS,
    OptimizeReport,
    combined_profile,
    compare_split_vs_merged,
    decompose,
    optimize_single,
    optimize_two,
    random_arrangement,
    single_class,
)
from .rearrange import ResourceClass
from .steiner import _defect, symmetrize_function, symmetry_defect

TASKS = ("eig", "optimize", "optimize2", "symmetrize", "verify", "remark")


class ConfigError(ValueError):
    """Malformed or schema-invalid run configuration."""


def _finite(v) -> bool:
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:  # a JSON integer beyond the float range
        return False


# (test, what it asks for) of each kind of value; JSON types must match
# exactly, so true is no number and 2.0 is no integer
ANY = (lambda v: True, "")
NUMBER = (_finite, "a finite number")
POSITIVE = (lambda v: _finite(v) and v > 0, "a finite number > 0")
COUNT = (lambda v: type(v) is int and v >= 1, "an integer >= 1")
SEED = (lambda v: type(v) is int and 0 <= v < 2**64, "an integer in [0, 2**64)")
BOOL = (lambda v: type(v) is bool, "true or false")
PATH = (lambda v: type(v) is str and v != "" and "\0" not in v, "a non-empty path")
OBJECT = (lambda v: type(v) is dict, "an object")
PAIR = (lambda v: type(v) is list and len(v) == 2, "a list of two objects")
AXES = (lambda v: type(v) is list and len(v) == 2 and all(POSITIVE[0](a) for a in v),
        "two finite numbers > 0")

TOP_LEVEL = {
    "task": (lambda v: type(v) is str and v in TASKS, "one of " + ", ".join(TASKS)),
    "domain": OBJECT, "weight": OBJECT, "single_class": OBJECT, "classes": PAIR,
    "seeds": COUNT, "seed": SEED, "output_dir": PATH,
    "heatmap": BOOL, "verify_trials": COUNT,
}
SHAPES = {
    "rectangle": {"nx": COUNT, "ny": COUNT, "h": POSITIVE},
    "ellipse": {"nx": COUNT, "ny": COUNT, "h": POSITIVE, "semi_axes": AXES},
    "mask_file": {"mask_path": PATH, "h": POSITIVE},
}
WEIGHTS = {
    "constant": {"value": NUMBER},
    "csv": {"path": PATH},
    "bang_bang": {"m1": NUMBER, "m2": NUMBER, "m3": NUMBER},
}
TASK_NEEDS = {"optimize": "single_class", "optimize2": "classes"}


def _checked(name: str, value, kind: tuple):
    test, need = kind
    if not test(value):
        raise ConfigError(f"{name}: need {need}, got {value!r:.60}")
    return value


def _check_object(obj: dict, spec: dict, where: str, optional=()) -> dict:
    """`obj` holds no key outside `spec`, every key of `spec` but the
    `optional` ones, and values of their kinds; errors name ``where + key``."""
    for key in obj:
        if key not in spec:
            raise ConfigError(f"{where}{key}: unexpected key")
    for key, kind in spec.items():
        if key in obj:
            _checked(where + key, obj[key], kind)
        elif key not in optional:
            raise ConfigError(f"{where}{key}: missing, need {kind[1]}")
    return obj


def _tagged(obj: dict, tag: str, specs: dict, where: str, optional=()) -> dict:
    """An object whose `tag` value picks its spec among `specs`."""
    _checked(where + tag, obj.get(tag), (lambda v: type(v) is str and v in specs,
                                         "one of " + ", ".join(specs)))
    return _check_object(obj, {tag: ANY, **specs[obj[tag]]}, where, optional)


@dataclass
class RunConfig:
    task: str
    domain_cfg: dict
    weight_cfg: dict
    single_class: tuple[float, float, float] | None
    classes: tuple[tuple[float, float, float], tuple[float, float, float]] | None
    base_dir: Path  # relative file names in the config resolve here
    seeds: int = DEFAULT_SEEDS
    seed: int = 0
    output_dir: str = "."
    heatmap: bool = False
    verify_trials: int = 60

    @staticmethod
    def load(path: str | Path, task_override: str | None = None) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_bytes())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        except (ValueError, RecursionError) as exc:  # not UTF-8, nested too deep
            raise ConfigError(f"{path}: not a JSON document ({exc})") from exc
        if task_override is not None and type(raw) is dict:
            declared = raw.get("task")
            if declared is not None and declared != task_override:
                raise ConfigError(
                    f"{path}: config task {declared!r:.60} does not match CLI task {task_override!r}"
                )
            raw = {**raw, "task": task_override}
        return RunConfig.from_dict(raw, path)

    @staticmethod
    def from_dict(raw: dict, path: str | Path) -> "RunConfig":
        """Type- and range-check every field, the fields the task needs and
        the files the config names; any violation raises ConfigError."""
        where = f"{path}: "
        if type(raw) is not dict:
            raise ConfigError(f"{where}config root must be a JSON object")
        _check_object(raw, TOP_LEVEL, where, optional=TOP_LEVEL.keys() - {"task", "domain"})
        domain_cfg = _tagged(raw["domain"], "shape", SHAPES, where + "domain.")
        weight_cfg = _tagged(raw.get("weight", {"kind": "constant"}), "kind", WEIGHTS,
                             where + "weight.", optional=("value",))
        base_dir = Path(path).parent
        for name, rel in (("domain.mask_path", domain_cfg.get("mask_path")),
                          ("weight.path", weight_cfg.get("path"))):
            if rel is not None and not (base_dir / rel).is_file():
                raise ConfigError(f"{where}{name}: no such file {str(base_dir / rel)!r}")
        need = TASK_NEEDS.get(raw["task"])
        if need is not None and need not in raw:
            raise ConfigError(f"{where}{need}: missing, the {raw['task']} task needs it")
        single = raw.get("single_class")
        if single is not None:
            _check_object(single, dict.fromkeys(("m1", "m2", "m3"), NUMBER),
                          where + "single_class.")
            single = tuple(float(single[k]) for k in ("m1", "m2", "m3"))
        classes = raw.get("classes")
        if classes is not None:
            for i, c in enumerate(classes):
                _check_object(_checked(f"{where}classes[{i}]", c, OBJECT),
                              dict.fromkeys("pql", NUMBER), f"{where}classes[{i}].")
            classes = tuple(tuple(float(c[k]) for k in "pql") for c in classes)
        return RunConfig(
            task=raw["task"], domain_cfg=domain_cfg, weight_cfg=weight_cfg,
            single_class=single, classes=classes, base_dir=base_dir,
            **{k: raw[k] for k in ("seeds", "seed", "output_dir", "heatmap", "verify_trials")
               if k in raw},
        )


def _apply_grid_override(domain_cfg: dict, n: int) -> dict:
    """--grid n: rectangle -> n x n cells with h = 1/(n+1) (unit square);
    ellipse -> (n+1) x (n+1) grid with h = 1/n, semi-axes kept."""
    cfg = dict(domain_cfg)
    if cfg["shape"] == "rectangle":
        cfg.update(nx=n, ny=n, h=1.0 / (n + 1))
    elif cfg["shape"] == "ellipse":
        cfg.update(nx=n + 1, ny=n + 1, h=1.0 / n)
    else:
        raise ConfigError("--grid: applies to rectangle and ellipse shapes only")
    return cfg


def _build_weight(cfg: RunConfig, domain: GridDomain) -> ScalarField:
    wc = cfg.weight_cfg
    if wc["kind"] == "csv":
        return wio.read_field_csv(cfg.base_dir / wc["path"], domain)
    if wc["kind"] == "bang_bang":
        cls = single_class((wc["m1"], wc["m2"], wc["m3"]))
        return random_arrangement(combined_profile(domain, cls), domain,
                                  np.random.default_rng([cfg.seed, 0xBB]))
    return domain.constant_field(float(wc.get("value", 1.0)))


def _optimize_results(report: OptimizeReport, domain: GridDomain, seeds: int) -> dict:
    defect_v = symmetry_defect(report.weight) if domain.axis is not None else None
    wt = transpose_field(report.weight)
    defect_h = symmetry_defect(wt) if wt.domain.axis is not None else None
    return {
        "lambda": report.final.lambda1,
        "eig_iterations": report.final.iterations,
        "eig_residual": report.final.residual,
        "fixed_point_steps": len(report.lambda_history),
        "lambda_history": list(report.lambda_history),
        "stabilized": report.stabilized,
        "restarts_used": seeds,
        "symmetry_defect_vertical": defect_v,
        "symmetry_defect_horizontal": defect_h,
    }


def _bang_bang_integral(cls: ResourceClass, k: int, area: float, omega: float) -> float:
    """∫ of q on k cells and -p on the rest of |Ω|, with p and q scaled by
    ``grid.unit_scale``, so no product overflows."""
    (p, q), e = unit_scale([cls.p, cls.q])
    return float(np.ldexp(q * k * area - p * (omega - k * area), e))


def _run_task(cfg: RunConfig, domain: GridDomain
              ) -> tuple[dict, ScalarField | None, ScalarField | None]:
    """Run the configured task; returns (results without the task and seed,
    which ``run`` adds, weight, eigenfunction)."""
    if cfg.task == "eig":
        m = _build_weight(cfg, domain)
        pair = principal_positive_eigenvalue(domain, m)
        return {
            "lambda": pair.lambda1,
            "eig_iterations": pair.iterations,
            "eig_residual": pair.residual,
            "domain_measure": domain.total_measure,
        }, m, pair.u
    if cfg.task == "optimize":
        report = optimize_single(domain, cfg.single_class, cfg.seeds, rng_seed=cfg.seed)
        return {
            "domain_measure": domain.total_measure,
            "realized_integral": report.weight.integral(),
            **_optimize_results(report, domain, cfg.seeds),
        }, report.weight, report.final.u
    if cfg.task == "optimize2":
        omega, area = domain.total_measure, domain.cell_area
        classes = [ResourceClass(*c) for c in cfg.classes]
        report = optimize_two(domain, *classes, cfg.seeds, rng_seed=cfg.seed)
        w = report.weight.values
        # E: every part at its maximum, G: some part at its maximum
        at_max = np.array([part.values == cls.q
                           for part, cls in zip(decompose(report.weight, *classes), classes)])
        E, G = at_max.all(axis=0), at_max.any(axis=0)

        def level(cells: np.ndarray) -> float | None:
            """The weight's value on a level set, None where quantization empties it."""
            return float(w[cells][0]) if cells.any() else None

        return {
            "domain_measure": omega,
            "levels": {"top": level(E), "mid": level(G & ~E), "bot": level(~G)},
            "measure_E": float(E.sum()) * area,
            "measure_G": float(G.sum()) * area,
            "realized_integrals": [_bang_bang_integral(cls, k, area, omega)
                                   for cls, k in zip(classes, at_max.sum(axis=1))],
            **_optimize_results(report, domain, cfg.seeds),
        }, report.weight, report.final.u
    if cfg.task == "symmetrize":
        m = _build_weight(cfg, domain)
        m_sym = symmetrize_function(m)  # first: a domain without an axis solves nothing
        # m's solve starts from the torsion step, m♯'s warm from m's eigenfunction:
        # on the 48-grid disk 16.7 and 13.0 A-solves, 21.1 and 21 from all ones
        pair_before = principal_positive_eigenvalue(domain, m)
        pair_after = principal_positive_eigenvalue(domain, m_sym, u0=pair_before.u.values)
        return {
            "lambda_before": pair_before.lambda1,
            "lambda_after": pair_after.lambda1,
            "defect_before": _defect(m, m_sym),  # m♯ is built once
            "defect_after": symmetry_defect(m_sym),
        }, m_sym, pair_after.u
    if cfg.task == "remark":
        report_two, report_one = compare_split_vs_merged(domain, cfg.seeds, rng_seed=cfg.seed)
        lam_two = report_two.final.lambda1
        lam_single = report_one.final.lambda1
        # artifacts carry the winning (merged-constraint) arrangement
        return {
            "lambda_two_resource": lam_two,
            "lambda_single": lam_single,
            "single_beats_two_resource": lam_single < lam_two,
            **{f"single_{k}": v
               for k, v in _optimize_results(report_one, domain, cfg.seeds).items()},
        }, report_one.weight, report_one.final.u
    checks = wverify.run_all(domain, rng_seed=cfg.seed, trials=cfg.verify_trials)
    for name, passed in checks.items():
        print(f"{'PASS' if passed else 'FAIL'} {name}")
    return {
        "checks": checks,
        "all_passed": all(checks.values()),
    }, None, None


def _write_artifacts(outdir: Path, cfg: RunConfig, results: dict,
                     weight: ScalarField | None, u: ScalarField | None) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    wio.write_results_json(outdir / "results.json", results)
    if weight is not None:
        wio.write_field_csv(outdir / "weight.csv", weight)
        if cfg.heatmap:
            wio.write_pgm(outdir / "heatmap.pgm", wio.heatmap_image(weight))
    if u is not None:
        wio.write_field_csv(outdir / "eigenfunction.csv", u)


# exception -> (exit code, stderr prefix); the first matching row wins, so
# the subclasses (ConfigError and FileFormatError are ValueErrors,
# NoConvergence a RuntimeError) come before their bases.  A RuntimeError
# past NoConvergence is a checked property that failed: a verify suite,
# the remark's strict ordering or the optimizer's descent.  A MemoryError
# is a domain too large to allocate.
EXIT_CODES = (
    ((ConfigError, wio.FileFormatError, OSError), 1, "error"),
    (NoConvergence, 3, "no convergence"),
    ((ValueError, MemoryError), 2, "infeasible"),
    (RuntimeError, 4, "verification failed"),
)


def run(config_path: str | Path, out_dir: str | None = None,
        seed: int | None = None, grid_n: int | None = None,
        task: str | None = None) -> int:
    """Execute one task from a config file; returns the process exit code."""
    try:
        cfg = RunConfig.load(config_path, task_override=task)
        if seed is not None:
            cfg.seed = _checked("--seed", seed, SEED)
        if out_dir is not None:
            cfg.output_dir = _checked("--out", out_dir, PATH)
        if grid_n is not None:
            cfg.domain_cfg = _apply_grid_override(cfg.domain_cfg,
                                                  _checked("--grid", grid_n, COUNT))
        domain = wio.domain_from_config(cfg.domain_cfg, cfg.base_dir)
        results, weight, u = _run_task(cfg, domain)
        results.update(task=cfg.task, seed=cfg.seed)
        _write_artifacts(Path(cfg.output_dir), cfg, results, weight, u)
        failed = [name for name, passed in results.get("checks", {}).items() if not passed]
        if failed:
            raise RuntimeError(", ".join(failed))
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        code, label = next((c, lbl) for types, c, lbl in EXIT_CODES if isinstance(exc, types))
        print(f"{label}: {exc}", file=sys.stderr)
        return code
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error is malformed input: exit 1 with one line on stderr
    (argparse's own exit code 2 means infeasible input here)."""

    def error(self, message: str):
        self.exit(1, f"error: {message}\n")


# built once, at import; each main() call only parses
_PARSER = _ArgumentParser(
    prog="weightopt",
    description="Minimize the principal Dirichlet eigenvalue over weight rearrangements",
)
_PARSER.add_argument("task", choices=TASKS)
_PARSER.add_argument("--config", required=True, help="path to a JSON run config")
_PARSER.add_argument("--out", default=None, help="output directory (overrides config)")
_PARSER.add_argument("--seed", type=int, default=None, help="RNG seed (overrides config)")
_PARSER.add_argument("--grid", type=int, default=None, help="grid resolution override")


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    return run(args.config, out_dir=args.out, seed=args.seed, grid_n=args.grid,
               task=args.task)


if __name__ == "__main__":
    sys.exit(main())
