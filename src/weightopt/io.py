"""File formats: field CSV, PGM images/masks, results JSON, domain configs.

Formats are deliberately plain so artifacts stay diff-friendly and
round-trip exactly:

* field CSV: header line ``nx,ny,h``, a line with their values, then one
  value per line in row-major grid order, ``nan`` outside the domain.
  Floats are written with ``repr`` so reading reproduces the exact doubles.
* PGM: P2 (ASCII) written; P2 and P5 read.  For masks, nonzero = in-domain.
* results JSON: sorted keys, fixed separators: byte-identical for
  identical runs.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from . import grid as _grid
from .grid import GridDomain, ScalarField


class FileFormatError(ValueError):
    """A field CSV or PGM file is malformed or does not fit its domain."""


def write_field_csv(path: str | Path, f: ScalarField) -> None:
    domain = f.domain
    ny, nx = domain.shape
    # repr of a Python float round-trips exactly, and repr(nan) is "nan"; it
    # runs once per distinct bit pattern (+0.0 and -0.0 apart), then indexed
    bits, at = np.unique(f.to_grid().ravel().view(np.int64), return_inverse=True)
    text = np.array([repr(v) for v in bits.view(float).tolist()], dtype=object)
    values = "\n".join(text[at].tolist())
    Path(path).write_text(f"nx,ny,h\n{nx},{ny},{domain.h!r}\n{values}\n")


def read_field_csv(path: str | Path, domain: GridDomain | None = None) -> ScalarField:
    """Read a field CSV; reconstructs the domain from the nan pattern unless
    one is supplied (then shapes and spacing must match).  A malformed file,
    or one that does not match the supplied domain, raises FileFormatError."""
    try:
        lines = Path(path).read_text().splitlines()
        if not lines or lines[0].strip() != "nx,ny,h":
            raise ValueError("expected 'nx,ny,h' header")
        nx_s, ny_s, h_s = lines[1].split(",")
        nx, ny, h = int(nx_s), int(ny_s), float(h_s)
        data = np.array([float(s) for s in lines[2:]], dtype=float)
        if data.size != nx * ny:
            raise ValueError(f"expected {nx * ny} values, found {data.size}")
        grid_vals = data.reshape(ny, nx)
        mask = ~np.isnan(grid_vals)
        if domain is None:
            domain = GridDomain(mask, h)
        elif domain.shape != (ny, nx) or domain.h != h:
            raise ValueError("grid does not match the given domain")
        elif not np.array_equal(mask, domain.mask):
            raise ValueError("nan pattern does not match the domain mask")
        return ScalarField(domain, grid_vals[domain.cell_rows, domain.cell_cols])
    except (ValueError, IndexError) as exc:  # IndexError: no second line
        raise FileFormatError(f"{path}: {exc}") from exc


# the decimal text of each 8-bit sample, looked up by value: one fancy
# index formats a whole image, about 5x faster than str() per sample
_PGM_SAMPLES = np.array([str(v) for v in range(256)], dtype=object)
_PGM_SAMPLES.setflags(write=False)


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    """Write a 2D uint8 array as ASCII PGM (P2)."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError("PGM image must be 2D")
    if image.dtype != np.uint8:
        if image.min() < 0 or image.max() > 255:
            raise ValueError("PGM values must be in [0, 255]")
        image = image.astype(np.uint8)
    ny, nx = image.shape
    rows = map(" ".join, _PGM_SAMPLES[image].tolist())
    Path(path).write_text(f"P2\n{nx} {ny}\n255\n" + "\n".join(rows) + "\n")


# a header token, or a '#' comment (group 1 empty) running to the line end
_PGM_TOKEN = re.compile(rb"#[^\r\n]*|([^\s#]+)")


def _pgm_tokens(raw: bytes):
    """Header tokens of a PGM, skipping '#' comments; yields (token, end_pos)."""
    return ((m[1], m.end()) for m in _PGM_TOKEN.finditer(raw) if m[1])


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a P2 or P5 PGM into a 2D integer array; a malformed file raises
    FileFormatError."""
    raw = Path(path).read_bytes()
    tokens = _pgm_tokens(raw)
    try:
        magic, _ = next(tokens)
        (w_tok, _), (h_tok, _), (max_tok, end) = next(tokens), next(tokens), next(tokens)
        if magic not in (b"P2", b"P5"):
            raise ValueError("not a PGM (P2/P5) file")
        nx, ny, maxval = int(w_tok), int(h_tok), int(max_tok)
        if nx <= 0 or ny <= 0 or not 0 < maxval < 2**16:
            raise ValueError("invalid PGM dimensions, or maxval outside 1..65535")
        if magic == b"P2":
            values = [int(t) for t, _ in _pgm_tokens(raw[end:])]
            data = np.array(values, dtype=np.int64)
        else:
            # P5: exactly one whitespace byte after maxval, then binary samples
            body = raw[end + 1:]
            dtype = np.dtype(">u2") if maxval > 255 else np.uint8
            data = np.frombuffer(body, dtype=dtype, count=nx * ny).astype(np.int64)
        if data.size != nx * ny:
            raise ValueError(f"expected {nx * ny} samples, found {data.size}")
        if data.min() < 0 or data.max() > maxval:
            raise ValueError(f"PGM sample outside 0..{maxval}")
    except StopIteration:
        raise FileFormatError(f"{path}: truncated PGM header") from None
    except (ValueError, OverflowError) as exc:  # OverflowError: beyond int64
        raise FileFormatError(f"{path}: {exc}") from exc
    return data.reshape(ny, nx)


def heatmap_image(f: ScalarField) -> np.ndarray:
    """Field values linearly mapped to 0..255; out-of-domain cells map to 0,
    a constant in-domain field maps to 255."""
    grid_vals = f.to_grid()
    out = np.zeros(grid_vals.shape, dtype=np.uint8)
    # halves, so that hi - lo cannot overflow
    lo, hi = f.values.min() / 2, f.values.max() / 2
    if hi > lo:
        scaled = np.floor((f.values / 2 - lo) / (hi - lo) * 255.0 + 0.5)
    else:
        scaled = np.full_like(f.values, 255.0)
    out[f.domain.cell_rows, f.domain.cell_cols] = scaled.astype(np.uint8)
    return out


def write_results_json(path: str | Path, results: dict) -> None:
    Path(path).write_text(
        json.dumps(results, sort_keys=True, indent=2, allow_nan=False) + "\n"
    )


def domain_from_config(cfg: dict, base_dir: str | Path = ".") -> GridDomain:
    """Build a domain from the JSON config schema.

    ``{"shape": "rectangle"|"ellipse"|"mask_file", "nx", "ny", "h",
    "semi_axes"?, "mask_path"?}``
    """
    shape = cfg.get("shape")
    if shape == "rectangle":
        return _grid.make_rectangle(int(cfg["nx"]), int(cfg["ny"]), float(cfg["h"]))
    if shape == "ellipse":
        a, b = cfg["semi_axes"]
        return _grid.make_ellipse(
            int(cfg["nx"]), int(cfg["ny"]), float(cfg["h"]), (float(a), float(b))
        )
    if shape == "mask_file":
        mask = read_pgm(Path(base_dir) / cfg["mask_path"]) != 0
        return _grid.from_mask(mask, float(cfg["h"]))
    raise ValueError(f"unknown domain shape: {shape!r}")
