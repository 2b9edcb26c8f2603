"""File formats: PGM images, likelihood files, labeling files, CSV, config.

All text is written with plain "\n" newlines and floats are formatted as
their shortest round-trip decimal (repr), so identical runs produce
byte-identical files and every parsed value equals the written one bit for
bit. Parse errors carry the file name and, where meaningful, the line
number.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path

import numpy as np

from .core import _checked_index, _first_bool
from .edges import EdgeLattice, Image

TRACE_HEADER = "iteration,energy,committed,changed"
COMPARE_HEADER = "method,energy_mean,energy_best,runs,iterations_mean"


class FileFormatError(Exception):
    """Raised when an input file does not match its declared format."""


def _fmt(x: float) -> str:
    return repr(float(x))


def read_pgm(path) -> Image:
    """Read a binary greyscale PGM (P5), tolerating header comments."""
    path = Path(path)
    data = path.read_bytes()
    pos = 0

    def token():
        nonlocal pos
        while pos < len(data):
            c = data[pos]
            if c in b" \t\r\n":
                pos += 1
            elif c == ord("#"):
                while pos < len(data) and data[pos] != ord("\n"):
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and data[pos] not in b" \t\r\n":
            pos += 1
        if start == pos:
            raise FileFormatError(f"{path}: truncated PGM header")
        return data[start:pos]

    if token() != b"P5":
        raise FileFormatError(f"{path}: not a binary PGM (P5) file")
    try:
        width, height, maxval = int(token()), int(token()), int(token())
    except ValueError:
        raise FileFormatError(f"{path}: malformed PGM header") from None
    if width < 1 or height < 1:
        raise FileFormatError(f"{path}: bad PGM dimensions {width}x{height}")
    if not 1 <= maxval <= 255:
        raise FileFormatError(f"{path}: unsupported PGM maxval {maxval}")
    pos += 1  # the single whitespace byte separating header and raster
    raster = data[pos:]
    if len(raster) != width * height:
        raise FileFormatError(f"{path}: expected {width * height} pixel bytes, "
                              f"found {len(raster)}")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    if int(pixels.max()) > maxval:
        raise FileFormatError(f"{path}: pixel value {int(pixels.max())} exceeds "
                              f"the declared maxval {maxval}")
    return Image(pixels.copy())


def write_pgm(path, image: Image) -> None:
    """Write a binary greyscale PGM (P5, maxval 255)."""
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + image.pixels.tobytes())


def _read_text_lines(path):
    path = Path(path)
    try:
        text = path.read_text(encoding="ascii")
    except UnicodeDecodeError:
        raise FileFormatError(f"{path}: not a text file") from None
    return path, text.splitlines()


def _read_records(path, magic: str, names: tuple[str, ...]):
    """(path, dimensions, body) of a record file: the one parser of its first two lines.

    Line 1 must be ``magic`` and line 2 one integer per entry of ``names``;
    their errors carry ``:1:`` and ``:2:``. The body is every non-blank line
    after them as (line number, stripped text), so a reader's own errors can
    name the line.
    """
    path, lines = _read_text_lines(path)
    if not lines or lines[0].strip() != magic:
        raise FileFormatError(f"{path}:1: expected header '{magic}'")
    if len(lines) < 2:
        raise FileFormatError(f"{path}:2: missing dimensions line")
    try:
        dims = [int(p) for p in lines[1].split()]
    except ValueError:
        dims = []
    if len(dims) != len(names):
        raise FileFormatError(f"{path}:2: expected '{' '.join(names)}'")
    body = [(lineno, text) for lineno, raw in enumerate(lines[2:], start=3)
            if (text := raw.strip())]
    return path, dims, body


def _write_lines(path, lines) -> None:
    """Write each line and a plain "\n" in one call; no other function opens a file.

    ``lines`` may be any iterable: it is consumed one line at a time, so no
    whole text is ever held.
    """
    with open(path, "w", newline="\n") as f:
        f.writelines(f"{line}\n" for line in lines)


def read_mrfllr(path) -> tuple[int, int, np.ndarray]:
    """Read a likelihood file: (width, height, per-site LLR array).

    Format: header line ``MRFLLR 1``, then ``width height``, then one
    decimal LLR per line in edge-site-id order.
    """
    path, (width, height), body = _read_records(path, "MRFLLR 1", ("width", "height"))
    if width < 2 or height < 2:
        raise FileFormatError(f"{path}:2: dimensions must be at least 2x2")
    expected = EdgeLattice(width, height).num_sites
    values = []
    for lineno, text in body:
        try:
            v = float(text)
        except ValueError:
            raise FileFormatError(f"{path}:{lineno}: expected one decimal value "
                                  f"per line, got {text!r}") from None
        if not np.isfinite(v):
            raise FileFormatError(f"{path}:{lineno}: non-finite value")
        values.append(v)
    if len(values) != expected:
        raise FileFormatError(f"{path}: expected {expected} values for a "
                              f"{width}x{height} image, found {len(values)}")
    return width, height, np.array(values, dtype=np.float64)


def write_mrfllr(path, width: int, height: int, llr) -> None:
    arr = np.asarray(llr, dtype=np.float64)
    expected = EdgeLattice(width, height).num_sites
    if arr.shape != (expected,):
        raise ValueError(f"expected {expected} values for a {width}x{height} image")
    if not np.isfinite(arr).all():
        raise ValueError("LLR values must be finite")
    _write_lines(path, chain(("MRFLLR 1", f"{width} {height}"), map(_fmt, arr.tolist())))


def read_mrfl(path) -> tuple[int, int, np.ndarray]:
    """Read a labeling file: (width, height, per-site label array).

    Format: header ``MRFL 1``, then ``width height num_sites``, then one
    ``site_id label`` line per site. Width and height are 0 for labelings
    of non-lattice fields. Sites may appear in any order but each exactly
    once.
    """
    path, (width, height, num_sites), body = _read_records(
        path, "MRFL 1", ("width", "height", "num_sites"))
    if num_sites < 1:
        raise FileFormatError(f"{path}:2: num_sites must be positive")
    if width == 0 and height == 0:
        pass  # labeling of a non-lattice field
    elif width < 2 or height < 2:
        raise FileFormatError(f"{path}:2: dimensions must be at least 2x2 "
                              "(or 0 0 for non-lattice fields)")
    elif EdgeLattice(width, height).num_sites != num_sites:
        raise FileFormatError(f"{path}:2: a {width}x{height} image has "
                              f"{EdgeLattice(width, height).num_sites} sites, "
                              f"not {num_sites}")
    # a body line holds at most one label: refuse the count before allocating for it
    if len(body) < num_sites:
        raise FileFormatError(f"{path}: {num_sites - len(body)} sites missing a label")
    # every line below labels a new in-range site or raises, so a full pass
    # over at least num_sites lines labels every site
    labels = np.full(num_sites, -1, dtype=np.int64)
    for lineno, text in body:
        parts = text.split()
        if len(parts) != 2:
            raise FileFormatError(f"{path}:{lineno}: expected 'site_id label'")
        try:
            site, label = int(parts[0]), int(parts[1])
        except ValueError:
            raise FileFormatError(f"{path}:{lineno}: expected 'site_id label'") from None
        if not 0 <= site < num_sites:
            raise FileFormatError(f"{path}:{lineno}: site {site} out of range")
        if not 0 <= label <= np.iinfo(np.int64).max:
            raise FileFormatError(f"{path}:{lineno}: label must be a non-negative 64-bit integer")
        if labels[site] != -1:
            raise FileFormatError(f"{path}:{lineno}: site {site} listed twice")
        labels[site] = label
    return width, height, labels


def write_mrfl(path, labels, width: int = 0, height: int = 0) -> None:
    arr = np.asarray(labels)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("labels must be a non-empty flat array")
    if arr.dtype.kind not in "iu" or _first_bool(labels, arr) >= 0:
        raise ValueError("labels must be integers")
    if (arr < 0).any():
        raise ValueError("labels must be fully committed")
    width, height = _checked_index(width, "width"), _checked_index(height, "height")
    # 0 0 for a non-lattice field; else a lattice of at least 2x2 with one site per label
    if (width, height) != (0, 0) and (sites := EdgeLattice(width, height).num_sites) != arr.size:
        raise ValueError(f"a {width}x{height} image has {sites} sites, not {arr.size}")
    lines = (f"{site} {label}" for site, label in enumerate(arr.tolist()))
    _write_lines(path, chain(("MRFL 1", f"{width} {height} {arr.size}"), lines))


def write_trace_csv(path, rows) -> None:
    """Write trace rows with the exact header iteration,energy,committed,changed.

    A row is a ``TraceRow`` or any tuple that starts with those four
    values; ``rows`` may be a lazy iterable, read one row at a time.
    """
    lines = (f"{i},{_fmt(e)},{c},{ch}" for i, e, c, ch, *_ in rows)
    _write_lines(path, chain((TRACE_HEADER,), lines))


def write_compare_csv(path, rows) -> None:
    """Write (method, energy_mean, energy_best, runs, iterations_mean) rows."""
    lines = (f"{method},{_fmt(mean)},{_fmt(best)},{runs},{_fmt(iters)}"
             for method, mean, best, runs, iters in rows)
    _write_lines(path, chain((COMPARE_HEADER,), lines))


def parse_config(path, schema: dict) -> dict:
    """Parse a ``key = value`` config file against a {key: converter} schema.

    ``#`` starts a comment, blank lines are skipped, unknown and duplicate
    keys are rejected. Converter failures are reported with the offending
    line number.
    """
    path, lines = _read_text_lines(path)
    out = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FileFormatError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in schema:
            raise FileFormatError(f"{path}:{lineno}: unknown key {key!r}")
        if key in out:
            raise FileFormatError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            out[key] = schema[key](value)
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from None
    return out
