"""Edge labeling on images: site lattice, potentials, likelihoods, fixtures.

An edge site sits between two adjacent pixels and takes one of two labels,
non-edge (0) or edge (1). Vertical sites separate horizontally adjacent
pixels and are numbered first, row-major; horizontal sites separate
vertically adjacent pixels and follow, also row-major. A site's neighbors are
the sites it shares a pair clique with, which gives a second-order
neighborhood: the six other sites sharing one of its two endpoints plus the
two nearest parallel sites of the same orientation, so interior sites have
exactly eight neighbors. :func:`build_edge_field` lays the cliques out from
index grids of the lattice, in an order that is part of its contract, and
hands the grids' member arrays and the CSR neighbor lists straight to
:meth:`~mrfhcf.core.Field.from_arrays`: no :class:`~mrfhcf.core.Clique`
object or per-site tuple is made unless a caller reads ``field.cliques`` or
``field.adjacency``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (UNCOMMITTED, Clique, DataTerm, Field, _check_count, _checked_index,
                   _real, _site_array)

NON_EDGE = 0
EDGE = 1
LABEL_LETTERS = ("n", "e")


class Image:
    """8-bit greyscale image; ``pixels[y, x]`` in 0..255, frozen after construction."""

    def __init__(self, pixels):
        p = np.asarray(pixels)
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
            raise ValueError("image pixels must form a non-empty 2-D array")
        if p.dtype != np.uint8:
            if not np.issubdtype(p.dtype, np.integer):
                raise ValueError("image pixels must be integers")
            if p.min() < 0 or p.max() > 255:
                raise ValueError("image pixels must lie in 0..255")
            p = p.astype(np.uint8)
        else:
            p = p.copy()
        p.setflags(write=False)
        self.pixels = p

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    def __repr__(self):
        return f"Image({self.width}x{self.height})"


@dataclass(frozen=True)
class EdgePotentials:
    """Clique energies of the edge prior; only all-edge entries are nonzero.

    ``continuity`` rewards collinear edge pairs (expected negative);
    ``turn`` penalizes perpendicular endpoint-sharing edge pairs,
    ``parallel`` penalizes close parallel edge pairs, and ``edge_prior``
    is the unary cost of declaring an edge at all (all expected positive).
    Unexpected signs only warn: they are legal, just unusual.
    """
    continuity: float = -0.5
    turn: float = 0.3
    parallel: float = 0.3
    edge_prior: float = 0.4

    def __post_init__(self):
        for name in ("continuity", "turn", "parallel", "edge_prior"):
            value = getattr(self, name)
            if not (_real(value) and math.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        if self.continuity >= 0:
            warnings.warn("continuity is usually negative (it rewards collinear edges)")
        for name in ("turn", "parallel", "edge_prior"):
            if getattr(self, name) <= 0:
                warnings.warn(f"{name} is usually positive (it discourages clutter)")


@dataclass(frozen=True)
class EdgeModel:
    """Two-Gaussian step model behind the log likelihood ratio.

    ``mu_e`` is the expected absolute intensity step across a true edge and
    ``sigma`` the pixel noise standard deviation. The defaults match the
    default checkerboard generator (contrast 192 - 64, noise 8).
    """
    mu_e: float = 128.0
    sigma: float = 8.0

    def __post_init__(self):
        for name in ("mu_e", "sigma"):
            value = getattr(self, name)
            if not (_real(value) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive real")
        # the ratio is monotone in the pixel step, so steps 0 and 255 bound every
        # intermediate of edge_llr: if they compute cleanly, every image does
        try:
            with np.errstate(all="raise", under="ignore"):
                _llr(np.array([0.0, 255.0]), self.mu_e, self.sigma)
        except ArithmeticError:
            raise ValueError("mu_e and sigma give non-finite log likelihood ratios") from None


class EdgeLattice:
    """Site indexing for the edge lattice of a ``width`` x ``height`` image.

    Vertical site (x, y) sits between pixels (x, y) and (x+1, y) and has id
    ``y*(width-1) + x``; horizontal site (x, y) sits between pixels (x, y)
    and (x, y+1) and has id ``num_vertical + y*width + x``.
    """

    def __init__(self, width: int, height: int):
        self.width = _checked_index(width, "width")
        self.height = _checked_index(height, "height")
        if self.width < 2 or self.height < 2:
            raise ValueError("edge lattice needs width and height of at least 2")
        self.num_vertical = (self.width - 1) * self.height
        self.num_horizontal = self.width * (self.height - 1)
        self.num_sites = self.num_vertical + self.num_horizontal

    def vertical_id(self, x: int, y: int) -> int:
        if not (0 <= x < self.width - 1 and 0 <= y < self.height):
            raise ValueError(f"no vertical site at ({x}, {y})")
        return y * (self.width - 1) + x

    def horizontal_id(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height - 1):
            raise ValueError(f"no horizontal site at ({x}, {y})")
        return self.num_vertical + y * self.width + x

    def site_info(self, site: int) -> tuple[str, int, int]:
        """Orientation ("v" or "h") and lattice coordinates of a site id."""
        if not 0 <= site < self.num_sites:
            raise ValueError(f"site {site} out of range")
        if site < self.num_vertical:
            return ("v", site % (self.width - 1), site // (self.width - 1))
        rest = site - self.num_vertical
        return ("h", rest % self.width, rest // self.width)

    def pixel_pair(self, site: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """The two (x, y) pixels the site separates."""
        kind, x, y = self.site_info(site)
        if kind == "v":
            return ((x, y), (x + 1, y))
        return ((x, y), (x, y + 1))


def build_edge_field(width: int, height: int,
                     potentials: EdgePotentials | None = None) -> Field:
    """Edge-labeling field for a ``width`` x ``height`` image.

    Instantiates one unary clique per site (edge prior), pair cliques for
    collinear continuations, endpoint-sharing turns, and nearest parallel
    runs. The four potential tables are shared across all cliques of their
    family. A site's neighbors are the sites it shares a pair clique with,
    each list ascending.

    Clique ids fix the summation order of every energy, so their order is
    part of the contract: the unary cliques by site; vertical, then
    horizontal continuations; the turns of each vertical site (x, y) in
    row-major order, with the horizontal sites at (x, y-1), (x+1, y-1),
    (x, y), (x+1, y) that exist; vertical, then horizontal parallels. Each
    family runs row-major over its first member's position.
    """
    if potentials is None:
        potentials = EdgePotentials()
    lattice = EdgeLattice(width, height)
    w, h, n = lattice.width, lattice.height, lattice.num_sites

    unary = np.array([0.0, potentials.edge_prior])
    cont = np.zeros((2, 2))
    cont[EDGE, EDGE] = potentials.continuity
    turn = np.zeros((2, 2))
    turn[EDGE, EDGE] = potentials.turn
    par = np.zeros((2, 2))
    par[EDGE, EDGE] = potentials.parallel

    # v[y, x] is vertical site (x, y); hp[y + 1, x] is horizontal site
    # (x, y), with a row of -1 above and below for the missing turn slots
    v = np.arange(lattice.num_vertical).reshape(h, w - 1)
    hp = np.full((h + 1, w), -1)
    hp[1:-1] = np.arange(lattice.num_vertical, n).reshape(h - 1, w)
    hz = hp[1:-1]
    corners = np.stack([hp[:-1, :-1], hp[:-1, 1:], hp[1:, :-1], hp[1:, 1:]], axis=-1)
    turns = _pairs(*np.broadcast_arrays(v[..., None], corners))
    families = (
        (_pairs(v[:-1], v[1:]), cont),
        (_pairs(hz[:, :-1], hz[:, 1:]), cont),
        (turns[turns[:, 1] >= 0], turn),
        (_pairs(v[:, :-1], v[:, 1:]), par),
        (_pairs(hz[:-1], hz[1:]), par),
    )

    indptr, indices = _neighbor_graph(np.concatenate([p for p, _ in families]), n)
    return Field.from_arrays(n, 2, indptr, indices,
                             ((np.arange(n)[:, None], unary),) + families)


def _neighbor_graph(pairs, n):
    """CSR adjacency of the graph on ``n`` sites with edges ``pairs``, each list ascending."""
    keys = np.concatenate([pairs[:, 0] * n + pairs[:, 1], pairs[:, 1] * n + pairs[:, 0]])
    keys.sort()
    return np.append(0, np.cumsum(np.bincount(keys // n, minlength=n))), keys % n


def _pairs(first, second):
    """(first, second) site pairs of two equal-shape index grids, row-major."""
    return np.stack([first.ravel(), second.ravel()], axis=1)


def edge_llr(image: Image, model: EdgeModel) -> np.ndarray:
    """Log likelihood ratio edge vs non-edge per site, in site-id order.

    With absolute pixel difference d across the site, the ratio of the two
    Gaussians N(d; mu_e, sigma) and N(d; 0, sigma) reduces to
    mu_e * (2d - mu_e) / (2 sigma^2): negative at d = 0, zero at d = mu_e/2,
    positive at d = mu_e.
    """
    img = image.pixels.astype(np.int64)
    dv = np.abs(np.diff(img, axis=1)).ravel()
    dh = np.abs(np.diff(img, axis=0)).ravel()
    d = np.concatenate([dv, dh]).astype(np.float64)
    return _llr(d, model.mu_e, model.sigma)


def _llr(d, mu_e, sigma):
    """``edge_llr``'s ratio at pixel steps ``d``, the one formula ``EdgeModel`` checks."""
    return mu_e * (2.0 * d - mu_e) / (2.0 * sigma ** 2)


def llr_data_term(llr) -> DataTerm:
    """Data term from per-site log likelihood ratios: D(e) = -LLR, D(n) = 0."""
    arr = np.asarray(llr, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("llr must be a flat per-site array")
    values = np.zeros((arr.shape[0], 2))
    values[:, EDGE] = -arr
    return DataTerm(values)


def compute_llr(image: Image, model: EdgeModel | None = None) -> DataTerm:
    """Edge/non-edge data term of an image under the step model."""
    if model is None:
        model = EdgeModel()
    return llr_data_term(edge_llr(image, model))


def make_checkerboard(width: int, height: int, square: int, low: int, high: int,
                      noise_sigma: float, seed: int) -> Image:
    """Checkerboard test image with seeded Gaussian noise.

    The square at the origin has intensity ``low``; noise is added before
    rounding and clamping to 0..255, so the same seed always reproduces the
    same image byte for byte. Raises ValueError unless every argument but
    ``noise_sigma`` is an integer (not a bool) in range and ``noise_sigma``
    is a finite non-negative real.
    """
    for name, value in (("width", width), ("height", height), ("square", square),
                        ("low", low), ("high", high), ("seed", seed)):
        _check_count(name, value)
    if width < 1 or height < 1:
        raise ValueError("width and height must be positive")
    if square < 1:
        raise ValueError("square must be a positive integer")
    if not low < high <= 255:
        raise ValueError("need 0 <= low < high <= 255")
    if not (_real(noise_sigma) and math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ValueError("noise_sigma must be non-negative")
    yy = np.arange(height)[:, None] // square
    xx = np.arange(width)[None, :] // square
    board = np.where((yy + xx) % 2 == 0, float(low), float(high))
    if noise_sigma > 0:
        board = board + np.random.default_rng(seed).normal(0.0, noise_sigma, board.shape)
    return Image(np.clip(np.rint(board), 0, 255).astype(np.uint8))


_CHAIN_LLR = (4.0, -0.2, -0.4, -0.5, -0.3, 0.1, -0.3, -0.4)


def make_chain_fixture() -> tuple[Field, DataTerm]:
    """Eight-site chain with hand-checkable energies, used by golden tests.

    Consecutive sites are neighbors joined by a shared pair potential that
    rewards agreement (-0.5 on (n,n) and (e,e)) and penalizes breaks (+1 on
    (n,e) and (e,n)); there are no unary cliques. The data term encodes the
    fixed log likelihood ratios 4, -0.2, -0.4, -0.5, -0.3, 0.1, -0.3, -0.4
    as D(e) = -LLR, D(n) = 0.
    """
    n = len(_CHAIN_LLR)
    adjacency = [tuple(r for r in (s - 1, s + 1) if 0 <= r < n) for s in range(n)]
    table = np.array([[-0.5, 1.0], [1.0, -0.5]])
    cliques = [Clique((s, s + 1), table) for s in range(n - 1)]
    values = np.zeros((n, 2))
    values[:, EDGE] = [-llr for llr in _CHAIN_LLR]
    return Field(n, 2, adjacency, cliques), DataTerm(values)


def render_overlay(image: Image, config) -> Image:
    """Edge labeling drawn as black pixels on a doubled grid.

    Pixel (x, y) lands at (2x+1, 2y+1); a site labeled edge blackens the
    cell between its two pixels; everything else is white.
    """
    h, w = image.height, image.width
    lattice = EdgeLattice(w, h)
    cfg = _site_array(config, 1, "labels")
    if cfg.shape != (lattice.num_sites,):
        raise ValueError(f"configuration has {cfg.shape} entries for "
                         f"{lattice.num_sites} sites")
    if ((cfg < UNCOMMITTED) | (cfg > EDGE)).any():
        raise ValueError(f"labels must lie in {UNCOMMITTED}..{EDGE}")
    canvas = np.full((2 * h + 1, 2 * w + 1), 255, dtype=np.uint8)
    canvas[1::2, 1::2] = image.pixels
    edge = cfg == EDGE
    canvas[1::2, 2:-1:2][edge[:lattice.num_vertical].reshape(h, w - 1)] = 0
    canvas[2:-1:2, 1::2][edge[lattice.num_vertical:].reshape(h - 1, w)] = 0
    return Image(canvas)
