"""Bogolubov coefficients between chart-vacuum mode bases.

Sharp continuum modes are tamed by Gaussian wave packets in
log-frequency: the packet with center frequency w_i and width sigma has
frequency profile

    k_i(w) = A w^{-1/2} exp(-(ln w - ln w_i)^2 / (4 sigma^2)),
    A = (sigma sqrt(2 pi))^{-1/2},

which makes same-chart packet overlaps exactly Gaussian in log-frequency,
(f_i, f_j) = exp(-(ln w_i - ln w_j)^2 / (8 sigma^2)), and keeps every
packet strictly positive-frequency in its chart's time.

All Klein-Gordon pairings are adaptive quadratures over a constant-time
surface of the base chart, with a change of variable that makes wedge
(logarithmically piled-up) phases linear in the integration parameter.
A packet, or a stack of them, gives its supports and that substitution
in one ``geometry`` call, so a row takes every entry's window at once.
A matrix row is one lockstep quadrature: every entry keeps its own window
and adaptive grid, on which alpha and beta are paired together, and each
refinement wave evaluates the row packet once and all column packets
together (as one stack) at the new nodes of every open entry.  A wave is
evaluated in fixed blocks of at most 64 panels, so the memory of a wave
does not grow with the number of columns.  A single pairing is a row of
one.

A packet is a Gauss-Legendre sum over log-frequency nodes.  Every packet
of width sigma is a dilation U(w_c c) of one unit packet, so all of them
are evaluated from one table of U and U' per width: piecewise Chebyshev
series filled lazily from the exact node sum, which agree with it to
rounding level (a few 1e-15 of the peak).  Panels share their width, so a
fill splits each phase by angle addition into a panel-midpoint factor and
a factor common to every panel, and needs one cos/sin per node and panel,
not per node and point; it takes the nodes in chunks whose shared factors
stay in cache.  A read contracts each point's Chebyshev basis with its
panel's coefficients by one stacked matrix product, whose sums do not
depend on how many points are read together.

This module is a verification companion: the stress pipeline never calls
into it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .charts import ConformalChart

__all__ = [
    "ModeBasis",
    "BogolubovPair",
    "QuadReport",
    "kg_inner_product",
    "compute_coefficients",
    "expected_number",
    "row_normalization",
    "default_frequencies",
    "critical_packet_width",
]

_SUPPORT_EPS = 1e-10
_SUPPORT_PAD = 1.35


def default_frequencies(n: int = 32, lo: float = 0.1, hi: float = 10.0):
    return np.geomspace(lo, hi, n)


def critical_packet_width(frequencies) -> float:
    """Width for which the family resolves the identity: neighbouring
    packets spaced d in log-frequency with sigma = d / sqrt(8 pi) sum to
    a unit-density frame on broad smooth content."""
    lam = np.log(np.asarray(frequencies, dtype=float))
    d = float(np.mean(np.diff(lam)))
    return d / math.sqrt(8.0 * math.pi)


# ---------- Gauss-Kronrod 7/15 panel rule ----------

_K15_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_K15_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_G7_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])
_G7_IDX = np.array([1, 3, 5, 7, 9, 11, 13])


def _blocks(n: int, size: int):
    """Slices of [0, n) of at most ``size`` each."""
    return [slice(i, i + size) for i in range(0, n, size)]


def _adaptive_gk(f, a, b, tol: float, max_panels: int = 4096):
    """Globally adaptive G7/K15 of m vector-valued integrands in lockstep.

    Entry k integrates over [a[k], b[k]].  ``f(xs, owner)`` maps n nodes
    and the entry owning each to an (ncomp, n) array.  Every entry keeps
    its own panels and refines exactly as it would alone: panels are
    split in deterministic waves, for every component whose error
    exceeds ``tol`` the worst half of the panels over its budget, until
    no component is open, 60 waves have run or the entry has
    ``max_panels`` panels.  Entries run in lockstep groups of
    ``_LOCKSTEP_ENTRIES``, which bounds the panel state held at once.
    Each wave gathers the new panels of every open entry of the group and
    evaluates them in blocks of ``_BLOCK_PANELS`` panels, each reduced to
    its panel sums before the next, so the memory of a wave does not grow
    with the number of nodes it evaluates.  Returns (integrals,
    error_estimates, n_evaluations), of shapes (m, ncomp), (m, ncomp) and
    (m,).
    """
    groups = [_lockstep_gk(f, s.start, a[s], b[s], tol, max_panels)
              for s in _blocks(len(a), _LOCKSTEP_ENTRIES)]
    return tuple(np.concatenate(part) for part in zip(*groups))


def _lockstep_gk(f, first, a, b, tol, max_panels):
    """``_adaptive_gk`` of one group, entries first, first + 1, ..."""
    m = len(a)
    n_evals = np.zeros(m, dtype=int)

    def refine(owner, lo, hi):
        k15, g7 = [], []
        for s in _blocks(len(lo), _BLOCK_PANELS):
            mid = 0.5 * (lo[s] + hi[s])[:, None]
            half = 0.5 * (hi[s] - lo[s])[:, None]
            xs = mid + half * _K15_NODES[None, :]
            vals = f(xs.ravel(), first + np.repeat(owner[s], xs.shape[1]))
            vals = vals.reshape((-1,) + xs.shape)
            k15.append((vals * _K15_WEIGHTS).sum(axis=-1) * half[:, 0])
            g7.append((vals[:, :, _G7_IDX] * _G7_WEIGHTS).sum(axis=-1)
                      * half[:, 0])
        n_evals[:] += np.bincount(owner, minlength=m) * len(_K15_NODES)
        k15 = np.concatenate(k15, axis=1)
        return k15, np.abs(k15 - np.concatenate(g7, axis=1))

    # the panels of the open entries, entry after entry, each entry's in
    # the order its own refinement leaves them
    edges = np.linspace(a, b, 17, axis=1)
    own = np.repeat(np.arange(m), 16)
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    integrals, errors = refine(own, lo, hi)
    totals = np.zeros((m, len(integrals)), dtype=integrals.dtype)
    error_totals = np.zeros((m, len(integrals)))
    for wave in range(61):
        entries, starts, counts = np.unique(own, return_index=True,
                                            return_counts=True)
        pos = np.repeat(np.arange(len(entries)), counts)
        # numpy's own (pairwise) sum over each entry's panels
        sums = np.array([errors[:, s:s + n].sum(axis=1)
                         for s, n in zip(starts, counts)])
        open_comps = ((sums > tol) & (counts < max_panels)[:, None]
                      & (wave < 60))
        limit = 0.25 * (tol / counts)
        n_worst = np.maximum(1, counts // 2)
        over = (errors > limit[pos]) & open_comps[pos].T
        n_over = np.add.reduceat(over, starts, axis=1, dtype=int)
        # where more than half the panels are over the budget, the worst
        # half of them
        for c, e in zip(*np.nonzero(n_over > n_worst)):
            panels = slice(starts[e], starts[e] + counts[e])
            worst = np.argsort(errors[c, panels])[::-1][:n_worst[e]]
            over[c, panels] = False
            over[c, starts[e] + worst] = True
        split = over.any(axis=0)
        going = np.bincount(pos[split], minlength=len(entries)) > 0
        for e in np.flatnonzero(~going):
            panels = slice(starts[e], starts[e] + counts[e])
            # fixed summation order for reproducibility: by panel position
            order = np.argsort(lo[panels], kind="stable")
            totals[entries[e]] = integrals[:, panels][:, order].sum(axis=1)
        error_totals[entries[~going]] = sums[~going]
        if not going.any():
            break
        kept = np.flatnonzero(going[pos] & ~split)
        halves = np.flatnonzero(split)
        src = np.concatenate([kept, halves, halves])
        part = np.repeat([0, 1, 2], [len(kept), len(halves), len(halves)])
        order = np.argsort(3 * pos[src] + part, kind="stable")
        src, part = src[order], part[order]
        mid = 0.5 * (lo[src] + hi[src])
        lo = np.where(part == 2, mid, lo[src])
        hi = np.where(part == 1, mid, hi[src])
        own = own[src]
        new = part > 0
        # C order, so that each entry's error sum is numpy's pairwise sum
        integrals, errors = (integrals.take(src, axis=1),
                             errors.take(src, axis=1))
        integrals[:, new], errors[:, new] = refine(own[new], lo[new], hi[new])
    return totals, error_totals, n_evals


# ---------- mode bases and packets ----------

@dataclass(frozen=True, eq=False)
class ModeBasis:
    """A family of positive-frequency wave packets on one chart.

    ``sector`` picks the right-moving ('u') or left-moving ('v') family
    for full-line charts; Dirichlet bases combine both into standing
    packets that vanish on the boundary.  ValueError at construction for
    frequencies that are not positive and increasing, or a
    ``packet_width`` that is not positive and finite or whose packet
    table would overflow a double or need more than 2^17 cells.
    """

    chart: ConformalChart
    boundary: str = "full_line"
    frequencies: np.ndarray = field(default_factory=default_frequencies)
    packet_width: float = 0.5
    sector: str = "u"

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        object.__setattr__(self, "frequencies", freqs)
        if freqs.ndim != 1 or len(freqs) == 0:
            raise ValueError("frequencies must be a non-empty 1-d grid")
        if not (freqs > 0).all() or not (np.diff(freqs) > 0).all():
            raise ValueError("frequencies must be positive and increasing")
        _unit_layout(self.packet_width)
        if self.boundary not in ("full_line", "dirichlet_half_line"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if self.sector not in ("u", "v"):
            raise ValueError("sector must be 'u' or 'v'")

    def __len__(self):
        return len(self.frequencies)

    def packet(self, i: int):
        return self._packet(float(self.frequencies[i]))

    def packets(self):
        return [self.packet(i) for i in range(len(self))]

    def _packet(self, omega_c):
        """The packet at ``omega_c``; for an array of centre frequencies,
        one stack of packets whose ``evaluate`` takes the index of the
        packet wanted at each point."""
        if self.boundary == "full_line":
            return _TravelingPacket(self.chart, self.sector, omega_c,
                                    self.packet_width)
        return _StandingPacket(self.chart, omega_c, self.packet_width)


@functools.lru_cache(maxsize=128)
def _leggauss(m: int):
    return np.polynomial.legendre.leggauss(m)


# Chebyshev interpolation of degree 16 at first-kind points; a panel spans
# 4 / (highest unit frequency), so every phase term turns by at most 4 rad
# across it and the interpolant matches the sum to rounding level
_CHEB_N = 17
_CHEB_POINTS = np.cos(np.pi * (np.arange(_CHEB_N) + 0.5) / _CHEB_N)
_CHEB_FROM_VALUES = (2.0 / _CHEB_N) * np.cos(
    np.pi * np.outer(np.arange(_CHEB_N), np.arange(_CHEB_N) + 0.5) / _CHEB_N)
_CHEB_FROM_VALUES[0] *= 0.5
# phase-matrix elements per filling chunk: bounds the transient memory of
# a fill whatever the packet's node count
_FILL_ELEMENTS = 1 << 16
# panels per quadrature evaluation block: the (n, 17, 4) table gather of a
# block's 15-node panels stays within the same budget
_BLOCK_PANELS = max(1, _FILL_ELEMENTS // (_CHEB_N * 4 * len(_K15_NODES)))
_BLOCK_NODES = _BLOCK_PANELS * len(_K15_NODES)
# entries refined in lockstep at a time: their panel state (up to about
# 25 KB an entry) stays near a megabyte, and a wave still fills blocks
_LOCKSTEP_ENTRIES = 32
# cells of one unit-packet table, 71 MB of coefficients (sigma 0.5: 11,559)
_MAX_CELLS = 1 << 17


def _support_radius(sigma) -> float:
    """Support radius of the unit packet of width sigma: outside it the
    envelope is below the support threshold.  ValueError unless sigma is
    positive and finite and the radius a finite float."""
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"packet_width must be positive and finite, "
                         f"got {sigma!r}")
    root = math.sqrt(math.log(1.0 / _SUPPORT_EPS))
    try:
        radius = _SUPPORT_PAD * max(root / sigma,
                                    math.exp(2.0 * sigma * root))
    except OverflowError:
        radius = math.inf
    if radius == math.inf:
        raise ValueError(f"packet_width {sigma!r} out of range: its support "
                         f"radius overflows a double")
    return radius


def _unit_layout(sigma):
    """(radius, log-frequency offsets, weights, frequencies, cell width,
    cell count) of the unit packet table of width sigma; ValueError where
    the table would need more than ``_MAX_CELLS`` cells."""
    radius = _support_radius(sigma)
    span = 7.0 * math.sqrt(2.0) * sigma
    # from e^700 on the node count sits at its cap whatever the radius
    m = int(min(12032, 72 + 0.55 * math.exp(min(span, 700.0)) * radius))
    # composite 64-point panels: one cached rule, any total node count
    panels = max(2, (m + 63) // 64)
    base_nodes, base_weights = _leggauss(64)
    edges = np.linspace(-span, span, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1] - edges[0])
    offsets = (mid + half * base_nodes[None, :]).ravel()
    weights = np.tile(base_weights * half, panels)
    with np.errstate(over="ignore", divide="ignore"):
        omegas = np.exp(offsets)
        width = 4.0 / omegas[-1]
        cells = 2.0 * radius / width
    if not cells <= _MAX_CELLS:
        raise ValueError(f"packet_width {sigma!r} out of range: its table "
                         f"needs {cells:.3g} cells, over {_MAX_CELLS}")
    return radius, offsets, weights, omegas, width, math.ceil(cells)


def _unit_values(cos, sin):
    """(Re U, Im U, Re U', Im U') from the sums of cos(Omega_n z) and
    sin(Omega_n z) against [coeffs, coeffs Omega] on the last axis:
    U = C0 - i S0 and U' = -S1 - i C1."""
    return np.stack([cos[..., 0], -sin[..., 0], -sin[..., 1], -cos[..., 1]],
                    axis=-1)


class _UnitPacket:
    """The packet of width sigma at unit centre frequency, tabulated.

    A packet centred at w_c is the dilation U(w_c c) of this one: its
    frequency nodes are w_c exp(offset_n), its coefficients and node count
    depend on sigma only, and its support radius is R / w_c.  U and U' are
    held as piecewise Chebyshev series on [-R, R], each panel filled on
    first use from the exact node sum (``exact``), in fixed blocks of
    panels, so a value never depends on the order panels were filled in.
    The fill takes cos/sin of Omega_n (m_p + h t_j) by angle addition from
    cos/sin(Omega_n m_p) per panel midpoint and cos/sin(Omega_n h t_j),
    shared by all panels; a read is one stacked (1, 17) @ (17, 4) matrix
    product per point.  Once every panel is filled, reads stop looking
    for unfilled ones.
    """

    def __init__(self, sigma: float):
        (self.radius, offsets, weights, self.omegas, width,
         n_cells) = _unit_layout(sigma)
        gauss = np.exp(-(offsets ** 2) / (4.0 * sigma ** 2))
        amp = (sigma * math.sqrt(2.0 * math.pi)) ** -0.5
        coeffs = weights * gauss * amp
        self.rhs = np.stack([coeffs, coeffs * self.omegas], axis=1)

        self._inv_width = 1.0 / width
        self._half_width = 0.5 * width
        self._offset = 0.5 * n_cells
        # panel-local t is taken from these stored midpoints both when a
        # panel is filled and when it is evaluated
        self._mids = (np.arange(n_cells) - 0.5 * (n_cells - 1)) * width
        self._coef = np.zeros((n_cells, _CHEB_N, 4))
        self._filled = np.zeros(n_cells, bool)
        self._complete = False
        self._block = max(1, _FILL_ELEMENTS // (_CHEB_N * len(offsets)))

    def exact(self, z):
        """U(z) = sum_n coeffs_n e^{-i Omega_n z} and its derivative U'(z)
        as the node sum: an (n, 4) array of their real and imaginary
        parts, which ``.view(complex)`` reads as (U, U')."""
        ph = np.multiply.outer(z, self.omegas)
        cos = np.cos(ph) @ self.rhs
        sin = np.sin(ph, out=ph) @ self.rhs
        return _unit_values(cos, sin)

    def _fill(self, blocks):
        """Fill the panels of the distinct ``blocks`` from the exact node
        sum, with cos Omega (m + h t) = cos Omega m cos Omega h t -
        sin Omega m sin Omega h t and sin likewise.  Per chunk of nodes
        the (chunk, 17 x 2) products of cos/sin(Omega_n h t_j) with
        ``rhs`` are built once, and every block adds cos/sin(Omega_n m_p)
        at its midpoints by four matrix products.  A chunk's products
        stay within the fill budget, so they stay in cache while the
        blocks read them; the cos and sin sums of a block add up in its
        ``_coef`` cells until the Chebyshev transform."""
        n_cells = len(self._mids)
        spans = [slice(b * self._block, min((b + 1) * self._block, n_cells))
                 for b in blocks]
        for cells in spans:
            self._coef[cells] = 0.0
        chunk = _FILL_ELEMENTS // (4 * _CHEB_N)
        for nodes in _blocks(len(self.omegas), chunk):
            omegas = self.omegas[nodes]
            local = np.multiply.outer(omegas, self._half_width * _CHEB_POINTS)
            rhs = self.rhs[nodes, None, :]
            cos_t = (np.cos(local)[:, :, None] * rhs).reshape(len(rhs), -1)
            sin_t = (np.sin(local)[:, :, None] * rhs).reshape(len(rhs), -1)
            for cells in spans:
                ph = np.multiply.outer(self._mids[cells], omegas)
                cos_m = np.cos(ph)
                sin_m = np.sin(ph, out=ph)
                sums = self._coef[cells]
                sums[..., :2] += (cos_m @ cos_t - sin_m @ sin_t).reshape(
                    -1, _CHEB_N, 2)
                sums[..., 2:] += (sin_m @ cos_t + cos_m @ sin_t).reshape(
                    -1, _CHEB_N, 2)
        for cells in spans:
            sums = self._coef[cells]
            values = _unit_values(sums[..., :2], sums[..., 2:])
            self._coef[cells] = _CHEB_FROM_VALUES @ values
            self._filled[cells] = True
        self._complete = bool(self._filled.all())

    def table(self, z):
        """``exact`` from the Chebyshev tables: a panel gather, the
        Chebyshev basis in the panel-local t by doubling steps and one
        stacked matrix product per point, (1, 17) @ (17, 4), whose sums do
        not depend on the batch size.  Panels not yet filled are filled
        first.  ``z`` must lie within the radius, up to rounding."""
        cell = np.minimum((z * self._inv_width + self._offset).astype(np.intp),
                          len(self._mids) - 1)
        if not (self._complete or self._filled[cell].all()):
            self._fill(np.unique(cell[~self._filled[cell]] // self._block))
        cheb = np.empty((_CHEB_N, len(z)))
        cheb[0] = 1.0
        cheb[1] = (z - self._mids[cell]) * (1.0 / self._half_width)
        # T_{m+j} = 2 T_m T_j - T_{m-j}: rows m+1 .. 2m in one step; the
        # degree, 16, is a power of two, reached in four steps
        m = 1
        while m < _CHEB_N - 1:
            rows = cheb[m + 1:2 * m + 1]
            np.multiply(2.0 * cheb[m], cheb[1:m + 1], out=rows)
            rows -= cheb[m - 1::-1]
            m *= 2
        # one layout whatever the batch size: each point's basis reaches
        # BLAS with unit stride, for a lone point as for many
        cheb = np.ascontiguousarray(cheb.T)[:, None, :]
        return np.matmul(cheb, self._coef.take(cell, axis=0))[:, 0]


@functools.lru_cache(maxsize=16)
def _unit_packet(sigma: float) -> _UnitPacket:
    return _UnitPacket(sigma)


def _index(mask):
    """``mask`` as an index, a full slice where every point is set: the
    gathers it indexes are then views, and ``_spread`` scatters nothing."""
    return slice(None) if mask.all() else mask


def _spread(values, index, shape):
    """A complex array of ``shape`` holding ``values`` at ``index`` and
    zeros elsewhere: ``values`` itself where the index is a full slice."""
    if isinstance(index, slice):
        return values
    out = np.zeros(shape, dtype=complex)
    out[index] = values
    return out


class _PacketCore:
    """A packet of one chart family: the shared unit packet of its width,
    dilated to its centre frequency and scaled by the family's norm.  With
    an array of centre frequencies it is a stack of such packets.

    The packet is hard-cut beyond its support radius, where the true
    envelope is below the support threshold; the cut keeps under-resolved
    quadrature tails from aliasing into spurious amplitude."""

    def __init__(self, omega_c, sigma: float, norm: float):
        self.unit = _unit_packet(sigma)
        self.omega_c = omega_c
        self.norm = norm
        self.radius = self.unit.radius / self.omega_c

    def wave(self, coord, owner=None):
        """Sum over the frequency nodes of e^{-i w c} and its c-derivative.

        With z = w_c c and U the unit packet (``_UnitPacket.table``), the
        value is U(z) and the derivative w_c U'(z).  For a stack,
        ``owner`` indexes the packet of each point: there z =
        w_c[owner] c, and the point is live if |c| <= radius[owner]."""
        coord = np.asarray(coord, dtype=float)
        omega_c, radius = self.omega_c, self.radius
        if owner is not None:
            omega_c, radius = np.take(omega_c, owner), np.take(radius, owner)
        live = _index(np.abs(coord) <= radius)
        if owner is not None:
            omega_c = omega_c[live]
        unit = self.unit.table(omega_c * coord[live]).view(complex)
        return (_spread(self.norm * unit[:, 0], live, coord.shape),
                _spread((self.norm * omega_c) * unit[:, 1], live, coord.shape))


class _Substitution:
    """The integration variable s of a packet side on the surface t: its
    ``sector`` chart coordinate, x = t - map(s) for 'u' and map(s) - t for
    'v', over the s-window [lo, hi] (arrays for a stack).  It makes the
    wedge phases, piled up logarithmically in x, linear in s."""

    def __init__(self, map, sector, t, lo, hi):
        self.map, self.sector, self.t = map, sector, t
        self.lo, self.hi = lo, hi

    def x(self, s):
        y = self.map.fn(s)
        return self.t - y if self.sector == "u" else y - self.t

    def rate(self, s):
        """|dx/ds|."""
        return self.map.monotone_sign * self.map.dfn(s)

    def s(self, x):
        return self.map.inverse_fn(self.t - x if self.sector == "u"
                                   else self.t + x)

    def window(self, x0, x1):
        """The s-interval of the x-intervals [x0, x1] (arrays), clipped to
        the s-window.  An end that maps to no finite s, at or past the
        substitution's reachable limit, takes the s-window's end."""
        with np.errstate(all="ignore"):
            s0, s1 = self.s(x0), self.s(x1)
        if (self.map.monotone_sign > 0) != (self.sector == "v"):
            s0, s1 = s1, s0  # s runs against x
        return (np.where(np.isfinite(s0), np.maximum(self.lo, s0), self.lo),
                np.where(np.isfinite(s1), np.minimum(self.hi, s1), self.hi))


class _TravelingPacket:
    """Right- or left-moving packet on a full-line chart, or a stack of
    them for an array ``omega_c`` (``evaluate`` and ``geometry``)."""

    def __init__(self, chart: ConformalChart, sector: str, omega_c,
                 sigma: float):
        self.chart = chart
        self.sector = sector
        self.map = chart.u_map if sector == "u" else chart.v_map
        if self.map.inverse_fn is None:
            raise ValueError(f"chart '{chart.name}' has no closed-form "
                             f"inverse map for mode work")
        self.core = _PacketCore(omega_c, sigma,
                                norm=1.0 / math.sqrt(4.0 * math.pi))

    def evaluate(self, t: float, xs, owner=None):
        """(values, d/dt values) on the surface t = const; for a stack,
        ``owner`` picks the packet at each point."""
        xs = np.asarray(xs, dtype=float)
        w = t - xs if self.sector == "u" else t + xs
        rng = self.map.range
        inside = _index((w > rng.lo) & (w < rng.hi))
        c = self.map.inverse_fn(w[inside])
        v, dv = self.core.wave(c, None if owner is None else owner[inside])
        # d/dt = (dc/dw) f'(c); dw/dt = 1 on constant-t surfaces
        return (_spread(v, inside, xs.shape),
                _spread(dv / self.map.dfn(c), inside, xs.shape))

    def geometry(self, t: float):
        """((lo, hi), substitution) on the surface t: the x-support, of
        arrays for a stack, and the chart-coordinate substitution over
        the support radius, None for an identity map."""
        r = self.core.radius
        lo, hi = self.map.fn(np.array([-r, r]))
        support = (t - hi, t - lo) if self.sector == "u" else (lo - t, hi - t)
        if abs(float(self.map.fn(np.array([0.37]))[0]) - 0.37) < 1e-15:
            return support, None
        return support, _Substitution(self.map, self.sector, t, -r, r)


class _StandingPacket:
    """Dirichlet packet vanishing on the chart's x* = 0 boundary, or a
    stack of them for an array ``omega_c`` (``evaluate`` and
    ``geometry``)."""

    def __init__(self, chart: ConformalChart, omega_c, sigma: float):
        self.chart = chart
        if chart.u_map.inverse_fn is None or chart.v_map.inverse_fn is None:
            raise ValueError(f"chart '{chart.name}' has no closed-form "
                             f"inverse maps for mode work")
        self.core = _PacketCore(omega_c, sigma,
                                norm=1.0 / math.sqrt(math.pi))

    def evaluate(self, t: float, xs, owner=None):
        xs = np.asarray(xs, dtype=float)
        u = t - xs
        v = t + xs
        ur, vr = self.chart.u_map.range, self.chart.v_map.range
        inside = _index((u > ur.lo) & (u < ur.hi)
                        & (v > vr.lo) & (v < vr.hi))
        cu = self.chart.u_map.inverse_fn(u[inside])
        cv = self.chart.v_map.inverse_fn(v[inside])
        right = cv > cu  # the state lives on the mirror's right, x* > 0
        live = np.zeros(xs.shape, bool)
        live[inside] = right
        live, right = _index(live), _index(right)
        cu, cv = cu[right], cv[right]
        own = None if owner is None else owner[live]
        fu, dfu = self.core.wave(cu, own)
        fv, dfv = self.core.wave(cv, own)
        # mode = (e^{-i w u*} - e^{-i w v*}) / 2i per frequency node
        return (_spread((fu - fv) / 2j, live, xs.shape),
                _spread((dfu / self.chart.u_map.dfn(cu)
                         - dfv / self.chart.v_map.dfn(cv)) / 2j,
                        live, xs.shape))

    def _bisect_mirror(self, t: float) -> float:
        """x with x*(t, x) = 0, by bisection on cv - cu."""
        ur, vr = self.chart.u_map.range, self.chart.v_map.range
        lo = (vr.lo - t if math.isfinite(vr.lo) else t - ur.hi)
        hi = (t - ur.lo if math.isfinite(ur.lo) else vr.hi - t)
        if not math.isfinite(lo) or not math.isfinite(hi):
            raise ValueError("standing packets need a bounded surface slice")
        width = hi - lo

        def xhat(x):
            cu = float(self.chart.u_map.inverse_fn(np.array([t - x]))[0])
            cv = float(self.chart.v_map.inverse_fn(np.array([t + x]))[0])
            return cv - cu

        a, b = lo + 1e-12 * width, hi - 1e-12 * width
        for _ in range(200):
            mid = 0.5 * (a + b)
            if xhat(mid) < 0.0:
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)

    def geometry(self, t: float):
        """``geometry`` as for ``_TravelingPacket``, of both null sides,
        clipped to the coverage and to the mirror's right, in the u-side
        chart coordinate up to the mirror, which makes the only phase
        pile-up there, at the u-coverage edge, linear."""
        u_map, v_map = self.chart.u_map, self.chart.v_map
        r = self.core.radius
        u_lo, u_hi = u_map.fn(np.array([-r, r]))
        v_lo, v_hi = v_map.fn(np.array([-r, r]))
        lo = np.minimum(t - u_hi, v_lo - t)
        hi = np.maximum(t - u_lo, v_hi - t)
        if math.isfinite(u_map.range.lo):
            hi = np.minimum(hi, t - u_map.range.lo)
        if math.isfinite(v_map.range.lo):
            lo = np.maximum(lo, v_map.range.lo - t)
        mirror = self._bisect_mirror(t)
        s_mirror = u_map.inverse_fn(np.array([t - mirror]))[0]
        return ((np.maximum(lo, mirror), hi),
                _Substitution(u_map, "u", t, -r, s_mirror))


class _Conjugate:
    """Complex conjugate of a packet (negative-norm partner)."""

    def __init__(self, mode):
        self._mode = mode

    def evaluate(self, t, xs, owner=None):
        v, d = self._mode.evaluate(t, xs, owner)
        return np.conj(v), np.conj(d)

    def geometry(self, t):
        return self._mode.geometry(t)


# ---------- Klein-Gordon pairing ----------

@dataclass(frozen=True)
class QuadReport:
    """Result of one pairing (m1, m2): its value, quadrature error
    estimate and edge truncation, whether the truncation exceeds the
    tolerance, and the integrand evaluations of its grid.  The grid is
    the one the pairing (m1*, m2) shares, as in a matrix entry."""

    value: complex
    error: float
    truncation: float
    truncation_warning: bool
    n_evaluations: int


def _pair_row(stack, stack_geometry, g, t, tol):
    """Pair the row mode ``g`` with m column modes f_k and with their
    conjugates, all in one lockstep quadrature (``_adaptive_gk``).

    ``stack.evaluate(t, xs, owner)`` evaluates f_k at the points owned
    by column k, and ``stack_geometry`` is ``stack.geometry(t)``, whose
    support arrays hold each f_k's.  Entry k is integrated over the
    intersection of its support with g's, in the substitution of g, else
    of the stack, else in x.
    At every node g and the owning column are each evaluated once, and
    both components, (f_k, g) and (f_k*, g), are formed from those values.

    Returns (values, errors, truncations, n_evaluations): the first three
    of shape (m, 2), component 0 the pairing with f_k and 1 with f_k*.
    Entries with an empty window are 0, with no evaluations.
    """
    (lo1, hi1), stack_sub = stack_geometry
    (lo2, hi2), g_sub = g.geometry(t)
    sub = stack_sub if g_sub is None else g_sub
    a = np.atleast_1d(np.maximum(lo1, lo2))  # floats for one packet
    b = np.atleast_1d(np.minimum(hi1, hi2))
    live = a < b
    if sub is not None:
        a, b = sub.window(a, b)
        live &= a < b
    m = len(live)

    values = np.zeros((m, 2), dtype=complex)
    errors = np.zeros((m, 2))
    truncs = np.zeros((m, 2))
    n_evals = np.zeros(m, dtype=int)
    cols = np.flatnonzero(live)
    if len(cols) == 0:
        return values, errors, truncs, n_evals

    def integrand(ss, owner):
        col = cols[owner]
        xs = ss if sub is None else sub.x(ss)
        v2, d2 = g.evaluate(t, xs)
        v1, d1 = stack.evaluate(t, xs, col)
        out = np.empty((2, len(xs)), dtype=complex)
        np.multiply(np.conj(v1), d2, out=out[0])
        out[0] -= np.conj(d1) * v2
        np.multiply(v1, d2, out=out[1])
        out[1] -= d1 * v2
        out *= 1j
        if sub is not None:
            out *= sub.rate(ss)
        return out

    a, b = a[cols], b[cols]
    values[cols], errors[cols], n_evals[cols] = _adaptive_gk(
        integrand, a, b, tol)
    ends = np.stack([a, b], axis=1).ravel()
    owner = np.arange(len(ends)) // 2
    edge = np.abs(np.concatenate([integrand(ends[s], owner[s]) for s in
                                  _blocks(len(ends), _BLOCK_NODES)], axis=1))
    edge = edge.reshape(2, len(cols), 2)
    truncs[cols] = ((edge[:, :, 0] + edge[:, :, 1])
                    * np.maximum(1.0, 0.05 * (b - a))).T
    return values, errors, truncs, n_evals


def kg_inner_product(mode1, mode2, t: float = 0.0, tol: float = 1e-8,
                     full_output: bool = False):
    """i Int (m1* d_t m2 - d_t m1* m2) dx over a t = const base surface.

    The window is the intersection of the packet supports; the
    substitution is whichever mode prefers a non-linear one.

    This is a row of one in the engine of ``compute_coefficients``: mode1
    and its conjugate are paired with mode2 on one adaptive grid, so the
    value is bit for bit that of the matrix entry, and a conjugate packet
    ``_Conjugate(f)`` reproduces its beta entry (up to sign).
    """
    values, errors, truncs, n_evals = _pair_row(
        mode1, mode1.geometry(t), mode2, t, tol)
    report = QuadReport(complex(values[0, 0]), float(errors[0, 0]),
                        float(truncs[0, 0]), bool(truncs[0, 0] > tol),
                        int(n_evals[0]))
    return report if full_output else report.value


# ---------- coefficient matrices ----------

@dataclass(frozen=True)
class BogolubovPair:
    """alpha/beta matrices, rows indexed by basis-B packets, columns by
    basis-A packets, plus per-entry quadrature metadata: error estimate,
    edge truncation, integrand evaluations and the truncation warning of
    each entry's pairing.  The last two default to None, so a pair built
    from matrices alone needs only the first six fields."""

    alpha: np.ndarray
    beta: np.ndarray
    quad_error: np.ndarray
    truncation: np.ndarray
    basis_a: ModeBasis
    basis_b: ModeBasis
    n_evaluations: Optional[np.ndarray] = None
    truncation_warning: Optional[np.ndarray] = None

    def row_discretization_error(self, i: int) -> float:
        """Estimated absolute error of sum_k (|alpha|^2 - |beta|^2) for
        row i: quadrature and truncation contributions, unresolved content
        at the column-grid edges, and the attenuation of column packets
        against the row's content phase (rate ~ the row frequency)."""
        a, b = np.abs(self.alpha[i]), np.abs(self.beta[i])
        eps = self.quad_error[i] + self.truncation[i]
        quad_part = float(np.sum(2.0 * (a + b) * eps + eps * eps))
        lam = np.log(self.basis_a.frequencies)
        dlam = float(np.mean(np.diff(lam))) if len(lam) > 1 else 1.0
        sigma_b = self.basis_b.packet_width
        omega_b = float(self.basis_b.frequencies[i])
        cells = max(1.0, 1.0 / (math.sqrt(2.0) * sigma_b * omega_b * dlam))
        edge = float((a[0] ** 2 + a[-1] ** 2 + b[0] ** 2 + b[-1] ** 2))
        mass = float(np.sum(a * a + b * b))
        sigma_a = self.basis_a.packet_width
        attenuation = 2.5 * sigma_a ** 2 * omega_b ** 2 * mass
        return quad_part + 4.0 * cells * edge + attenuation


def compute_coefficients(basis_a: ModeBasis, basis_b: ModeBasis,
                         t: float = 0.0, tol: float = 1e-8) -> BogolubovPair:
    """alpha[i, k] = (f_k, g_i),  beta[i, k] = -(f_k*, g_i).

    Each row is one lockstep quadrature (``_pair_row``): every entry keeps
    its own window and adaptive grid, on which f_k and f_k* are paired
    together, and each refinement wave evaluates the row packet g_i and
    the stack of all columns once for the new nodes of every open entry,
    in blocks of bounded size."""
    stack = basis_a._packet(basis_a.frequencies)
    geometry = stack.geometry(t)
    packets_b = basis_b.packets()
    nb, na = len(packets_b), len(basis_a)
    alpha = np.zeros((nb, na), dtype=complex)
    beta = np.zeros((nb, na), dtype=complex)
    qerr = np.zeros((nb, na))
    trunc = np.zeros((nb, na))
    n_evals = np.zeros((nb, na), dtype=int)
    warned = np.zeros((nb, na), dtype=bool)
    for i, g in enumerate(packets_b):
        values, errors, truncs, n_evals[i] = _pair_row(stack, geometry, g,
                                                       t, tol)
        alpha[i] = values[:, 0]
        beta[i] = -values[:, 1]
        qerr[i] = errors[:, 0] + errors[:, 1]
        trunc[i] = truncs[:, 0] + truncs[:, 1]
        warned[i] = (truncs > tol).any(axis=1)
    return BogolubovPair(alpha, beta, qerr, trunc, basis_a, basis_b,
                         n_evals, warned)


def expected_number(pair: BogolubovPair, i: int) -> float:
    """Occupation of packet i of basis B in the basis-A vacuum."""
    return float(np.sum(np.abs(pair.beta[i]) ** 2))


def row_normalization(pair: BogolubovPair, i: int) -> float:
    return float(np.sum(np.abs(pair.alpha[i]) ** 2
                        - np.abs(pair.beta[i]) ** 2))
