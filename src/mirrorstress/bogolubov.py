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
The integration parameter is the chart coordinate of the traveling
packet (or stack) that brings the substitution, so that packet is read
at it directly and only the other side goes through x.  A traveling
packet depends on one null coordinate alone, so a pairing of two packets
of one sector does not depend on the surface: at any t it takes the
same evaluations and agrees with t = 0 to rounding.  Standing packets
are read through x, as their mirror moves with t.
A packet, or a stack of them, gives its supports and that substitution
in one ``geometry`` call, so a matrix takes every entry's window at once.
A whole matrix is one lockstep quadrature over its entries, row after
row: every entry (i, k) keeps its own window and adaptive grid, on which
alpha and beta are paired together, and each refinement wave evaluates
the row stack once and the column stack once at the new nodes of every
open entry, each node read by the two packets of its own entry.  A wave
is evaluated in fixed blocks of at most 64 panels, so the memory of a
wave does not grow with the number of entries.  A single pairing is a
row of one: a matrix of one entry, through the same engine.

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

from .charts import RANGE_ERRORS, ChartMap, ConformalChart, Interval

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
    ``_LOCKSTEP_ENTRIES``, which bounds the panel state held at once; as
    an entry refines alone, no output depends on the grouping.  A
    Bogolubov matrix passes all its entries at once, row after row, so
    one group holds entries of several rows.
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
    frequencies that are not positive and increasing, a ``packet_width``
    that is not positive and finite or whose packet table would overflow
    a double or need more than 2^17 cells, or a chart map the packets use
    (the sector's, or both for Dirichlet) that has no closed-form inverse
    or whose domain does not hold the widest packet's chart-coordinate
    support [-R, R].
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
        reach = _unit_layout(self.packet_width)[0] / freqs[0]
        if self.boundary not in ("full_line", "dirichlet_half_line"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if self.sector not in ("u", "v"):
            raise ValueError("sector must be 'u' or 'v'")
        chart = self.chart
        maps = ([chart.u_map, chart.v_map]
                if self.boundary == "dirichlet_half_line"
                else [chart.u_map if self.sector == "u" else chart.v_map])
        for m in maps:
            if m.inverse_fn is None:
                raise ValueError(f"chart '{chart.name}': map {m.label} has "
                                 f"no closed-form inverse for mode work")
            if not m.domain.lo < -reach < reach < m.domain.hi:
                raise ValueError(
                    f"chart '{chart.name}': packets reach chart coordinates "
                    f"[-{reach:.6g}, {reach:.6g}], outside the domain "
                    f"{m.domain} of map {m.label}")

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
            return _TravelingPacket(self.chart, self.sector, _PacketCore(
                omega_c, self.packet_width, 1.0 / math.sqrt(4.0 * math.pi)))
        return _StandingPacket(self.chart, _PacketCore(
            omega_c, self.packet_width, 1.0 / math.sqrt(math.pi)))


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
# entries refined in lockstep at a time: their panel state, up to about
# 25 KB an entry, stays within a budget of about 6 MB, and one group
# holds a 1 x 255 row or a 3 x 19 matrix whole, so its waves fill blocks
_LOCKSTEP_ENTRIES = 256
# cells of one unit-packet table, 71 MB of coefficients (sigma 0.5: 11,559)
_MAX_CELLS = 1 << 17
_LEGENDRE_64 = np.polynomial.legendre.leggauss(64)


def _unit_layout(sigma):
    """(radius, log-frequency offsets, weights, frequencies, cell width,
    cell count) of the unit packet table of width sigma, the radius being
    where the envelope falls below the support threshold.  ValueError
    unless sigma is positive and finite, the radius a finite float and
    the table within ``_MAX_CELLS`` cells."""
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"packet_width must be positive and finite, "
                         f"got {sigma!r}")
    root = math.sqrt(math.log(1.0 / _SUPPORT_EPS))
    try:
        radius = _SUPPORT_PAD * max(root / sigma,
                                    math.exp(2.0 * sigma * root))
    except RANGE_ERRORS:
        radius = math.inf
    if radius == math.inf:
        raise ValueError(f"packet_width {sigma!r} out of range: its support "
                         f"radius overflows a double")
    span = 7.0 * math.sqrt(2.0) * sigma
    # from e^700 on the node count sits at its cap whatever the radius
    m = int(min(12032, 72 + 0.55 * math.exp(min(span, 700.0)) * radius))
    # composite 64-point panels: one rule, any total node count
    panels = max(2, (m + 63) // 64)
    base_nodes, base_weights = _LEGENDRE_64
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

    def window(self, x0, x1, owner):
        """The s-interval of the x-intervals [x0, x1] (arrays), clipped to
        the s-window of the packet ``owner`` indexes for each interval.
        An end that maps to no finite s, at or past the substitution's
        reachable limit, takes the s-window's end."""
        with np.errstate(all="ignore"):
            s0, s1 = self.s(x0), self.s(x1)
        if (self.map.monotone_sign > 0) != (self.sector == "v"):
            s0, s1 = s1, s0  # s runs against x
        lo, hi = (np.take(end, owner)
                  for end in np.broadcast_arrays(self.lo, self.hi))
        return (np.where(np.isfinite(s0), np.maximum(lo, s0), lo),
                np.where(np.isfinite(s1), np.minimum(hi, s1), hi))


class _TravelingPacket:
    """Right- or left-moving packet of one chart sector with the packet
    ``core``, or a stack of them (``evaluate`` and ``geometry``)."""

    def __init__(self, chart: ConformalChart, sector: str,
                 core: _PacketCore):
        self.sector = sector
        self.map = chart.u_map if sector == "u" else chart.v_map
        self.core = core

    def evaluate(self, t: float, xs, owner=None):
        """(values, d/dt values) on the surface t = const; for a stack,
        ``owner`` picks the packet at each point."""
        xs = np.asarray(xs, dtype=float)
        w = t - xs if self.sector == "u" else t + xs
        inside = _index(self.map.range.contains(w))
        c = self.map.inverse_fn(w[inside])
        v, dv = self.core.wave(c, None if owner is None else owner[inside])
        # d/dt = (dc/dw) f'(c); dw/dt = 1 on constant-t surfaces
        return (_spread(v, inside, xs.shape),
                _spread(dv / self.map.dfn(c), inside, xs.shape))

    def geometry(self, t: float):
        """((lo, hi), substitution) on the surface t: the x-support, of
        arrays for a stack, and the chart-coordinate substitution over
        the support radius, None for an identity map (one whose fn is its
        inverse_fn, as ``identity_map`` builds it)."""
        r = self.core.radius
        lo, hi = self.map.fn(np.array([-r, r]))
        support = (t - hi, t - lo) if self.sector == "u" else (lo - t, hi - t)
        if self.map.fn is self.map.inverse_fn:
            return support, None
        return support, _Substitution(self.map, self.sector, t, -r, r)

    def along(self, sub: _Substitution, ss, owner=None):
        """(values, d/dt values times |dx/ds|) at the points ss of its own
        substitution ``sub``, whose s is the packet's chart coordinate:
        the packet is read at c = s, not through x(s) and back, which
        would lose map(s)'s digits wherever |map(s)| << |t|.  With
        dc/dt = 1 / map'(c), the product is monotone_sign U'(c), so the
        value does not depend on t."""
        v, dv = self.core.wave(ss, owner)
        return v, self.map.monotone_sign * dv


def _mirror(chart: ConformalChart, t: float):
    """(s, x) of the mirror u* = v* = s on the surface t: the s with
    u(s) + v(s) = 2t, by one ``ChartMap.invert`` of that diagonal map,
    whose range is the sum of the two maps' images over their common
    domain, and its base position x = t - u(s).  ValueError where the
    surface misses the chart, so that no s solves it."""
    u_map, v_map = chart.u_map, chart.v_map
    common = u_map.domain.intersect(v_map.domain)
    u_image, v_image = u_map.image(common), v_map.image(common)
    diagonal = ChartMap(
        lambda s: u_map.fn(s) + v_map.fn(s),
        lambda s: u_map.dfn(s) + v_map.dfn(s),
        domain=common, monotone_sign=u_map.monotone_sign,
        label=f"{chart.name} mirror",
        range_hint=Interval(u_image.lo + v_image.lo,
                            u_image.hi + v_image.hi))
    if not diagonal.range.contains(2.0 * t):
        raise ValueError(f"surface t = {t} misses chart '{chart.name}'")
    s = diagonal.invert(2.0 * t)
    return s, t - u_map.fn(s)


class _StandingPacket:
    """Dirichlet packet vanishing on the chart's mirror x* = 0, or a stack
    of them: the u- and v-sector packets of one ``core``, as (f_u - f_v) /
    2i on the mirror's right and zero on its left."""

    def __init__(self, chart: ConformalChart, core: _PacketCore):
        self.chart = chart
        self.core = core
        self.u = _TravelingPacket(chart, "u", core)
        self.v = _TravelingPacket(chart, "v", core)

    def evaluate(self, t: float, xs, owner=None):
        xs = np.asarray(xs, dtype=float)
        u_map, v_map = self.u.map, self.v.map
        u, v = t - xs, t + xs
        inside = u_map.range.contains(u) & v_map.range.contains(v)
        # the state lives on the mirror's right, x* > 0
        live = np.zeros(xs.shape, bool)
        live[inside] = (v_map.inverse_fn(v[inside])
                        > u_map.inverse_fn(u[inside]))
        live = _index(live)
        own = None if owner is None else owner[live]
        fu, dfu = self.u.evaluate(t, xs[live], own)
        fv, dfv = self.v.evaluate(t, xs[live], own)
        return (_spread((fu - fv) / 2j, live, xs.shape),
                _spread((dfu - dfv) / 2j, live, xs.shape))

    def geometry(self, t: float):
        """``geometry`` as for ``_TravelingPacket``: the hull of both
        sides' supports, clipped to the u coverage and to the mirror's
        right, in the u-side chart coordinate up to the mirror, which
        makes the only phase pile-up there, at the u-coverage edge,
        linear."""
        (u_lo, u_hi), _ = self.u.geometry(t)
        (v_lo, v_hi), _ = self.v.geometry(t)
        hi = np.maximum(u_hi, v_hi)
        edge = self.u.map.range.lo
        if math.isfinite(edge):
            hi = np.minimum(hi, t - edge)
        s, x = _mirror(self.chart, t)
        return ((np.maximum(np.minimum(u_lo, v_lo), x), hi),
                _Substitution(self.u.map, "u", t, -self.core.radius, s))

    def along(self, sub: _Substitution, ss, owner=None):
        """``along`` as for ``_TravelingPacket``, but through x = x(s): the
        v side and the mirror of a standing packet move with t."""
        v, d = self.evaluate(sub.t, sub.x(ss), owner)
        return v, d * sub.rate(ss)


class _Conjugate:
    """Complex conjugate of a packet (negative-norm partner)."""

    def __init__(self, mode):
        self._mode = mode

    def evaluate(self, t, xs, owner=None):
        v, d = self._mode.evaluate(t, xs, owner)
        return np.conj(v), np.conj(d)

    def geometry(self, t):
        return self._mode.geometry(t)

    def along(self, sub, ss, owner=None):
        v, d = self._mode.along(sub, ss, owner)
        return np.conj(v), np.conj(d)


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


def _pair(rows, columns, t, tol):
    """Pair every row packet g_i with every column packet f_k and with its
    conjugate, all nb x na entries, row after row, in one lockstep
    quadrature (``_adaptive_gk``).

    ``rows`` and ``columns`` are stacks of packets, or single packets (a
    stack of one): ``evaluate(t, xs, owner)`` reads at each point the
    packet ``owner`` indexes, and ``geometry(t)`` gives every packet's
    support and the stack's substitution.  The substitution is chosen
    once: the rows', else the columns', else none.  Entry (i, k) is
    integrated over the intersection of the supports of g_i and f_k, in
    s over the s-window of whichever of the two brings the substitution,
    else in x.  At every node g_i and f_k of the owning entry are each
    evaluated once, and both components, (f_k, g_i) and (f_k*, g_i), are
    formed from those values.

    Returns (values, errors, truncations, n_evaluations): the first three
    of shape (nb, na, 2), component 0 the pairing with f_k and 1 with
    f_k*, the last (nb, na).  Entries with an empty window are 0, with no
    evaluations.
    """
    (lo_b, hi_b), sub_b = rows.geometry(t)
    (lo_a, hi_a), sub_a = columns.geometry(t)
    nb, na = np.size(lo_b), np.size(lo_a)
    row, col = np.divmod(np.arange(nb * na), na)
    a = np.maximum(np.take(lo_a, col), np.take(lo_b, row))
    b = np.minimum(np.take(hi_a, col), np.take(hi_b, row))
    sub, sub_side = (sub_a, columns) if sub_b is None else (sub_b, rows)
    live = a < b
    if sub is not None:
        a, b = sub.window(a, b, row if sub_side is rows else col)
        live &= a < b

    values = np.zeros((nb * na, 2), dtype=complex)
    errors = np.zeros((nb * na, 2))
    truncs = np.zeros((nb * na, 2))
    n_evals = np.zeros(nb * na, dtype=int)
    entries = np.flatnonzero(live)
    row, col = row[entries], col[entries]

    def side(mode, ss, owner):
        """(values, d/dt values times |dx/ds|) of ``mode`` at ss: the
        substitution's own side at s itself, the other at x(s)."""
        if sub is None:
            return mode.evaluate(t, ss, owner)
        if mode is sub_side:
            return mode.along(sub, ss, owner)
        v, d = mode.evaluate(t, sub.x(ss), owner)
        return v, d * sub.rate(ss)

    def integrand(ss, owner):
        v2, d2 = side(rows, ss, row[owner])
        v1, d1 = side(columns, ss, col[owner])
        out = np.empty((2, len(ss)), dtype=complex)
        np.multiply(np.conj(v1), d2, out=out[0])
        out[0] -= np.conj(d1) * v2
        np.multiply(v1, d2, out=out[1])
        out[1] -= d1 * v2
        out *= 1j
        return out

    if len(entries):
        a, b = a[entries], b[entries]
        values[entries], errors[entries], n_evals[entries] = _adaptive_gk(
            integrand, a, b, tol)
        ends = np.stack([a, b], axis=1).ravel()
        owner = np.arange(len(ends)) // 2
        edge = np.abs(np.concatenate(
            [integrand(ends[s], owner[s])
             for s in _blocks(len(ends), _BLOCK_NODES)], axis=1))
        edge = edge.reshape(2, len(entries), 2)
        truncs[entries] = ((edge[:, :, 0] + edge[:, :, 1])
                           * np.maximum(1.0, 0.05 * (b - a))).T
    return tuple(x.reshape((nb, na) + x.shape[1:])
                 for x in (values, errors, truncs, n_evals))


def _check_surface(t: float, tol: float):
    """ValueError unless the surface time t is finite and the tolerance
    tol finite and positive: an infinite or NaN t empties every window,
    and a NaN tol stops every refinement at once."""
    if not (abs(t) < math.inf and 0.0 < tol < math.inf):
        raise ValueError(f"need a finite surface time t and a finite "
                         f"positive tol, got t={t!r}, tol={tol!r}")


def kg_inner_product(mode1, mode2, t: float = 0.0, tol: float = 1e-8,
                     full_output: bool = False):
    """i Int (m1* d_t m2 - d_t m1* m2) dx over a t = const base surface.

    The window is the intersection of the packet supports; the
    substitution is whichever mode prefers a non-linear one.

    This is a row of one in the engine of ``compute_coefficients``: the
    1 x 1 matrix of row mode2 and column mode1, whose entry pairs mode1
    and its conjugate with mode2 on one adaptive grid, so the value is bit
    for bit that of the matrix entry, and a conjugate packet
    ``_Conjugate(f)`` reproduces its beta entry (up to sign).
    ValueError unless t is finite and tol finite and positive, or where a
    Dirichlet mode's surface t misses its chart.
    """
    _check_surface(t, tol)
    values, errors, truncs, n_evals = _pair(mode2, mode1, t, tol)
    value, error, trunc = values[0, 0, 0], errors[0, 0, 0], truncs[0, 0, 0]
    report = QuadReport(complex(value), float(error), float(trunc),
                        bool(trunc > tol), int(n_evals[0, 0]))
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

    The whole matrix is one lockstep quadrature (``_pair``) over its
    entries, row after row: every entry keeps its own window and adaptive
    grid, on which f_k and f_k* are paired together, and each refinement
    wave evaluates the row stack (all g_i) and the column stack (all f_k)
    once each at the new nodes of every open entry, in blocks of bounded
    size.  The substitution is chosen once for the matrix, and a
    Dirichlet stack solves its mirror once.  ValueError unless t is
    finite and tol finite and positive, or where the surface t misses the
    chart of a Dirichlet basis."""
    _check_surface(t, tol)
    values, errors, truncs, n_evals = _pair(
        basis_b._packet(basis_b.frequencies),
        basis_a._packet(basis_a.frequencies), t, tol)
    return BogolubovPair(values[..., 0].copy(), -values[..., 1],
                         errors[..., 0] + errors[..., 1],
                         truncs[..., 0] + truncs[..., 1], basis_a, basis_b,
                         n_evals, (truncs > tol).any(axis=-1))


def expected_number(pair: BogolubovPair, i: int) -> float:
    """Occupation of packet i of basis B in the basis-A vacuum."""
    return float(np.sum(np.abs(pair.beta[i]) ** 2))


def row_normalization(pair: BogolubovPair, i: int) -> float:
    return float(np.sum(np.abs(pair.alpha[i]) ** 2
                        - np.abs(pair.beta[i]) ** 2))
