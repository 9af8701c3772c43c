"""Mode packets, Klein-Gordon pairings, Bogolubov matrices."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorstress import bogolubov
from mirrorstress.bogolubov import (
    _BLOCK_NODES,
    _CHEB_FROM_VALUES,
    _CHEB_N,
    _CHEB_POINTS,
    _CHUNK,
    _FILL_ELEMENTS,
    _G7_IDX,
    _G7_WEIGHTS,
    _K15_NODES,
    _K15_WEIGHTS,
    ModeBasis,
    QuadReport,
    _adaptive_gk,
    _blocks,
    _Conjugate,
    _mirror,
    _unit_packet,
    _UnitPacket,
    compute_coefficients,
    critical_packet_width,
    expected_number,
    kg_inner_product,
    row_normalization,
)
from mirrorstress.charts import (
    ChartMap,
    ConformalChart,
    compose_charts,
    identity_map,
)
from mirrorstress.jets import jexp
from mirrorstress.scenarios import (
    hatted_chart_for_accelerated_mirror,
    hatted_chart_for_stationary_mirror,
)

from bogolubov_bases import (
    MINK,
    RIND,
    dirichlet_bases,
    empty_window_bases,
    planck_bases,
    two_by_five_bases,
    v_sector_bases,
    wedge_column_bases,
)

# the wedge chart relabeled through composition with identity maps
RIND_COMPOSED = compose_charts(RIND, identity_map("u"), identity_map("v"),
                               "rindler-composed")


# ---------- basis validation ----------

def test_default_grid():
    basis = ModeBasis(MINK)
    assert len(basis) == 32
    assert basis.packet_width == 0.5
    assert basis.frequencies[0] == pytest.approx(0.1)
    assert basis.frequencies[-1] == pytest.approx(10.0)


def test_frequencies_must_increase():
    with pytest.raises(ValueError):
        ModeBasis(MINK, frequencies=np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        ModeBasis(MINK, frequencies=np.array([-1.0, 0.5]))
    # 1e3 is finite, but its support radius overflows a double; the
    # tables of 0.75, 1 and 1e-300 would need 1.5e6, 2e8 and 3e300 cells,
    # and at 72 the top frequency node overflows
    built = _unit_packet.cache_info().misses
    for width in (0.0, math.nan, math.inf, 1e3, 0.75, 1.0, 72.0, 1e-300):
        with pytest.raises(ValueError, match="packet_width"):
            ModeBasis(MINK, frequencies=np.array([1.0]), packet_width=width)
    ModeBasis(MINK, frequencies=np.array([1.0]), packet_width=0.5)
    assert _unit_packet.cache_info().misses == built  # no table was built


def test_packet_maps_need_a_closed_form_inverse():
    # a forward-only u map: only the bases that use it are refused
    chart = ConformalChart("forward-u", ChartMap(jexp, jexp, monotone_sign=1,
                                                 label="exp-u"),
                           MINK.v_map)
    with pytest.raises(ValueError, match="exp-u has no closed-form inverse"):
        ModeBasis(chart, frequencies=np.array([1.0]))
    with pytest.raises(ValueError, match="exp-u has no closed-form inverse"):
        ModeBasis(chart, boundary="dirichlet_half_line",
                  frequencies=np.array([1.0]))
    ModeBasis(chart, frequencies=np.array([1.0]), sector="v")


@pytest.mark.parametrize("a", [0.5, 1.0])
def test_standing_basis_on_accelerated_mirror_chart_names_its_domain(a):
    # the chart's u map is defined for u* > 0 only, so half of a packet
    # centred at u* = 0 would fall outside it
    hat = hatted_chart_for_accelerated_mirror(a)
    with pytest.raises(ValueError, match=r"outside the domain \(0\.0, inf\)"):
        ModeBasis(hat, boundary="dirichlet_half_line",
                  frequencies=np.array([1.0, 2.0, 4.0]), packet_width=0.25)


# ---------- normalization and overlaps ----------

@pytest.mark.parametrize("chart,sigma", [
    (MINK, 0.06), (MINK, 0.25), (RIND, 0.06), (RIND, 0.3),
    (RIND_COMPOSED, 0.06),
])
def test_packet_normalization(chart, sigma):
    basis = ModeBasis(chart, frequencies=np.array([0.5, 1.0, 2.0]),
                      packet_width=sigma)
    for i in (0, 2):
        v = kg_inner_product(basis.packet(i), basis.packet(i))
        assert abs(v - 1.0) < 1e-6


def test_disjoint_frequency_packets_orthogonal():
    basis = ModeBasis(MINK, frequencies=np.array([0.2, 20.0]),
                      packet_width=0.05)
    v = kg_inner_product(basis.packet(0), basis.packet(1))
    assert abs(v) < 1e-6


def test_same_chart_overlap_matches_gaussian_formula():
    sigma = 0.12
    basis = ModeBasis(MINK, frequencies=np.geomspace(0.5, 2.0, 4),
                      packet_width=sigma)
    lam = np.log(basis.frequencies)
    for i in range(4):
        got = kg_inner_product(basis.packet(0), basis.packet(i))
        want = math.exp(-((lam[i] - lam[0]) ** 2) / (8.0 * sigma ** 2))
        assert abs(got - want) < 1e-6


def test_hermiticity():
    basis = ModeBasis(RIND, frequencies=np.array([0.6, 1.3]),
                      packet_width=0.1)
    a = kg_inner_product(basis.packet(0), basis.packet(1))
    b = kg_inner_product(basis.packet(1), basis.packet(0))
    assert abs(a - np.conj(b)) < 1e-10


def test_truncation_metadata():
    basis = ModeBasis(MINK, frequencies=np.array([1.0]), packet_width=0.1)
    rep = kg_inner_product(basis.packet(0), basis.packet(0),
                           full_output=True)
    assert rep.error < 1e-8
    assert not rep.truncation_warning


def assert_matches_single_pairings(basis_a, basis_b, t=0.0, tol=1e-9):
    """The row engine against one single pairing per mode, f_k and its
    conjugate, bit for bit: the value, the error and truncation of each
    component, the shared grid's evaluation count and the warning."""
    pair = compute_coefficients(basis_a, basis_b, t=t, tol=tol)
    for i, g in enumerate(basis_b.packets()):
        for k, f in enumerate(basis_a.packets()):
            ra = kg_inner_product(f, g, t=t, tol=tol, full_output=True)
            rb = kg_inner_product(_Conjugate(f), g, t=t, tol=tol,
                                  full_output=True)
            for rep in (ra, rb):
                assert isinstance(rep, QuadReport)
                assert isinstance(rep.value, complex)
                assert isinstance(rep.error, float)
                assert isinstance(rep.truncation, float)
                assert isinstance(rep.truncation_warning, bool)
                assert isinstance(rep.n_evaluations, int)
            assert pair.alpha[i, k] == ra.value
            assert pair.beta[i, k] == -rb.value
            assert pair.quad_error[i, k] == ra.error + rb.error
            assert pair.truncation[i, k] == ra.truncation + rb.truncation
            assert pair.n_evaluations[i, k] == ra.n_evaluations
            assert pair.n_evaluations[i, k] == rb.n_evaluations
            assert pair.truncation_warning[i, k] == (ra.truncation_warning
                                                     or rb.truncation_warning)
    return pair


def test_shared_grid_pairing_matches_separate_pairings():
    pair = assert_matches_single_pairings(*two_by_five_bases())
    assert np.abs(pair.beta).max() > 1e-3  # beta is not trivially zero


def test_wedge_column_matrix_matches_separate_pairings():
    # inertial rows: every entry integrates in the substitution of the
    # wedge column stack, over its own s-window
    pair = assert_matches_single_pairings(*wedge_column_bases())
    assert np.abs(pair.beta).max() > 1e-3


def test_v_sector_matrix_matches_separate_pairings():
    pair = assert_matches_single_pairings(*v_sector_bases(), t=0.5)
    assert np.abs(pair.beta).max() > 1e-3


@pytest.mark.parametrize("make_bases", [
    two_by_five_bases, v_sector_bases, wedge_column_bases,
], ids=["u-rows", "v-rows", "u-column-stack"])
@pytest.mark.parametrize("t", [0.5, 2.0])
def test_single_sector_pairings_do_not_depend_on_the_surface(make_bases, t):
    # a traveling packet depends on one null coordinate, and the pairing
    # of two of one sector is conserved.  The wedge side that owns the
    # substitution must be read at its chart coordinate itself: through
    # x, a late surface drops the digits of u(s) below t, and at t = 0.5
    # the u rows then take 143,121 evaluations an entry on average,
    # against 1,014, with alpha off by up to 1.05e-2 in a row whose
    # largest |alpha| is 0.169
    late = compute_coefficients(*make_bases(), t=t, tol=1e-9)
    ref = compute_coefficients(*make_bases(), t=0.0, tol=1e-9)
    assert np.array_equal(late.n_evaluations, ref.n_evaluations)
    scale = 1e-13 * np.abs(ref.alpha).max(axis=1, keepdims=True)
    assert (np.abs(late.alpha - ref.alpha) <= scale).all()
    assert (np.abs(late.beta - ref.beta) <= scale).all()


@pytest.mark.parametrize("t,tol", [
    (math.inf, 1e-8), (-math.inf, 1e-8), (math.nan, 1e-8),
    (0.0, math.nan), (0.0, math.inf), (0.0, 0.0), (0.0, -1.0),
])
def test_surface_time_and_tolerance_must_be_finite(t, tol):
    # an infinite or NaN t emptied every window: alpha = beta = 0 with no
    # evaluations and no warning.  A NaN tol stopped every refinement:
    # max |beta| read 0.060 against 0.0089, with no warning
    basis_a = ModeBasis(MINK, frequencies=np.array([1.0, 2.0]),
                        packet_width=0.1)
    basis_b = ModeBasis(RIND, frequencies=np.array([1.0, 2.0]),
                        packet_width=0.1)
    with pytest.raises(ValueError, match="finite"):
        compute_coefficients(basis_a, basis_b, t=t, tol=tol)
    with pytest.raises(ValueError, match="finite"):
        kg_inner_product(basis_a.packet(0), basis_b.packet(0), t=t, tol=tol)


def test_dirichlet_matrix_matches_separate_pairings():
    pair = assert_matches_single_pairings(*dirichlet_bases(), t=2.0,
                                          tol=1e-10)
    assert np.abs(pair.beta).max() > 1e-3
    assert len(np.unique(pair.n_evaluations)) > 2  # entries refine apart


def test_empty_window_entries_match_separate_pairings():
    pair = assert_matches_single_pairings(*empty_window_bases())
    empty = pair.n_evaluations[0] == 0
    assert empty.tolist() == [False] * 4 + [True] * 2
    assert not pair.alpha[0, empty].any() and not pair.beta[0, empty].any()
    assert np.abs(pair.alpha[0, :3]).min() > 0.1


@pytest.mark.parametrize("make_bases,t,tol", [
    (two_by_five_bases, 0.0, 1e-9), (v_sector_bases, 0.5, 1e-9),
    (wedge_column_bases, 0.0, 1e-9), (dirichlet_bases, 2.0, 1e-10),
], ids=["2x5", "v-sector", "wedge-columns", "dirichlet"])
def test_outputs_do_not_depend_on_the_lockstep_grouping(monkeypatch,
                                                        make_bases, t, tol):
    # every entry refines as it would alone, so a matrix cut into groups
    # of one entry, or of three that cross row ends, matches the default
    # grouping bit for bit
    def run(group):
        monkeypatch.setattr(bogolubov, "_LOCKSTEP_ENTRIES", group)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pair = compute_coefficients(*make_bases(), t=t, tol=tol)
        return pair, [(w.category, str(w.message)) for w in caught]

    ref, ref_warnings = run(bogolubov._LOCKSTEP_ENTRIES)
    assert ref.alpha.size > 3
    for group in (1, 3):
        pair, caught = run(group)
        for name in ("alpha", "beta", "quad_error", "truncation",
                     "n_evaluations", "truncation_warning"):
            got, want = getattr(pair, name), getattr(ref, name)
            assert got.tobytes() == want.tobytes(), (group, name)
        assert caught == ref_warnings


def test_wide_row_transient_memory_stays_bounded():
    # the 1 x 255 row is one lockstep group; its panel state and the
    # evaluation blocks of a wave peaked at 2.65 MiB (tracemalloc, numpy
    # 2.4.6), or 3.17 MiB where the call grows the shared basis buffer;
    # 2.48 MiB with blocks of 64 panels, read point by point
    basis_a, basis_b = planck_bases()
    compute_coefficients(basis_a, basis_b, tol=1e-9)  # tables built, filled
    tracemalloc.start()
    try:
        compute_coefficients(basis_a, basis_b, tol=1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_sparse_table_read_stays_within_twice_its_padded_basis(
        monkeypatch):
    # at width 0.5 the cells are sized by a top frequency node of weight
    # about 2e-11, so nearly every point of a read is alone in its cell
    # and pads a chunk of its own.  The worst read is an evaluation block
    # of such points: a basis of _CHUNK x _BLOCK_NODES x 17 doubles
    # (4.0 MiB), the most the shared buffer keeps, to which its chunks'
    # coefficients and products add about half and a quarter.  Measured
    # 1.83 times the basis (tracemalloc, numpy 2.4.6), a margin of 1.09
    # under the bound of 2.  A read's memory does not depend on the
    # coefficients, so a fresh table is read unfilled, marked complete.
    unit = _UnitPacket(0.5)
    unit._complete = True
    cells = np.linspace(0, len(unit._mids) - 1, _BLOCK_NODES).astype(int)
    z = unit._mids[cells]
    monkeypatch.setattr(_UnitPacket, "_work", np.empty(0))
    tracemalloc.start()
    try:
        unit.table(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    basis = _CHUNK * _BLOCK_NODES * _CHEB_N * 8
    assert _UnitPacket._work.nbytes == basis
    assert peak < 2 * basis


def test_row_evaluation_stays_within_block_budget(monkeypatch, planck_pair):
    sizes = []
    table = _UnitPacket.table

    def recording_table(self, z):
        sizes.append(len(z))
        return table(self, z)

    monkeypatch.setattr(_UnitPacket, "table", recording_table)
    pair = compute_coefficients(planck_pair.basis_a, planck_pair.basis_b,
                                tol=1e-9)
    # the Chebyshev basis of one read, 17 doubles a point before padding,
    # stays within the budget
    assert _CHEB_N * max(sizes) <= _FILL_ELEMENTS
    assert _CHEB_N * max(sizes) > _FILL_ELEMENTS // 2  # the blocks are filled
    assert np.array_equal(pair.alpha, planck_pair.alpha)
    assert np.array_equal(pair.n_evaluations, planck_pair.n_evaluations)


def reference_adaptive_gk(f, a, b, tol, max_panels=4096):
    """One entry at a time: the quadrature the lockstep engine reproduces
    entry by entry."""
    edges = np.linspace(a, b, 17)
    n_evals = 0

    def refine(lo, hi):
        nonlocal n_evals
        mid = 0.5 * (lo + hi)[:, None]
        half = 0.5 * (hi - lo)[:, None]
        xs = mid + half * _K15_NODES[None, :]
        vals = f(xs.ravel()).reshape((-1,) + xs.shape)
        n_evals += xs.size
        k15 = (vals * _K15_WEIGHTS).sum(axis=-1) * half[:, 0]
        g7 = (vals[:, :, _G7_IDX] * _G7_WEIGHTS).sum(axis=-1) * half[:, 0]
        return k15, np.abs(k15 - g7)

    lo_all, hi_all = edges[:-1], edges[1:]
    integrals, errors = refine(lo_all, hi_all)
    for _ in range(60):
        n_panels = errors.shape[1]
        open_comps = np.flatnonzero(errors.sum(axis=1) > tol)
        if len(open_comps) == 0 or n_panels >= max_panels:
            break
        budget = tol / n_panels
        mask = np.zeros(n_panels, bool)
        for err in errors[open_comps]:
            worst = np.argsort(err)[::-1][:max(1, n_panels // 2)]
            mask[worst[err[worst] > 0.25 * budget]] = True
        if not mask.any():
            break
        keep = ~mask
        lo_s, hi_s = lo_all[mask], hi_all[mask]
        mid_s = 0.5 * (lo_s + hi_s)
        new_lo = np.concatenate([lo_s, mid_s])
        new_hi = np.concatenate([mid_s, hi_s])
        k15_new, err_new = refine(new_lo, new_hi)
        lo_all = np.concatenate([lo_all[keep], new_lo])
        hi_all = np.concatenate([hi_all[keep], new_hi])
        integrals = np.concatenate([integrals[:, keep], k15_new], axis=1)
        errors = np.concatenate([errors[:, keep], err_new], axis=1)
    order = np.argsort(lo_all, kind="stable")
    return integrals[:, order].sum(axis=1), errors.sum(axis=1), n_evals


@pytest.mark.parametrize("tol,max_panels", [(1e-9, 4096), (1e-13, 4096),
                                            (1e-13, 100)])
def test_lockstep_quadrature_matches_one_entry_at_a_time(tol, max_panels):
    # oscillatory entries, and a singularity at x = 0.3 (kept finite) that
    # no panel resolves to tol 1e-13: entries covering it refine toward
    # it until the panel cap
    rng = np.random.default_rng(5)
    freq = rng.uniform(0.5, 40.0, 12)
    a = rng.uniform(-3.0, 0.0, 12)
    b = a + rng.uniform(0.1, 6.0, 12)

    def f(xs, owner):
        return np.stack([np.exp(1j * freq[owner] * xs - xs * xs),
                         (np.abs(xs - 0.3) + 1e-300) ** -0.5 + 0j])

    values, errors, n_evals = _adaptive_gk(f, a, b, tol, max_panels)
    for k in range(12):
        want = reference_adaptive_gk(
            lambda xs: f(xs, np.full(len(xs), k)), a[k], b[k], tol,
            max_panels)
        assert np.array_equal(values[k], want[0])
        assert np.array_equal(errors[k], want[1])
        assert n_evals[k] == want[2]
    assert len(np.unique(n_evals)) > 6


def test_table_kernel_matrix_matches_exact_sum_kernel(monkeypatch):
    # reference: the exact node sums patched in as the kernel
    basis_a, basis_b = two_by_five_bases()
    pair = compute_coefficients(basis_a, basis_b, tol=1e-9)
    monkeypatch.setattr(_UnitPacket, "table", _UnitPacket.exact)
    ref = compute_coefficients(basis_a, basis_b, tol=1e-9)
    assert np.abs(pair.alpha - ref.alpha).max() < 1e-12
    assert np.abs(pair.beta - ref.beta).max() < 1e-12
    assert np.array_equal(pair.n_evaluations, ref.n_evaluations)
    assert np.array_equal(pair.truncation_warning, ref.truncation_warning)
    assert pair.n_evaluations.dtype.kind == "i"
    assert (pair.n_evaluations > 0).all()


# ---------- packet kernel ----------

KERNEL_WIDTHS = [0.04, 0.06,
                 critical_packet_width(np.geomspace(0.25, 4.0, 19)),
                 critical_packet_width(np.geomspace(math.exp(-38.0),
                                                    math.exp(38.0), 255)),
                 0.12, 0.3]


@pytest.mark.parametrize("sigma", KERNEL_WIDTHS)
@pytest.mark.parametrize("omega_c", [math.exp(-38.0), 1.0, math.exp(38.0)])
def test_table_wave_matches_exact_sum(monkeypatch, sigma, omega_c):
    core = ModeBasis(MINK, frequencies=np.array([omega_c]),
                     packet_width=sigma).packet(0).core
    r = core.radius
    rng = np.random.default_rng(7)
    inside = np.concatenate([[0.0, -r, r], rng.uniform(-r, r, 2000)])
    outside = np.array([-2.0 * r, -r * (1.0 + 1e-12), r * (1.0 + 1e-12),
                        2.0 * r])
    vals, dvals = core.wave(inside)
    out_vals, out_dvals = core.wave(outside)
    assert not out_vals.any() and not out_dvals.any()
    monkeypatch.setattr(_UnitPacket, "table", _UnitPacket.exact)
    ref_vals, ref_dvals = core.wave(inside)
    assert np.abs(vals - ref_vals).max() <= 1e-13 * np.abs(ref_vals).max()
    assert np.abs(dvals - ref_dvals).max() <= 1e-13 * np.abs(ref_dvals).max()


def test_packets_of_one_width_share_one_table():
    travel = ModeBasis(MINK, frequencies=np.geomspace(1e-3, 1e3, 4),
                       packet_width=0.07)
    wedge = ModeBasis(RIND, frequencies=np.array([0.5]), packet_width=0.07,
                      sector="v")
    hat = hatted_chart_for_stationary_mirror(1.0)
    standing = ModeBasis(hat, boundary="dirichlet_half_line",
                         frequencies=np.array([2.0]), packet_width=0.07)
    other = ModeBasis(MINK, frequencies=np.array([1.0]), packet_width=0.08)
    tables = {id(p.core.unit)
              for basis in (travel, wedge, standing)
              for p in basis.packets()}
    assert len(tables) == 1
    assert other.packet(0).core.unit is not travel.packet(0).core.unit


def test_table_values_do_not_depend_on_fill_order():
    sigma = 0.3  # several fill blocks
    first, second = _UnitPacket(sigma), _UnitPacket(sigma)
    assert len(first._mids) > 3 * first._block
    rng = np.random.default_rng(3)
    batches = [rng.uniform(-first.radius, first.radius, 2)
               for _ in range(6)]
    got_first = [first.table(z) for z in batches]
    got_second = [second.table(z) for z in batches[::-1]][::-1]
    for a, b in zip(got_first, got_second):
        assert np.array_equal(a, b)
    assert np.array_equal(first._filled, second._filled)
    assert not first._filled.all()
    everywhere = np.linspace(-first.radius, first.radius, 5001)
    assert np.array_equal(second.table(everywhere), first.table(everywhere))


@pytest.mark.parametrize("sigma", KERNEL_WIDTHS)
def test_table_rows_do_not_depend_on_batch_size(sigma):
    # a matrix entry is bit for bit its single pairing only if a point's
    # table row is the same in every batch it is evaluated in
    unit = _unit_packet(sigma)
    rng = np.random.default_rng(11)
    z = rng.uniform(-unit.radius, unit.radius, 5001)
    points = slice(2000, 2960)
    wave = unit.table(z[points])
    assert np.array_equal(unit.table(z)[points], wave)
    for n in (1, 3, 31, 43, 100):
        for start in (0, (len(wave) - n) // 2, len(wave) - n):
            batch = slice(start, start + n)
            assert np.array_equal(unit.table(z[points][batch]), wave[batch])


def table_cells(unit):
    """The cells a property read of ``unit`` draws from: all of them, or
    for the 11,559 cells of sigma = 0.5 the first, middle and last 16,
    so that the property fills few of them."""
    n = len(unit._mids)
    if n <= 200:
        return np.arange(n)
    return np.r_[:16, n // 2 - 8:n // 2 + 8, n - 16:n]


@st.composite
def table_reads(draw):
    """A table of width 0.04, 0.06, 0.25 or 0.5 and a read of it: a lone
    point, a crowd in one cell, one point in each of several cells and
    repeats of some of them, in a drawn order."""
    unit = _unit_packet(draw(st.sampled_from([0.04, 0.06, 0.25, 0.5])))
    cells = table_cells(unit)
    pick = st.integers(0, len(cells) - 1)
    lone, crowd = draw(pick), draw(pick)
    spread = draw(st.lists(pick, max_size=40, unique=True))
    owners = cells[[lone] + [crowd] * draw(st.integers(0, 40)) + spread]
    offsets = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(owners),
                            max_size=len(owners)))
    z = unit._mids[owners] + unit._half_width * np.array(offsets)
    z = np.clip(z, -unit.radius, unit.radius)
    repeats = draw(st.lists(st.integers(0, len(z) - 1), max_size=10))
    z = np.concatenate([z, z[repeats]])
    return unit, z[draw(st.permutations(range(len(z))))]


# no deadline: the first reads of a table fill its cells
@given(read=table_reads(), data=st.data())
@settings(deadline=None)
def test_table_reads_do_not_depend_on_grouping(read, data):
    # a point's value depends on its z and its cell alone: every split of
    # a read and every permutation of it read bit for bit what the whole
    # read gives, whichever points share a chunk
    unit, z = read
    whole = unit.table(z)
    cuts = data.draw(st.lists(st.integers(0, len(z)), max_size=6))
    edges = [0] + sorted(cuts) + [len(z)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        assert np.array_equal(unit.table(z[lo:hi]), whole[lo:hi])
    perm = np.array(data.draw(st.permutations(range(len(z)))), dtype=int)
    assert np.array_equal(unit.table(z[perm]), whole[perm])


def direct_fill(unit, cells):
    """The panels' Chebyshev coefficients from the exact node sum at every
    panel point, one fill block at a time."""
    z = unit._mids[cells, None] + unit._half_width * _CHEB_POINTS
    return np.concatenate([
        _CHEB_FROM_VALUES @ unit.exact(z[s].ravel()).reshape(z[s].shape + (4,))
        for s in _blocks(len(z), unit._block)])


@pytest.mark.parametrize("sigma", KERNEL_WIDTHS + [0.5])
def test_table_fill_matches_direct_node_sum(sigma):
    unit = _UnitPacket(sigma)
    n_blocks = -(-len(unit._mids) // unit._block)
    blocks = np.arange(n_blocks)
    if sigma == 0.5:  # 11,559 one-panel blocks: the first, middle, last 20
        middle = n_blocks // 2 - 10
        blocks = np.r_[:20, middle:middle + 20, n_blocks - 20:n_blocks]
    unit._fill(blocks)
    cells = np.flatnonzero(unit._filled)
    assert len(cells) == min(len(unit._mids), 60 * unit._block)
    want = direct_fill(unit, cells)
    peak = np.abs(want).max()
    assert np.abs(unit._coef[cells] - want).max() <= 1e-14 * peak


# ---------- Dirichlet packets ----------

def test_dirichlet_mode_vanishes_on_mirror():
    hat = hatted_chart_for_stationary_mirror(1.0)
    basis = ModeBasis(hat, boundary="dirichlet_half_line",
                      frequencies=np.array([2.0]), packet_width=0.25)
    p = basis.packet(0)
    for t in (0.0, 1.0):
        _, xm = _mirror(hat, t)
        vals, _ = p.evaluate(t, np.array([xm - 1e-9, xm + 1e-9]))
        assert abs(vals[0]) == 0.0          # no field left of the mirror
        assert abs(vals[1]) < 1e-6          # continuous vanishing on it


def test_mirror_is_solved_once_per_stack(monkeypatch):
    basis_a, basis_b = dirichlet_bases()
    calls = []
    invert = ChartMap.invert
    monkeypatch.setattr(ChartMap, "invert", lambda self, target:
                        calls.append(target) or invert(self, target))
    compute_coefficients(basis_a, basis_b, t=2.0, tol=1e-10)
    # u(s) + v(s) = 2t, once for the column stack and once for the row
    # stack, however many rows it holds
    assert calls == [4.0] * 2
    # a geometry call solves once and clips both windows at the mirror
    calls.clear()
    p = basis_b.packet(0)
    (lo, hi), sub = p.geometry(2.0)
    assert calls == [4.0]
    s, mirror = _mirror(p.chart, 2.0)
    assert lo == mirror < hi
    assert sub.hi == s


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("t", [-0.25, 0.0, 0.5, 1.0, 2.0, 50.0])
def test_mirror_location_oracles(a, t):
    # the stationary mirror stays at x = 1/a; the accelerated one moves on
    # the hyperbola x^2 - t^2 = 1/a^2.  In both charts the mirror is the
    # diagonal u* = v* = s.
    for chart, want in ((hatted_chart_for_stationary_mirror(a), 1.0 / a),
                        (hatted_chart_for_accelerated_mirror(a),
                         math.sqrt(t * t + 1.0 / (a * a)))):
        s, x = _mirror(chart, t)
        assert abs(x - want) <= 1e-13 * max(1.0, abs(t))
        assert chart.u_map.inverse_fn(t - x) == pytest.approx(s, rel=1e-12)
        assert chart.v_map.inverse_fn(t + x) == pytest.approx(s, rel=1e-12)


def test_surface_missing_the_chart_has_no_mirror():
    # at t <= -1/a the surface does not meet the stationary mirror's chart
    # (u > -2/a, v > 0), so no s has u(s) + v(s) = 2t
    basis_a, _ = dirichlet_bases()
    p = basis_a.packet(0)
    for pair in (lambda: kg_inner_product(p, p, t=-1.0),
                 lambda: compute_coefficients(basis_a, basis_a, t=-1.0)):
        with pytest.raises(ValueError, match=r"surface t = -1\.0 misses "
                           r"chart 'hatted:mirror_in_rindler_vacuum:a=1\.0'"):
            pair()


def test_dirichlet_norm_grows_to_one_with_surface_time():
    # base-time slices are not Cauchy for the mirror-adapted region (its
    # past horizon carries flux); the captured norm grows toward 1
    hat = hatted_chart_for_stationary_mirror(1.0)
    basis = ModeBasis(hat, boundary="dirichlet_half_line",
                      frequencies=np.array([2.0]), packet_width=0.25)
    p = basis.packet(0)
    norms = [kg_inner_product(p, p, t=t).real for t in (0.0, 2.0, 50.0, 1000.0)]
    assert all(b > a for a, b in zip(norms, norms[1:]))
    assert norms[-1] <= 1.0 + 1e-7
    assert abs(norms[-1] - 1.0) < 1e-5


# ---------- coefficient matrices ----------

def test_identity_case():
    basis = ModeBasis(MINK, frequencies=np.array([0.3, 1.0, 3.0]),
                      packet_width=0.08)
    pair = compute_coefficients(basis, basis, tol=1e-9)
    assert np.abs(pair.alpha - np.eye(3)).max() < 1e-6
    assert np.abs(pair.beta).max() < 1e-6


def test_positive_frequency_relabeling_has_no_beta():
    a = ModeBasis(MINK, frequencies=np.array([0.4, 1.1, 2.7]),
                  packet_width=0.1)
    b = ModeBasis(MINK, frequencies=np.array([0.6, 1.5]),
                  packet_width=0.14)
    pair = compute_coefficients(a, b, tol=1e-9)
    assert np.abs(pair.beta).max() < 1e-6


def test_thermal_ratio(thermal_pair):
    for i, omega in enumerate(thermal_pair.basis_b.frequencies):
        a2 = np.abs(thermal_pair.alpha[i]) ** 2
        b2 = np.abs(thermal_pair.beta[i]) ** 2
        ratio = b2.sum() / a2.sum()
        want = math.exp(-2.0 * math.pi * omega)
        assert abs(ratio / want - 1.0) < 0.05, f"omega={omega}"


def test_thermal_ratio_per_column(thermal_pair):
    # the entrywise ratio is frequency-independent for the sharp modes;
    # the packet version inherits that column by column
    i = 1  # the omega = 1 row
    a2 = np.abs(thermal_pair.alpha[i]) ** 2
    b2 = np.abs(thermal_pair.beta[i]) ** 2
    ratios = b2[4:-4] / a2[4:-4]
    want = math.exp(-2.0 * math.pi)
    assert np.all(np.abs(ratios / want - 1.0) < 0.05)


def test_row_normalization(planck_pair):
    assert abs(row_normalization(planck_pair, 0) - 1.0) < 0.02


def test_expected_number_planck(planck_pair):
    n = expected_number(planck_pair, 0)
    want = 1.0 / (math.exp(2.0 * math.pi) - 1.0)
    assert abs(n / want - 1.0) < 0.10


def test_expected_number_identical_bases_zero():
    basis = ModeBasis(MINK, frequencies=np.array([0.5, 2.0]),
                      packet_width=0.1)
    pair = compute_coefficients(basis, basis, tol=1e-9)
    assert expected_number(pair, 0) < 1e-10
    assert expected_number(pair, 1) < 1e-10


def test_expected_number_nonnegative(thermal_pair):
    for i in range(len(thermal_pair.basis_b.frequencies)):
        assert expected_number(thermal_pair, i) >= 0.0


def test_refinement_stability(planck_coarse_pair, planck_pair):
    r1 = row_normalization(planck_coarse_pair, 0)
    r2 = row_normalization(planck_pair, 0)
    assert abs(r2 - r1) < planck_coarse_pair.row_discretization_error(0)
    n1 = expected_number(planck_coarse_pair, 0)
    n2 = expected_number(planck_pair, 0)
    assert abs(n2 - n1) < planck_coarse_pair.row_discretization_error(0)


def test_packet_width_doubling_stability(planck_coarse_pair,
                                         planck_wide_packet_pair):
    n1 = expected_number(planck_coarse_pair, 0)
    n2 = expected_number(planck_wide_packet_pair, 0)
    assert abs(n2 - n1) < 2.0 * planck_coarse_pair.row_discretization_error(0)
