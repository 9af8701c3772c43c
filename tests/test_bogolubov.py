"""Mode packets, Klein-Gordon pairings, Bogolubov matrices."""

import math

import numpy as np
import pytest

from mirrorstress.bogolubov import (
    _CHEB_FROM_VALUES,
    _CHEB_N,
    _CHEB_POINTS,
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
    _StandingPacket,
    _unit_packet,
    _UnitPacket,
    compute_coefficients,
    critical_packet_width,
    expected_number,
    kg_inner_product,
    row_normalization,
)
from mirrorstress.charts import compose_charts, identity_map
from mirrorstress.scenarios import hatted_chart_for_stationary_mirror

from bogolubov_bases import (
    MINK,
    RIND,
    dirichlet_bases,
    empty_window_bases,
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


def test_row_evaluation_stays_within_block_budget(monkeypatch, planck_pair):
    sizes = []
    table = _UnitPacket.table

    def recording_table(self, z):
        sizes.append(len(z))
        return table(self, z)

    monkeypatch.setattr(_UnitPacket, "table", recording_table)
    pair = compute_coefficients(planck_pair.basis_a, planck_pair.basis_b,
                                tol=1e-9)
    # the (n, 17, 4) table gather of one call stays within the budget
    budget = _FILL_ELEMENTS // (_CHEB_N * 4)
    assert max(sizes) <= budget
    assert max(sizes) > budget // 2  # the blocks are filled
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
        xm = p._bisect_mirror(t)
        vals, _ = p.evaluate(t, np.array([xm - 1e-9, xm + 1e-9]))
        assert abs(vals[0]) == 0.0          # no field left of the mirror
        assert abs(vals[1]) < 1e-6          # continuous vanishing on it


def test_mirror_is_bisected_once_for_the_stack_and_once_per_row(
        monkeypatch):
    basis_a, basis_b = dirichlet_bases()
    calls = []
    bisect = _StandingPacket._bisect_mirror
    monkeypatch.setattr(_StandingPacket, "_bisect_mirror",
                        lambda self, t: calls.append(t) or bisect(self, t))
    compute_coefficients(basis_a, basis_b, t=2.0, tol=1e-10)
    assert calls == [2.0] * (1 + len(basis_b))
    # a geometry call bisects once and clips both windows at the mirror
    calls.clear()
    p = basis_b.packet(0)
    (lo, hi), sub = p.geometry(2.0)
    assert calls == [2.0]
    mirror = bisect(p, 2.0)
    assert lo == mirror < hi
    assert sub.hi == sub.s(np.array([mirror]))[0]


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
