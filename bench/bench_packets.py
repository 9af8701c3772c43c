"""Per-layer timings of the Bogolubov packet kernel, on pytest-benchmark.

    PYTHONPATH=src python -m pytest bench/bench_packets.py \
        [--benchmark-json FILE]

The kernel cases run twice: with the Chebyshev tables (``table``) and
with the exact node sums patched in as the kernel (``exact``), so one run
gives before and after on one machine.  The 1 x 255 and Dirichlet 2 x 64
matrices, the 2 x 5 matrix on a late surface, the table read and the
cold start run on the tables only;
compare them across commits by running this file against each commit's
source.  The file is named bench_* so the test suite does not collect
it.
"""

import math

import numpy as np
import pytest

from mirrorstress.bogolubov import (
    ModeBasis,
    _unit_packet,
    _UnitPacket,
    compute_coefficients,
    critical_packet_width,
    kg_inner_product,
)
from mirrorstress.charts import get_chart
from mirrorstress.scenarios import hatted_chart_for_stationary_mirror

KERNELS = ["table", "exact"]


@pytest.fixture(params=KERNELS)
def kernel(request, monkeypatch):
    if request.param == "exact":
        monkeypatch.setattr(_UnitPacket, "table", _UnitPacket.exact)
    return request.param


def thermal_bases():
    """The 3 x 19 thermal shape of the test session."""
    freqs_a = np.geomspace(0.25, 4.0, 19)
    basis_a = ModeBasis(get_chart("minkowski"), frequencies=freqs_a,
                        packet_width=critical_packet_width(freqs_a))
    basis_b = ModeBasis(get_chart("rindler"),
                        frequencies=np.array([0.7, 1.0, 1.4]),
                        packet_width=0.04)
    return basis_a, basis_b


def test_wave(benchmark, kernel):
    """One wedge-packet evaluation at 960 points, the median number of
    points per table call in a ``mirrorbench`` bogolubov cycle (a wave of
    64 panels of 15 Kronrod nodes); tables filled before timing."""
    core = thermal_bases()[1].packet(1).core
    rng = np.random.default_rng(0)
    coord = rng.uniform(-core.radius, core.radius, 960)
    core.wave(coord)
    benchmark(core.wave, coord)


def test_table(benchmark):
    """One 960-point read of the sigma = 0.04 table, every panel filled
    before timing: the gather, recurrence and contraction alone."""
    unit = _unit_packet(0.04)
    unit.table(unit._mids)
    rng = np.random.default_rng(0)
    z = rng.uniform(-unit.radius, unit.radius, 960)
    benchmark(unit.table, z)


def test_cold_start(benchmark):
    """The first self-pairing of a packet of the default width 0.5, with
    its table built afresh: the panels it reads are filled on the way."""
    def pair_cold():
        packet = ModeBasis(get_chart("minkowski")).packet(0)
        return kg_inner_product(packet, packet)

    benchmark.pedantic(pair_cold, setup=_unit_packet.cache_clear, rounds=3)


def test_compute_coefficients_thermal(benchmark, kernel):
    basis_a, basis_b = thermal_bases()
    benchmark.pedantic(compute_coefficients, args=(basis_a, basis_b),
                       kwargs={"tol": 1e-9}, rounds=3, warmup_rounds=1)


def test_compute_coefficients_wide(benchmark):
    """One wedge row against the 255-column inertial family of the
    planck fixture, on the table kernel."""
    freqs_a = np.geomspace(math.exp(-38.0), math.exp(38.0), 255)
    basis_a = ModeBasis(get_chart("minkowski"), frequencies=freqs_a,
                        packet_width=critical_packet_width(freqs_a))
    basis_b = ModeBasis(get_chart("rindler"), frequencies=np.array([1.0]),
                        packet_width=0.06)
    benchmark.pedantic(compute_coefficients, args=(basis_a, basis_b),
                       kwargs={"tol": 1e-9}, rounds=5, warmup_rounds=1)


def test_compute_coefficients_dirichlet(benchmark):
    """The 2 x 64 Dirichlet matrix: 64 standing-packet columns against
    two rows on the stationary mirror's hatted chart at t = 2, on the
    table kernel.  The mirror is found by one ``ChartMap.invert`` for the
    column stack and one for the row stack."""
    hat = hatted_chart_for_stationary_mirror(1.0)
    basis_a = ModeBasis(hat, boundary="dirichlet_half_line",
                        frequencies=np.geomspace(0.5, 8.0, 64),
                        packet_width=0.25)
    basis_b = ModeBasis(hat, boundary="dirichlet_half_line",
                        frequencies=np.array([1.5, 3.0]), packet_width=0.25)
    benchmark.pedantic(compute_coefficients, args=(basis_a, basis_b),
                       kwargs={"t": 2.0}, rounds=5, warmup_rounds=1)


def test_compute_coefficients_late_surface(benchmark):
    """Two wedge rows against five inertial columns of one sector on the
    surface t = 0.5, on the table kernel.  The rows own the substitution
    and are read at their chart coordinate, so a late surface costs what
    t = 0 costs; read through x, it took about 140 times the
    evaluations."""
    freqs_a = np.geomspace(0.25, 4.0, 5)
    basis_a = ModeBasis(get_chart("minkowski"), frequencies=freqs_a,
                        packet_width=critical_packet_width(freqs_a))
    basis_b = ModeBasis(get_chart("rindler"),
                        frequencies=np.array([0.7, 1.4]), packet_width=0.04)
    benchmark.pedantic(compute_coefficients, args=(basis_a, basis_b),
                       kwargs={"t": 0.5, "tol": 1e-9}, rounds=5,
                       warmup_rounds=1)
