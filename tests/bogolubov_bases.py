"""The mode bases of the Bogolubov matrices that the tests compute, as
plain functions: ``conftest.py`` builds its session fixtures from them,
``test_bogolubov.py`` its matrix checks and ``make_golden.py`` its
golden cases.  Each returns (basis_a, basis_b): columns, then rows."""

import math

import numpy as np

from mirrorstress.bogolubov import ModeBasis, critical_packet_width
from mirrorstress.charts import get_chart
from mirrorstress.scenarios import hatted_chart_for_stationary_mirror

MINK = get_chart("minkowski")
RIND = get_chart("rindler")


def thermal_bases():
    """Narrow wedge packets against a mid-band inertial family: the
    per-row |beta|^2 / |alpha|^2 ratio probes the thermal factor."""
    freqs_a = np.geomspace(0.25, 4.0, 19)
    basis_a = ModeBasis(MINK, frequencies=freqs_a,
                        packet_width=critical_packet_width(freqs_a))
    basis_b = ModeBasis(RIND, frequencies=np.array([0.7, 1.0, 1.4]),
                        packet_width=0.04)
    return basis_a, basis_b


def planck_bases(n_columns=255, row_width=0.06):
    """One narrow wedge packet against an inertial family wide enough to
    capture its whole frequency content."""
    freqs_a = np.geomspace(math.exp(-38.0), math.exp(38.0), n_columns)
    basis_a = ModeBasis(MINK, frequencies=freqs_a,
                        packet_width=critical_packet_width(freqs_a))
    basis_b = ModeBasis(RIND, frequencies=np.array([1.0]),
                        packet_width=row_width)
    return basis_a, basis_b


def two_by_five_bases(sector="u"):
    """Two wedge rows against five inertial columns, of one sector."""
    freqs_a = np.geomspace(0.25, 4.0, 5)
    basis_a = ModeBasis(MINK, frequencies=freqs_a,
                        packet_width=critical_packet_width(freqs_a),
                        sector=sector)
    basis_b = ModeBasis(RIND, frequencies=np.array([0.7, 1.4]),
                        packet_width=0.04, sector=sector)
    return basis_a, basis_b


def v_sector_bases():
    return two_by_five_bases("v")


def wedge_column_bases():
    """``two_by_five_bases`` the other way round: the inertial rows have
    no substitution, so every entry takes the wedge column stack's."""
    basis_a, basis_b = two_by_five_bases()
    return basis_b, basis_a


def empty_window_bases():
    """Columns of the planck family against a wedge row at 5: the two
    columns this far above the row have a support radius below the row's
    support, so their windows are empty."""
    freqs = np.geomspace(math.exp(-38.0), math.exp(38.0), 255)
    columns = freqs[[127, 132, 140, 214, 215, 254]]
    basis_a = ModeBasis(MINK, frequencies=columns,
                        packet_width=critical_packet_width(freqs))
    basis_b = ModeBasis(RIND, frequencies=np.array([5.0]), packet_width=0.06)
    return basis_a, basis_b


def dirichlet_bases(a=1.0):
    """Standing packets of the stationary mirror's hatted chart: three
    columns against two rows."""
    hat = hatted_chart_for_stationary_mirror(a)
    basis_a = ModeBasis(hat, boundary="dirichlet_half_line",
                        frequencies=np.array([1.0, 2.0, 4.0]),
                        packet_width=0.25)
    basis_b = ModeBasis(hat, boundary="dirichlet_half_line",
                        frequencies=np.array([1.5, 3.0]), packet_width=0.25)
    return basis_a, basis_b
