"""Shared fixtures: the heavier Bogolubov matrix computations are done
once per session and reused by both the unit tests and the acceptance
suite."""

import pytest
from hypothesis import settings

from mirrorstress.bogolubov import compute_coefficients

from bogolubov_bases import planck_bases, thermal_bases

# ``--hypothesis-profile=long``: a longer run of the property tests that
# set no example count of their own (``test_api_contract.py`` and the
# table-read property of ``test_bogolubov.py``); the suite keeps
# hypothesis's default profile
settings.register_profile("long", max_examples=2000, deadline=None)


@pytest.fixture(scope="session")
def thermal_pair():
    """Narrow wedge packets against a mid-band inertial family: the
    per-row |beta|^2 / |alpha|^2 ratio probes the thermal factor."""
    return compute_coefficients(*thermal_bases(), tol=1e-9)


@pytest.fixture(scope="session")
def planck_pair():
    """One narrow wedge packet against an inertial family wide enough to
    capture its whole frequency content: row normalization and the
    expected occupation number."""
    return compute_coefficients(*planck_bases(), tol=1e-9)


@pytest.fixture(scope="session")
def planck_coarse_pair():
    """The planck_pair configuration on a 1.5x coarser column grid, for
    the stability-under-refinement check."""
    return compute_coefficients(*planck_bases(n_columns=170), tol=1e-9)


@pytest.fixture(scope="session")
def planck_wide_packet_pair():
    """planck_coarse_pair with the wedge packet twice as wide, for the
    width-doubling stability check."""
    return compute_coefficients(*planck_bases(n_columns=170, row_width=0.12),
                                tol=1e-9)
