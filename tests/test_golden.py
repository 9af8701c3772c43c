"""The outputs of the stress engine and of the Bogolubov matrices against
the golden file ``golden.json``: ``run`` values and singular flags,
conservation reports, alpha and beta with their evaluation counts and
truncation warnings, the invariants of ``check``, the demos' standard
output, the help texts and the scenario listing (see ``make_golden.py``,
which writes the file).  Stress values agree within 1e-13 relative of
max(|v|, 1/(48 pi)), alpha and beta within 1e-13 of their row's largest
|alpha|, and ``check`` residuals within 1e-13 absolute (the smallest
tolerance is 1e-12); exit codes, flags, error classes, counts, warnings,
invariant names, tolerances and statuses agree exactly, and the demos'
output, the help texts and the scenario listing byte for byte."""

import json

import numpy as np
import pytest

from mirrorstress.vacuum_stress import INV_48PI

from make_golden import (
    GOLDEN,
    bogolubov_cases,
    bogolubov_outcome,
    bogolubov_pair,
    check_outcomes,
    conservation_cases,
    conservation_outcome,
    demo_cases,
    demo_outcome,
    help_cases,
    help_outcome,
    run_cases,
    run_outcome,
)

with open(GOLDEN, encoding="utf-8") as _fh:
    DATA = json.load(_fh)

_OUTPUTS = ("exit", "flags", "values", "report", "error", "alpha", "beta",
            "n_evaluations", "truncation_warning", "stdout")
# golden Bogolubov cases computed by a session fixture
_FIXTURES = {"thermal": "thermal_pair", "planck": "planck_pair"}


def _case(entry):
    return {k: v for k, v in entry.items() if k not in _OUTPUTS}


def _output(entry):
    return {k: v for k, v in entry.items() if k in _OUTPUTS}


def _assert_matches(got, want):
    assert got.keys() == want.keys()
    for key in got.keys() - {"values", "report"}:
        assert got[key] == want[key], key
    for key in got.keys() & {"values", "report"}:
        assert len(got[key]) == len(want[key])
        for k, (g, w) in enumerate(zip(got[key], want[key])):
            assert abs(g - w) <= 1e-13 * max(abs(w), INV_48PI), (key, k)


def _complex(entries):
    """A matrix of [re, im] pairs as a complex array."""
    m = np.array(entries, dtype=float)
    return m[..., 0] + 1j * m[..., 1]


def test_golden_file_holds_the_generator_cases():
    assert [_case(e) for e in DATA["run"]] == run_cases()
    assert [_case(e) for e in DATA["conservation"]] == conservation_cases()
    assert [_case(e) for e in DATA["bogolubov"]] == bogolubov_cases()
    assert [_case(e) for e in DATA["demos"]] == demo_cases()
    assert [_case(e) for e in DATA["help"]] == help_cases()


@pytest.mark.parametrize(
    "entry", DATA["run"],
    ids=[f"{e['scenario']}-{e['chart']}-a{e['a']}-{e['frame']}-{k}"
         for k, e in enumerate(DATA["run"])])
def test_run_matches_golden(entry):
    _assert_matches(run_outcome(_case(entry)), _output(entry))


@pytest.mark.parametrize(
    "entry", DATA["conservation"],
    ids=[f"{e['scenario']}-{e['chart']}" for e in DATA["conservation"]])
def test_conservation_matches_golden(entry):
    _assert_matches(conservation_outcome(_case(entry)), _output(entry))


@pytest.mark.parametrize("entry", DATA["bogolubov"],
                         ids=[e["bogolubov"] for e in DATA["bogolubov"]])
def test_bogolubov_matches_golden(entry, request):
    name = entry["bogolubov"]
    pair = (request.getfixturevalue(_FIXTURES[name]) if name in _FIXTURES
            else bogolubov_pair(_case(entry)))
    got = bogolubov_outcome(pair)
    assert got["n_evaluations"] == entry["n_evaluations"]
    assert got["truncation_warning"] == entry["truncation_warning"]
    alpha, beta = _complex(got["alpha"]), _complex(got["beta"])
    want_alpha, want_beta = _complex(entry["alpha"]), _complex(entry["beta"])
    assert alpha.shape == beta.shape == want_alpha.shape
    scale = 1e-13 * np.abs(want_alpha).max(axis=1, keepdims=True)
    assert (np.abs(alpha - want_alpha) <= scale).all()
    assert (np.abs(beta - want_beta) <= scale).all()


def test_check_matches_golden():
    got, want = check_outcomes(), DATA["check"]
    assert [e["check"] for e in got] == [e["check"] for e in want]
    for g, w in zip(got, want):
        assert (g["tolerance"], g["status"]) == \
            (w["tolerance"], w["status"]), g["check"]
        assert abs(g["residual"] - w["residual"]) <= 1e-13, g["check"]


@pytest.mark.parametrize("entry", DATA["demos"],
                         ids=[e["demo"] for e in DATA["demos"]])
def test_demo_matches_golden(entry):
    assert demo_outcome(_case(entry)) == _output(entry)


@pytest.mark.parametrize("entry", DATA["help"],
                         ids=[" ".join(e["help"]) for e in DATA["help"]])
def test_help_matches_golden(entry):
    assert help_outcome(_case(entry)) == _output(entry)
