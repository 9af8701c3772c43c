"""The stress engine's outputs against the golden file ``golden.json``:
``run`` values and singular flags, and conservation reports (see
``make_golden.py``, which writes the file).  Values agree within 1e-13
relative of max(|v|, 1/(48 pi)); exit codes, flags and error classes
agree exactly."""

import json

import pytest

from mirrorstress.vacuum_stress import INV_48PI

from make_golden import (
    GOLDEN,
    conservation_cases,
    conservation_outcome,
    run_cases,
    run_outcome,
)

with open(GOLDEN, encoding="utf-8") as _fh:
    DATA = json.load(_fh)

_OUTPUTS = ("exit", "flags", "values", "report", "error")


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


def test_golden_file_holds_the_generator_cases():
    assert [_case(e) for e in DATA["run"]] == run_cases()
    assert [_case(e) for e in DATA["conservation"]] == conservation_cases()


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
