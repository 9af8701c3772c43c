"""Flatten nested jets for exact comparisons in the tests."""

from mirrorstress.jets import Jet1, Jet3


def leaves(j):
    """Coefficients of a (possibly nested) Jet1/Jet3, depth first; a
    float or array is its own single leaf."""
    if isinstance(j, (Jet1, Jet3)):
        parts = (j.value, j.d1) if isinstance(j, Jet1) else j.as_tuple()
        return [x for part in parts for x in leaves(part)]
    return [j]
