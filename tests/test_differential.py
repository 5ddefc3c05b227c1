"""Every library verdict and witness of the differential corpus
(differential.py) matches the digests committed with it, one field at a
time, so a mismatch names the field.  After a deliberate change of
behaviour, rewrite them with `python tests/differential.py --record`."""

import pytest

import differential

RECORDED = differential.recorded()


def test_the_recorded_fields_are_the_corpus():
    assert list(RECORDED) == differential.field_names()


@pytest.mark.parametrize("name", differential.field_names())
def test_differential_corpus(name):
    assert differential.digest(name) == RECORDED.get(name), (
        f"{name}: a verdict or witness differs from the recorded corpus; "
        f"`python tests/differential.py --show '{name}'` prints its lines")
