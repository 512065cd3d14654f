import doctest

from alcove_hecke import alcove, laurent, root_datum


def test_alcove_doctests():
    failures, tested = doctest.testmod(alcove, verbose=False)
    assert failures == 0 and tested > 0


def test_laurent_doctests():
    failures, tested = doctest.testmod(laurent, verbose=False)
    assert failures == 0 and tested > 0


def test_root_datum_doctests():
    failures, tested = doctest.testmod(root_datum, verbose=False)
    assert failures == 0 and tested > 0
