import pytest

from gchom.linalg import FpSparseMatrix
from gchom.sparse import IntSparseMatrix, dump_sms, load_sms


def test_entry_validation():
    with pytest.raises(ValueError):
        IntSparseMatrix(2, 2, {(2, 0): 1})
    with pytest.raises(ValueError):
        IntSparseMatrix(2, 2, {(0, 0): 0})


def test_negative_dimensions_are_rejected():
    for nrows, ncols in ((-1, 5), (5, -1), (-2, -2)):
        with pytest.raises(ValueError, match="negative"):
            IntSparseMatrix(nrows, ncols)
        with pytest.raises(ValueError, match="negative"):
            FpSparseMatrix(nrows, ncols, 3323)
    with pytest.raises(ValueError, match="negative"):
        load_sms("-1 5 M\n0 0 0\n")
    assert IntSparseMatrix(0, 0).is_zero()


def test_matmul():
    a = IntSparseMatrix(2, 3, {(0, 0): 1, (0, 2): 2, (1, 1): -1})
    b = IntSparseMatrix(3, 2, {(0, 0): 3, (1, 0): 1, (2, 1): 5})
    c = a.matmul(b)
    assert c.entries == {(0, 0): 3, (0, 1): 10, (1, 0): -1}
    with pytest.raises(ValueError):
        a.matmul(a)


def test_sms_round_trip():
    a = IntSparseMatrix(3, 4, {(0, 0): -5, (2, 3): 1, (1, 2): 42})
    text = dump_sms(a)
    assert text.splitlines()[0] == "3 4 M"
    assert text.rstrip().endswith("0 0 0")
    b = load_sms(text)
    assert (b.nrows, b.ncols, b.entries) == (a.nrows, a.ncols, a.entries)


def test_sms_entries_beyond_int64_round_trip():
    a = IntSparseMatrix(2, 2, {(0, 1): 2 ** 70, (1, 0): -(2 ** 70) - 1})
    text = dump_sms(a)
    assert f"1 2 {2 ** 70}" in text.splitlines()
    b = load_sms(text)
    assert b.entries == a.entries and dump_sms(b) == text


def test_sms_zero_matrix():
    z = IntSparseMatrix(3, 3, {})
    assert load_sms(dump_sms(z)).entries == {}


def test_sms_numeric_third_header_token_tolerated():
    text = "2 2 1\n1 1 9\n0 0 0\n"
    m = load_sms(text)
    assert m.entries == {(0, 0): 9}


def test_sms_malformed():
    with pytest.raises(ValueError):
        load_sms("")
    with pytest.raises(ValueError):
        load_sms("2 2 M\n1 1 5\n")  # no terminator
    with pytest.raises(ValueError):
        load_sms("2 2 M\n1 1 5\n1 1 3\n0 0 0\n")  # duplicate
    with pytest.raises(ValueError):
        load_sms("2 2 M\n1 1 0\n0 0 0\n")  # explicit zero
