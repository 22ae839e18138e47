"""The library's records: immutable, compared and hashed by value, fields in order.

Also the package's exports, which are imported from their modules on first
use, and the README's library example.
"""

import contextlib
import copy
import io
import pickle
import re
from fractions import Fraction
from pathlib import Path

import pytest

import pglchar
from pglchar import dualgroup, formulas, involutions, oracle, params
from pglchar.partitions import Partition

README = Path(__file__).resolve().parent.parent / "README.md"
Q5 = dualgroup.q_context(5)

# name -> (a function that builds a fresh record, its fields in order)
RECORDS = {
    "QContext": (lambda: dualgroup.QContext(9), ("q", "p", "k")),
    "OrbitData": (
        lambda: dualgroup.orbit_data(Q5, Fraction(1, 4)),
        ("num", "den", "m", "r", "d"),
    ),
    "MultiPartition": (
        lambda: params.parse_label(Q5, 2, "1/2:[1,1]"),
        ("ctx", "n", "entries", "shape"),
    ),
    "Row": (
        lambda: formulas.decompose(Q5, 2, formulas.Subgroup.PGO_MINUS).rows[0],
        ("label", "mult", "degree"),
    ),
    "DecompositionReport": (
        lambda: formulas.decompose(Q5, 2, formulas.Subgroup.PGO_MINUS),
        ("subgroup", "ctx", "n", "rows", "sum_mult_times_degree", "sum_mult_squared"),
    ),
    "CentralizerInvolution": (
        lambda: involutions.CentralizerInvolution(Partition((2, 2, 1)), (1,), (), (2,)),
        ("nu", "type1", "type2", "type3", "ell1", "ell1_odd", "ell1_2mod4",
         "is_fixed_point_free"),
    ),
    "IdentityCheckResult": (
        lambda: involutions.check_identities(2)[0],
        ("name", "nu", "lhs", "rhs"),
    ),
    "GroupOrders": (
        lambda: oracle.orders(3, 2),
        ("q", "n", "gl", "sp", "o_plus", "o_minus", "pgl", "pgsp", "pgo_plus", "pgo_minus",
         "index_pgsp", "index_pgo_plus", "index_pgo_minus"),
    ),
    "FormOrbit": (lambda: oracle.FormOrbit("pgo+", 3, 8), ("kind", "size", "stabilizer_order")),
    "LengthStats": (
        lambda: Partition((4, 2, 1)).length_stats(),
        ("ell", "ell0", "ell1", "ell0mod4", "ell2mod4"),
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_keeps_its_name_and_fields(name):
    make, fields = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    for field in fields:
        getattr(record, field)
    assert f"{name}(" in repr(record)


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_is_a_named_tuple_of_its_fields(name):
    make, fields = RECORDS[name]
    record = make()
    assert record._fields == fields
    assert tuple(record) == tuple(getattr(record, field) for field in fields)
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_is_immutable(name):
    make, fields = RECORDS[name]
    record = make()
    for field in fields:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) == before


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_compare_and_hash_equal(name):
    make, fields = RECORDS[name]
    a, b = make(), make()
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert all(getattr(a, field) == getattr(b, field) for field in fields)


@pytest.mark.parametrize("name", RECORDS)
@pytest.mark.parametrize(
    "clone", [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_a_record_survives_pickle_and_copy(name, clone):
    make, fields = RECORDS[name]
    record = make()
    again = clone(record)
    assert type(again) is type(record)
    assert again == record and hash(again) == hash(record)
    assert all(getattr(again, field) == getattr(record, field) for field in fields)


def test_records_of_different_values_differ():
    assert dualgroup.QContext(9) != dualgroup.QContext(3)
    assert dualgroup.QContext(9) != 9
    inv = involutions.CentralizerInvolution(Partition((2, 2, 1)), (1,), (), (2,))
    other = involutions.CentralizerInvolution(Partition((2, 2, 1)), (2, 2, 1), (), ())
    assert inv != other
    assert (inv.ell1, inv.ell1_odd, inv.ell1_2mod4, inv.is_fixed_point_free) == (1, 1, 0, False)
    assert params.parse_label(Q5, 2, "1/2:[1,1]") != params.parse_label(Q5, 2, "1/2:[2]")


def test_orbit_data_replace_keeps_the_other_fields():
    data = dualgroup.orbit_data(Q5, Fraction(1, 4))
    moved = data._replace(num=3)
    assert (moved.num, moved.den, moved.m, moved.r, moved.d) == (3, *data[1:])
    assert moved.rep == Fraction(3, 4)


@pytest.mark.parametrize("name", ["GroupOrders", "FormOrbit"])
def test_to_json_dict_keeps_field_order(name):
    make, fields = RECORDS[name]
    record = make()
    data = record.to_json_dict()
    assert list(data) == list(fields)
    assert data == {field: getattr(record, field) for field in fields}


def test_every_exported_name_resolves():
    for name in pglchar.__all__:
        assert getattr(pglchar, name) is not None
    assert pglchar.decompose is formulas.decompose
    assert pglchar.QContext is dualgroup.QContext
    assert set(pglchar.__all__) <= set(dir(pglchar))


def test_star_import_gives_every_exported_name():
    namespace: dict = {}
    exec("from pglchar import *", namespace)
    assert set(pglchar.__all__) <= set(namespace)
    assert namespace["parse_label"] is params.parse_label


def test_an_unknown_package_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pglchar.no_such_name


def test_the_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library entry points", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    namespace: dict = {}
    with contextlib.redirect_stdout(out):
        exec(snippet, namespace)
    assert namespace["label"].text() == "1/2:[1,1]"
    rows = namespace["report"].rows
    assert out.getvalue().splitlines() == [
        f"{row.label.text()} {row.mult} {row.degree}" for row in rows
    ]
