"""Records: every value record is a NamedTuple, and the ones that check or normalise their
field do it in ``__new__``, so a copy or an unpickled record is checked again.
``Representation``, which memoises, is a plain class equal only to itself."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import genrep
from genrep.algebra_core import SemisimpleSequence
from genrep.components import ComponentReport
from genrep.errors import ValidationError
from genrep.homology import CyclicType, SyzygyProfile
from genrep.matrix_rep import DEFAULT_FIELD, RATIONALS, FieldSpec, Representation

VALUE_RECORDS = [SemisimpleSequence, FieldSpec, SyzygyProfile, ComponentReport]


def test_cli_imports_neither_dataclasses_nor_inspect():
    # a record class costs a NamedTuple build, not a dataclass decorator and the modules
    # it pulls in; -S keeps site-packages from importing either first
    probe = ("import sys, genrep.cli\n"
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(genrep.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                         encoding="utf-8", check=True, timeout=60).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("record", VALUE_RECORDS, ids=lambda r: r.__name__)
def test_value_records_are_named_tuples(record):
    assert issubclass(record, tuple) and record._fields


def test_records_hash_as_their_one_field_tuple():
    # the hashes of the frozen dataclasses they replaced, so no dict or set order moves
    S = SemisimpleSequence([[1, 0], [0, 2]])
    assert hash(S) == hash((S.layers,)) == hash((((1, 0), (0, 2)),))
    for fs in (FieldSpec(5), DEFAULT_FIELD, RATIONALS):
        assert hash(fs) == hash((fs.modulus,))


def test_a_sequence_from_lists_is_the_sequence_from_tuples():
    from_lists = SemisimpleSequence([[1, 0], [0, 2], [0, 0]])
    from_tuples = SemisimpleSequence(((1, 0), (0, 2), (0, 0)))
    assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
    assert from_lists.layers == ((1, 0), (0, 2), (0, 0))


def test_a_sequence_from_iterators_keeps_its_rows():
    # rows read once, from an iterator of lists or a list of iterators, are made tuples
    # before the entries are checked, so the check does not use them up
    want = SemisimpleSequence(((1, 0), (0, 1)))
    assert SemisimpleSequence(iter([[1, 0], [0, 1]])) == want
    assert SemisimpleSequence([iter([1, 0]), iter([0, 1])]) == want
    assert SemisimpleSequence(iter([1, 0]) for _ in range(2)).layers == ((1, 0), (1, 0))
    for layers, message in ((iter([[1.0], [-1]]), "semisimple sequence entries must be int, "
                             "got float"), (iter([[1, 0], [1]]), "ragged semisimple sequence"),
                            ([iter([1, -1])], "negative multiplicity in semisimple sequence")):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            SemisimpleSequence(layers)


def round_trips(record):
    return [copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))]


def test_copies_and_pickles_are_equal_and_checked_again():
    c1, c2 = CyclicType("1", 2), CyclicType("2", 1)
    for record in (SemisimpleSequence([[1, 0], [0, 2]]), FieldSpec(5), RATIONALS,
                   SyzygyProfile([c2, (c1, 2), c2])):
        assert all(type(r) is type(record) and r == record for r in round_trips(record))
    # records made past ``__new__`` come back checked, or normalised
    for unchecked, message in ((tuple.__new__(SemisimpleSequence, ([[1, -1]],)),
                                "negative multiplicity in semisimple sequence"),
                               (tuple.__new__(FieldSpec, (4,)), "4 is not prime")):
        for trip in (copy.copy, lambda r: pickle.loads(pickle.dumps(r))):
            with pytest.raises(ValidationError, match=f"^{message}$"):
                trip(unchecked)
    raw = tuple.__new__(SyzygyProfile, (((c2, 1), (c1, 0), (c2, 1)),))
    assert all(r.items() == ((c2, 2),) for r in round_trips(raw))


def test_reprs_are_unchanged():
    assert (repr(SemisimpleSequence([[1, 0], [0, 2]]))
            == "SemisimpleSequence(layers=((1, 0), (0, 2)))")
    assert repr(FieldSpec(5)) == "FieldSpec(modulus=5)"
    assert repr(RATIONALS) == "FieldSpec(modulus=None)"
    assert repr(FieldSpec()) == "FieldSpec(modulus=2305843009213693951)"
    profile = SyzygyProfile([CyclicType("2", 1), (CyclicType("1", 2), 2),
                             (CyclicType("1", 1), 0), CyclicType("2", 1)])
    assert repr(profile) == "SyzygyProfile(1/J^2 x2, 2/J^1 x2)"
    assert repr(SyzygyProfile([])) == "SyzygyProfile()"


@pytest.mark.parametrize("layers, message", [
    ([[1, 0], [1]], "ragged semisimple sequence"),
    ([[1, -1]], "negative multiplicity in semisimple sequence"),
    ([[1.0, "a"]], "semisimple sequence entries must be int, got float, str"),
    ([[True, 1], [1]], "semisimple sequence entries must be int, got bool"),  # type first
])
def test_sequence_messages_are_unchanged(layers, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        SemisimpleSequence(layers)


@pytest.mark.parametrize("modulus", [4, 1, 0, -7, 2**61 + 1])
def test_field_messages_are_unchanged(modulus):
    with pytest.raises(ValidationError, match=f"^{modulus} is not prime$"):
        FieldSpec(modulus)


def test_a_representation_equals_only_itself(double_back):
    args = (double_back, RATIONALS, (1, 0), {"a": [{}], "b1": [], "b2": []})
    rep, twin = Representation(*args), Representation(*args)
    assert rep == rep and rep != twin and len({rep, twin}) == 2
    assert (rep.basis_labels, rep.top_elements, rep._three, rep._paths) == (None, None, False, {})
    assert twin._paths is not rep._paths
