"""The seven result records: immutable, picklable named tuples with
field-by-field reprs, read by name, unpacked or as dicts."""

import pickle

import pytest

from abelwords import (
    ConstructionSpec,
    Word,
    commute_check,
    count_table,
    factorize,
    is_a_primitive,
    root_profile,
)

# name: (build the record, its repr in the README's Quick start form)
RECORDS = {
    "Factorization": (lambda: factorize(12), "Factorization(entries=((2, 2), (3, 1)))"),
    "CountRow": (lambda: count_table(2, 4).rows[-1], "CountRow(n=4, psi=12, psi_a=10, delta=2)"),
    "CountTable": (
        lambda: count_table(2, 4, budget=20),
        "CountTable(alphabet_size=2, rows=(CountRow(n=1, psi=2, psi_a=2, delta=0), "
        "CountRow(n=2, psi=2, psi_a=2, delta=0), CountRow(n=3, psi=6, psi_a=6, delta=0)), "
        "skipped=(4,))",
    ),
    "PrimitivityVerdict": (
        lambda: is_a_primitive(Word.from_text("aabbabab")),
        "PrimitivityVerdict(is_a_primitive=False, witness_root_length=4)",
    ),
    "RootProfile": (
        lambda: root_profile(Word.from_text("aabbabababab")),
        "RootProfile(word_length=12, a_root_lengths=(4, 6), a_primitive_root_lengths=(4, 6))",
    ),
    "CommutationWitness": (
        lambda: commute_check(Word.from_text("aba"), Word.from_text("bab"), 2),
        "CommutationWitness(r=3, s=2, q=1, ux=Word('ababab', k=2))",
    ),
    "ConstructionSpec": (
        lambda: ConstructionSpec("mword", 5),
        "ConstructionSpec(family='mword', parameter=5)",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    build, shown = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    assert repr(record) == shown
    fields = type(record)._fields
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict either
    again = pickle.loads(pickle.dumps(record))
    assert type(again) is type(record) and again == record and repr(again) == shown
    # read by name, unpacked, as a dict, or compared with a plain tuple
    values = tuple(getattr(record, field) for field in fields)
    assert tuple(record) == values and record == values
    assert record._asdict() == dict(zip(fields, values))
