"""``lang.record`` semantics, checked on every record class in the package
and on the Rule 110 oracle's ``GridRow``.

The classes are found through ``__record_fields__``, so a record added
anywhere in ``utxo110`` is covered without being listed here.
"""

import importlib
import pkgutil

import pytest

import utxo110
from rule110_oracle import GridRow
from utxo110.builder import CannotBuild, NoProgress
from utxo110.canonical import Refs
from utxo110.interp import CostReceipt
from utxo110.lang import CtxRef, Lit, Not, Size, Var, record
from utxo110.model import ChainParams, OutputRef


def _record_classes():
    found = []
    for info in pkgutil.iter_modules(utxo110.__path__):
        if info.name.startswith("__"):
            continue  # __main__ would run the CLI
        module = importlib.import_module(f"utxo110.{info.name}")
        found += [value for value in vars(module).values()
                  if isinstance(value, type) and "__record_fields__" in vars(value)
                  and value.__module__ == module.__name__]
    return sorted(found, key=lambda cls: cls.__qualname__)


PACKAGE_RECORDS = _record_classes()
# GridRow defines its own __init__, which checks the fields.
RECORDS = sorted(PACKAGE_RECORDS + [GridRow], key=lambda cls: cls.__qualname__)
VALID_ARGS = {GridRow: (-1, (1, 0))}


def args_for(cls) -> tuple:
    return VALID_ARGS.get(cls, tuple(range(1, len(cls.__record_fields__) + 1)))


def other_args_for(cls) -> tuple:
    if cls is GridRow:
        return (-1, (0, 1))
    args = args_for(cls)
    return args[:-1] + (args[-1] + 100,)


def test_every_record_module_is_found():
    assert {Lit, OutputRef, Refs, CostReceipt, CannotBuild} <= set(PACKAGE_RECORDS)
    assert {cls.__module__ for cls in PACKAGE_RECORDS} == {
        f"utxo110.{m}" for m in ("builder", "canonical", "chainio", "interp",
                                 "lang", "ledger", "model")}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
class TestEveryRecord:
    def test_equal_exactly_when_class_and_fields_are_equal(self, cls):
        a, b = cls(*args_for(cls)), cls(*args_for(cls))
        assert a == b and not a != b
        assert a != object() and a != args_for(cls)
        if cls.__record_fields__:
            assert a != cls(*other_args_for(cls))
        for other in RECORDS:
            if other is not cls and args_for(other) == args_for(cls):
                assert a != other(*args_for(other))
                assert other(*args_for(other)) != a
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_construction(self, cls):
        args = args_for(cls)
        by_keyword = cls(**dict(zip(cls.__record_fields__, args)))
        assert cls(*args) == by_keyword
        assert tuple(getattr(by_keyword, n) for n in cls.__record_fields__) == args
        with pytest.raises(TypeError):
            cls(*args, 0)
        with pytest.raises(TypeError):
            cls(*args, not_a_field=0)
        required = [n for n in cls.__record_fields__ if n not in vars(cls)]
        if required:
            with pytest.raises(TypeError):
                cls(*args[:len(required) - 1])

    def test_repr_names_the_class_and_each_field(self, cls):
        args = args_for(cls)
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(cls.__record_fields__, args))
        assert repr(cls(*args)) == f"{cls.__qualname__}({fields})"

    def test_only_ordered_records_compare_by_size(self, cls):
        a = cls(*args_for(cls))
        if cls is OutputRef:
            assert not a < a
        else:
            with pytest.raises(TypeError):
                a < a


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_frozen_records_refuse_assignment_and_deletion(cls):
    a = cls(*args_for(cls))
    for name in cls.__record_fields__ + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
    for name in cls.__record_fields__:
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == cls(*args_for(cls))


def test_every_record_is_frozen():
    # each is hashable, and refuses assignment and deletion (tested above)
    assert [cls for cls in RECORDS if cls.__hash__ is None] == []
    for option in ("frozen", "order"):
        with pytest.raises(TypeError):
            record(**{option: False})  # record takes no options


def test_different_classes_over_the_same_value_differ():
    assert Var("a") != CtxRef("a")
    x = Lit(1)
    assert Not(x) != Size(x)
    assert Not(x) == Not(Lit(1))


def test_defaults_fill_missing_fields():
    assert ChainParams() == ChainParams(256, 10_000, 1_000_000, 16_384, 1_024)
    assert ChainParams(max_width=8) == ChainParams(8)
    assert Refs() == Refs(False, False, False, -1, frozenset())
    assert CostReceipt(total_cost=1, limit=2) == CostReceipt(1, 2)
    assert NoProgress() == NoProgress()


def test_output_refs_sort_by_tx_id_then_index():
    refs = [OutputRef(bytes([t]) * 32, i) for t in (3, 1, 2) for i in (2, 0, 1)]
    assert sorted(refs) == sorted(refs, key=lambda r: (r.tx_id, r.index))
    assert max(refs) == OutputRef(bytes([3]) * 32, 2)
    assert OutputRef(bytes(32), 1) > OutputRef(bytes(32), 0)
    assert OutputRef(bytes(32), 0).__lt__((bytes(32), 1)) is NotImplemented


def test_methods_the_class_defines_are_kept():
    @record
    class Pair:
        a: int
        b: int

        def __eq__(self, other):
            return "own"

        def __hash__(self):
            return 7

        def __repr__(self):
            return "pair"

    assert (Pair(1, 2) == Pair(3, 4)) == "own"
    assert hash(Pair(1, 2)) == 7 and repr(Pair(1, 2)) == "pair"
    assert Pair(1, b=2).b == 2


def test_literals_of_different_value_types_differ():
    assert Lit(True) != Lit(1) and Lit(False) != Lit(0)
    assert Lit(1) == Lit(1) and hash(Lit(1)) == hash(Lit(1))
    assert len({Lit(True), Lit(1), Lit(False), Lit(0)}) == 4
