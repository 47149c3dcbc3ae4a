"""The frozen-record contract every public value type keeps.

Records are built positionally, by keyword and with their defaults; they
refuse assignment and deletion; they compare equal only to a record of the
same class with equal fields, and equal records hash equal; their repr is
``Class(field=value, ...)``; and `replace` builds a new record through the
same validation.
"""
import pytest

from statnet.dynamics import DriveSchedule
from statnet.hilbert import SectorDiag
from statnet.network import Gate, Network, Pin, TruthTable
from statnet.record import replace

NOT_TABLE = TruthTable(1, 1, (("0", "1"), ("1", "0")))
LINK = Gate("l", ("a",), ("b",), NOT_TABLE)
PIN = Pin("b", 1, "output")

# Each record class, the positional arguments of one instance, and its repr.
CASES = [
    (Pin, ("a", 1, "output"), "Pin(node='a', value=1, kind='output')"),
    (TruthTable, (1, 1, (("0", "1"), ("1", "0"))),
     "TruthTable(in_arity=1, out_arity=1, rows=(('0', '1'), ('1', '0')))"),
    (Gate, ("l", ("a",), ("b",), NOT_TABLE),
     "Gate(name='l', in_nodes=('a',), out_nodes=('b',), table=TruthTable("
     "in_arity=1, out_arity=1, rows=(('0', '1'), ('1', '0'))))"),
    (Network, (("a", "b"), (LINK,), (PIN,), "b"),
     "Network(nodes=('a', 'b'), gates=(Gate(name='l', in_nodes=('a',), "
     "out_nodes=('b',), table=TruthTable(in_arity=1, out_arity=1, "
     "rows=(('0', '1'), ('1', '0')))),), pins=(Pin(node='b', value=1, "
     "kind='output'),), drive_node='b')"),
    (DriveSchedule, ("cosine-ramp", 0.25, 1.5, 2.0, 0.5),
     "DriveSchedule(kind='cosine-ramp', theta0=0.25, phi_final=1.5, tau=2.0, "
     "dt=0.5)"),
    (SectorDiag, ("h", 0.25, 0.75), "SectorDiag(node='h', p0=0.25, p1=0.75)"),
]
IDS = [cls.__name__ for cls, _, _ in CASES]
FIELDS = {
    Pin: ("node", "value", "kind"),
    TruthTable: ("in_arity", "out_arity", "rows"),
    Gate: ("name", "in_nodes", "out_nodes", "table"),
    Network: ("nodes", "gates", "pins", "drive_node"),
    DriveSchedule: ("kind", "theta0", "phi_final", "tau", "dt"),
    SectorDiag: ("node", "p0", "p1"),
}


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, args, text):
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(FIELDS[cls], args)))
    mixed = cls(args[0], **dict(zip(FIELDS[cls][1:], args[1:])))
    assert by_position == by_keyword == mixed
    assert tuple(getattr(by_position, f) for f in FIELDS[cls]) == args
    assert repr(by_position) == repr(by_keyword) == text


def test_defaults():
    assert Network(("a",)) == Network(("a",), (), (), None)
    assert DriveSchedule() == DriveSchedule("linear-ramp", 0.0, 0.0, 1.0, 1e-3)
    assert DriveSchedule(dt=0.5) == DriveSchedule("linear-ramp", 0.0, 0.0, 1.0,
                                                  0.5)
    assert repr(Network(("a",))) == ("Network(nodes=('a',), gates=(), pins=(), "
                                      "drive_node=None)")


@pytest.mark.parametrize("make", [
    lambda: Pin("a", 1),
    lambda: TruthTable(1, rows=(("0", "1"),)),
    lambda: Gate("l", ("a",), ("b",)),
    lambda: Network(gates=(LINK,)),
    lambda: SectorDiag("h", p1=0.5),
], ids=["Pin", "TruthTable", "Gate", "Network", "SectorDiag"])
def test_missing_argument_is_type_error(make):
    with pytest.raises(TypeError):
        make()


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_extra_or_repeated_argument_is_type_error(cls, args, text):
    with pytest.raises(TypeError):
        cls(*args, 0)
    with pytest.raises(TypeError):
        cls(*args, unknown=1)
    with pytest.raises(TypeError):
        cls(*args, **{FIELDS[cls][0]: args[0]})


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, args, text):
    record = cls(*args)
    name = FIELDS[cls][0]
    with pytest.raises(AttributeError):
        setattr(record, name, args[0])
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, name) == args[0]


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_equality_within_one_class_and_hash(cls, args, text):
    record, twin = cls(*args), cls(*args)
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    assert record != args
    assert args != record
    assert record != object()
    assert len({record, twin}) == 1


def test_equality_compares_every_field():
    assert Pin("a", 1, "output") != Pin("a", 1, "input")
    assert Pin("a", 1, "output") != Pin("a", 0, "output")
    assert SectorDiag("h", 0.25, 0.75) != SectorDiag("h", 0.75, 0.25)
    assert DriveSchedule(dt=0.5) != DriveSchedule(dt=0.25)
    assert Network(("a",)) != Network(("b",))


def test_replace_builds_a_new_record():
    schedule = DriveSchedule("cosine-ramp", 0.25, 1.5, 2.0, 0.5)
    moved = replace(schedule, theta0=0.5, dt=0.25)
    assert moved == DriveSchedule("cosine-ramp", 0.5, 1.5, 2.0, 0.25)
    assert schedule.theta0 == 0.25 and schedule.dt == 0.5
    assert replace(PIN) == PIN
    with pytest.raises(TypeError):
        replace(PIN, unknown=1)


@pytest.mark.parametrize("record, changes", [
    (DriveSchedule(), {"dt": -1}),
    (DriveSchedule(), {"kind": "square"}),
    (DriveSchedule(tau=1.0, dt=0.5), {"tau": 0.25}),
    (PIN, {"value": 2}),
    (PIN, {"kind": "drive"}),
    (TruthTable(1, 1, (("0", "1"),)), {"rows": ()}),
    (LINK, {"out_nodes": ("a",)}),
    (Network(("a", "b"), (LINK,), (PIN,), "b"), {"drive_node": "a"}),
])
def test_replace_reruns_validation(record, changes):
    with pytest.raises(ValueError):
        replace(record, **changes)
