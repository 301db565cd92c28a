"""The slotted value classes behave as the frozen dataclasses they replace.

Each class is checked against a dataclass twin with the same name and the
same compared fields, built from the same field values: equality, hashing
(and so the iteration order of sets), repr, and refusal of assignment.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from dataclasses import make_dataclass
from fractions import Fraction
from pathlib import Path

import pytest

from dowlingnest.arrangement import Block, ClosedSubgroupSet, NestedSet
from dowlingnest.forests import ForestDecomposition, LabelledForest, Leaf, Vertex
from dowlingnest.groups import ConjClass, Coset, Subgroup
from dowlingnest.linalg import Subspace
from dowlingnest.selftest import _Run

SRC = Path(__file__).resolve().parent.parent / "src"

E, H, G = Subgroup((0,)), Subgroup((2, 0)), Subgroup((0, 1, 2, 3))
B1 = Block(E, (1, 2), (0, 1))
B2 = Block(H, (1, 2), (0, 1))
B3 = Block(G, (3,), (0,))
V1 = Vertex(E, ((1, Leaf(2)), (0, Leaf(1))))
V2 = Vertex(H, ((0, V1), (2, Leaf(3))))
HALF = Fraction(1, 2)

# class, its compared fields in order, sample objects (some equal)
CASES = [
    (Subgroup, ("elements",), [E, H, G, Subgroup((0, 2, 2)), Subgroup([0])]),
    (
        Coset,
        ("rep", "members"),
        [Coset(0, (0, 2)), Coset(1, (1, 3)), Coset(rep=0, members=(0, 2))],
    ),
    (
        ConjClass,
        ("representative", "members"),
        [ConjClass(E, (E,)), ConjClass(H, (H,)), ConjClass(representative=E, members=(E,))],
    ),
    (
        Subspace,
        ("ambient_dim", "echelon"),
        [
            Subspace(2, ((1, 0),)),
            Subspace(ambient_dim=2, echelon=((1, 0),)),
            Subspace(2, ((2, 1),)),
            Subspace(3, ((1, 0, 0),)),
        ],
    ),
    (
        ClosedSubgroupSet,
        ("members", "closure_map"),
        [
            ClosedSubgroupSet((E, G), ((E, E), (H, G), (G, G))),
            ClosedSubgroupSet(members=(E, G), closure_map=((E, E), (H, G), (G, G))),
            ClosedSubgroupSet((E, H, G), ((E, E), (H, H), (G, G))),
        ],
    ),
    (Block, ("subgroup", "indices", "cosets"), [B1, B2, B3, Block(E, (1, 2), (0, 1))]),
    (NestedSet, ("blocks",), [NestedSet((B3, B1)), NestedSet((B1, B3)), NestedSet((B2,))]),
    (Leaf, ("label",), [Leaf(1), Leaf(2), Leaf(), Leaf(label=None), Leaf(label=1)]),
    (
        Vertex,
        ("subgroup", "children"),
        [V1, V2, Vertex(E, ((0, Leaf(1)), (1, Leaf(2)))), Vertex(subgroup=H, children=((0, V1),))],
    ),
    (
        LabelledForest,
        ("trees",),
        [LabelledForest((Leaf(4), V2)), LabelledForest((V2, Leaf(4))), LabelledForest((V1,))],
    ),
    (
        ForestDecomposition,
        ("components", "fallen", "leaf_counts", "subforests"),
        [
            ForestDecomposition(2, 1, ((E, 2),), ((E, (V1,)),)),
            ForestDecomposition(2, 0, ((E, 2),), ((E, (V1,)),)),
            ForestDecomposition(
                components=2, fallen=1, leaf_counts=((E, 2),), subforests=((E, (V1,)),)
            ),
        ],
    ),
    (
        _Run,
        ("nested", "forests", "forest_count", "clique_count", "series_count"),
        [
            _Run([], [], 0, 0, None),
            _Run([NestedSet((B1,))], [], 1, 1, 1),
            _Run([], [], 0, 0, None),
        ],
    ),
]


def _twins(cls, fields, objs):
    """The same values in one frozen dataclass of the same name."""
    twin_cls = make_dataclass(cls.__name__, fields, frozen=True)
    return [twin_cls(*(getattr(obj, f) for f in fields)) for obj in objs]


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("cls, fields, objs", CASES, ids=[c[0].__name__ for c in CASES])
def test_equality_hash_and_repr_match_a_dataclass_twin(cls, fields, objs):
    twins = _twins(cls, fields, objs)
    for obj, twin in zip(objs, twins):
        if "__repr__" not in vars(cls):  # a dataclass keeps a repr of its own
            assert repr(obj) == repr(twin)
        assert _hash_or_error(obj) == _hash_or_error(twin)
        assert obj.__eq__(twin) is NotImplemented
        assert obj.__eq__(object()) is NotImplemented
        assert obj != twin
    for a, ta in zip(objs, twins):
        for b, tb in zip(objs, twins):
            assert (a == b) == (ta == tb)
            assert (a != b) == (ta != tb)
    if all(isinstance(_hash_or_error(obj), int) for obj in objs):

        def listed(xs):
            return [[getattr(x, f) for f in fields] for x in xs]

        assert listed(set(objs)) == listed(set(twins))
        assert listed(dict.fromkeys(objs)) == listed(dict.fromkeys(twins))


@pytest.mark.parametrize("cls, fields, objs", CASES, ids=[c[0].__name__ for c in CASES])
def test_fields_can_be_neither_assigned_nor_deleted(cls, fields, objs):
    obj = objs[0]
    values = [getattr(obj, name) for name in cls.__slots__]
    for name in (*cls.__slots__, "other"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert not hasattr(obj, "__dict__")
    assert [getattr(obj, name) for name in cls.__slots__] == values


@pytest.mark.parametrize("cls, fields, objs", CASES, ids=[c[0].__name__ for c in CASES])
def test_pickle_and_copy_rebuild_an_equal_object(cls, fields, objs):
    for obj in objs:
        for again in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert type(again) is cls
            assert again == obj
            assert repr(again) == repr(obj)


def test_derived_fields_stay_out_of_equality_and_repr():
    plain = Subspace(2, ((2, 1),))
    assert repr(plain) == "Subspace(dim=1/2)"
    assert plain.basis == ((1, HALF),)
    assert plain == Subspace(2, ((2, 1),))
    assert "basis" not in repr(plain)
    assert B1.sort_key == (E.sort_key, (1, 2), (0, 1))
    assert "sort_key" not in repr(B1)
    assert V1.smallest == 1 and "smallest" not in repr(V1)
    closed = ClosedSubgroupSet((E, G), ((E, E), (H, G), (G, G)))
    assert H not in closed and closed.phi(H) == G
    assert "_phi" not in repr(closed)
    assert Leaf().label is None


def test_building_a_vertex_runs_post_init_once(monkeypatch):
    """perfbench counts vertices by wrapping `Vertex.__post_init__`."""
    calls = []
    post_init = Vertex.__post_init__

    def counted(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(Vertex, "__post_init__", counted)
    v = Vertex(E, ((1, Leaf(2)), (0, Leaf(1))))
    assert calls == [v]
    assert v.children == ((0, Leaf(1)), (1, Leaf(2)))
    assert v.smallest == 1


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Against a bare interpreter: the modules it loads at start-up (some
    builds load `inspect` there) are the baseline."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import dowlingnest.cli\n"
        "new = {'dataclasses', 'inspect'} & (set(sys.modules) - before)\n"
        "print(' '.join(sorted(new)) or 'none')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "none"
