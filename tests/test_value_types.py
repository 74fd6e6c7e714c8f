"""The eight exported value types behave as frozen value records: equality
and hashing over their field tuple, the `Name(field=value, ...)` repr,
no assignment or deletion, keyword construction with the documented
defaults, and pickle/copy round trips. The package imports neither
`dataclasses` nor `inspect`."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from functools import cache

import pytest

import deckpoly
from deckpoly import identities, search
from deckpoly.digraphs import Digraph, directed_cycle
from deckpoly.graph_polys import F1, F2, F4, Deck, PolyKind, deck
from deckpoly.identities import IdentityReport
from deckpoly.reconstruct import Inconsistent, OneParameterFamily, Unique, reconstruct
from deckpoly.search import CollisionGroup

FIELDS = {
    Digraph: ("n", "arcs", "weights"),
    PolyKind: ("beta", "gamma", "mode"),
    Deck: ("kind", "coefficients", "denominators", "arc_weight"),
    Unique: ("poly",),
    OneParameterFamily: ("base", "free_exponent"),
    Inconsistent: ("detail",),
    IdentityReport: ("identity", "instance", "lhs", "rhs"),
    CollisionGroup: ("deck", "members"),
}

WEIGHTED = Digraph(3, ((0, 1), (1, 2), (2, 0)), (Fraction(1, 2), 2, -3))


@cache
def instances():
    """One instance of each type, by type: built when a test asks, so a
    fault in the code that builds them fails tests instead of collection."""
    family = reconstruct(deck(directed_cycle(3), F1))
    return {type(x): x for x in [
        WEIGHTED,
        PolyKind(Fraction(1, 2), -3, "det"),
        deck(WEIGHTED, F2),
        reconstruct(deck(Digraph(3, WEIGHTED.arcs + ((1, 0),)), F4)),
        family,
        Inconsistent("coefficient 0: equation 0 * c_0 = 1"),
        identities.check_eq17(WEIGHTED, F2),
        search.find_deck_collisions(3, 3, F1)[0],
    ]}


def values(x):
    return tuple(getattr(x, name) for name in FIELDS[type(x)])


def test_the_instances_cover_every_type():
    assert list(instances()) == list(FIELDS)


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_equal_fields_make_equal_values(cls):
    x = instances()[cls]
    twin = cls(*values(x))
    assert twin == x and not twin != x and twin is not x
    assert cls(**dict(zip(FIELDS[cls], values(x)))) == x
    try:
        expected = hash(values(x))
    except TypeError:  # IdentityReport.instance is a dict
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(twin) == expected


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_another_class_with_equal_fields_is_not_equal(cls):
    x = instances()[cls]
    other = type("Other", (cls,), {})(*values(x))
    assert x.__eq__(other) is NotImplemented
    assert x != other and other != x
    assert x.__eq__(values(x)) is NotImplemented


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    x = instances()[cls]
    before = values(x)
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert values(x) == before


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_pickle_and_copy_round_trip(cls):
    x = instances()[cls]
    copies = [pickle.loads(pickle.dumps(x, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(x), copy.deepcopy(x)]
    for twin in copies:
        assert type(twin) is type(x)
        assert twin == x
        assert values(twin) == values(x)


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_repr_names_every_field(cls):
    x = instances()[cls]
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(FIELDS[cls], values(x)))
    assert repr(x) == f"{cls.__qualname__}({fields})"


def test_digraph_repr():
    assert repr(Digraph(2, ((0, 1),))) == "Digraph(n=2, arcs=((0, 1),), weights=None)"


def test_keyword_construction_with_the_defaults():
    assert Digraph(n=3) == Digraph(3, (), None)
    assert Digraph(n=3).arcs == () and Digraph(n=3).weights is None
    d = deck(directed_cycle(3), F1)
    assert d.arc_weight is None
    assert Deck(kind=d.kind, coefficients=d.coefficients,
                denominators=d.denominators, arc_weight=None) == d
    assert Deck(d.kind, d.coefficients, d.denominators) == d
    assert PolyKind(beta=0, gamma=1, mode="det") == F1
    assert Unique(poly=(1,)) == Unique((1,))
    assert OneParameterFamily(base=(1,), free_exponent=0) == OneParameterFamily((1,), 0)
    assert Inconsistent(detail="x") == Inconsistent("x")


def test_identity_report_holds_is_read_off_its_sides():
    report = IdentityReport("2.1", {}, 1, 2)
    assert report.holds is False and report.verdict == "violated"
    assert IdentityReport("2.1", {}, 2, 2).verdict == "holds"
    with pytest.raises(TypeError, match="takes values for"):
        IdentityReport("2.1", {}, 1, 2, False)


def test_constructors_normalize_their_fields():
    # Deck's canonical form is pinned in test_deck_form.py.
    g = Digraph(3, [[0, 1], [1, 2]], [1, "3/2"])
    assert g.arcs == ((0, 1), (1, 2)) and g.weights == (Fraction(1), Fraction(3, 2))
    kind = PolyKind(1, -1, "det")
    assert type(kind.beta) is type(kind.gamma) is Fraction and kind == F2


def test_importing_the_package_and_cli_loads_no_dataclass_machinery():
    src = os.path.dirname(os.path.dirname(deckpoly.__file__))
    script = ("import sys, deckpoly, deckpoly.cli; "
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "[]"
