"""The value types are immutable, and equal and hash alike exactly when
their fields agree."""

import pytest

from spinduct.charring import TorusElement
from spinduct.multiplets import Multiplet, multiplet
from spinduct.rootdata import Lattice, RationalWeight
from spinduct.spinc import SpincClassification, classify
from spinduct.weyl import CosetReps, Regular, WeylElement, to_dominant_chamber
from spinduct.zoo import zoo_problem


def _cases():
    """(value, a value built afresh from equal fields, a value with one field
    changed, the field names) for each type."""
    p = zoo_problem("B3", "so3xso4")
    w = p.reps.reps[1]  # cached with its W^H by coset_representatives
    reps, inverses = p.reps.reps, p.reps.inverses
    reg = to_dominant_chamber(p.datum, RationalWeight([-1, 2, 3]))
    assert reg is not None and reg.w.length > 0
    m = multiplet(p, TorusElement.monomial(p.datum, p.datum.rho))
    s = classify(p)
    return [
        (w, WeylElement(tuple(map(tuple, w.matrix)), w.length), WeylElement(w.matrix, w.length + 2),
         ("matrix", "length")),
        (RationalWeight([1, 1, 1], 2), RationalWeight([3, 1, -1], 2).residue_mod_one(),
         RationalWeight([1, 0, 1], 4), ("nums", "den")),
        (Lattice.full(3, 2), Lattice.from_columns(3, [(0, 2, 0), (2, 0, 0), (0, 0, 2)]),
         Lattice.full(3), ("ambient_rank", "columns")),
        (p.reps, CosetReps(tuple(reps), p.sub, tuple(inverses)),
         CosetReps(reps[:-1], p.sub, inverses[:-1]), ("reps", "subgroup", "inverses")),
        (reg, Regular(WeylElement(reg.w.matrix, reg.w.length), RationalWeight(reg.image.nums)),
         Regular(reg.w, -reg.image), ("w", "image")),
        (m, Multiplet(m.source, tuple(m.reps), tuple(m.members), tuple(m.signs)),
         Multiplet(m.source, m.reps, m.members, tuple(-x for x in m.signs)),
         ("source", "reps", "members", "signs")),
        (s, SpincClassification(RationalWeight(s.rho_m.nums, s.rho_m.den), s.is_spin,
                                s.is_c_spinorial, s.gamma, s.torsor_note),
         SpincClassification(s.rho_m, s.is_spin, s.is_c_spinorial, s.gamma, "other"),
         ("rho_m", "is_spin", "is_c_spinorial", "gamma", "torsor_note")),
    ]


def test_fields_cannot_be_assigned():
    for value, equal, other, fields in _cases():
        for name in fields:
            before = getattr(value, name)
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(other, name))
            assert getattr(value, name) is before
    m = next(value for value, *_ in _cases() if type(value) is Multiplet)
    with pytest.raises(AttributeError):
        del m.members
    assert m.dimensions is m.dimensions


def test_equal_fields_give_equal_values():
    for value, equal, other, fields in _cases():
        assert value is not equal
        assert value == equal and not value != equal, type(value).__name__
        assert value != other and other != value, type(value).__name__
        if type(value) is not Multiplet:  # its members are unhashable elements
            assert hash(value) == hash(equal), type(value).__name__
    m = next(value for value, *_ in _cases() if type(value) is Multiplet)
    a, b = (Multiplet(None, tuple(m.reps), (), m.signs) for _ in range(2))
    assert a == b and hash(a) == hash(b)
    assert m != (m.source, m.reps, m.members, m.signs)
