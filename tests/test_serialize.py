import pytest

from spinduct.charring import TorusElement, weyl_denominator
from spinduct.errors import SchemaViolation
from spinduct.rootdata import RationalWeight, build_root_datum
from spinduct.serialize import (
    group_to_json,
    rational_from_json,
    rational_to_json,
    torus_from_json,
    torus_to_json,
    torus_to_text,
)


def test_rational_roundtrip():
    w = RationalWeight([3, -1, 2], 2)
    assert rational_from_json(rational_to_json(w), 3) == w
    assert rational_from_json([1, 2, 3], 3) == RationalWeight([1, 2, 3])
    with pytest.raises(SchemaViolation):
        rational_from_json({"num": [1, 2]}, 3)
    with pytest.raises(SchemaViolation):
        rational_from_json({"num": [1, 2, 3], "den": 0}, 3)
    with pytest.raises(SchemaViolation):
        rational_from_json({"den": 2}, 3)


def test_torus_roundtrip():
    b3 = build_root_datum("B3")
    from spinduct.rootdata import subgroup_from_roots
    from spinduct.charring import euler_class

    sub = subgroup_from_roots(
        b3,
        [b3.root_from_simple_coordinates(sc) for sc in [(1, 1, 1), (0, 1, 0), (0, 1, 2)]],
    )
    e = euler_class(sub)
    assert torus_from_json(b3, torus_to_json(e)) == e
    z = TorusElement.zero(b3, sub.rho_m.residue_mod_one())
    assert torus_from_json(b3, torus_to_json(z)) == z


def test_torus_json_errors():
    a2 = build_root_datum("A2")
    with pytest.raises(SchemaViolation) as exc:
        torus_from_json(a2, {"terms": [{"coeff": "x", "weight": [0, 0]}]})
    assert "/terms/0" in exc.value.pointer
    with pytest.raises(SchemaViolation):
        torus_from_json(a2, {"terms": [{"coeff": 1}]})
    with pytest.raises(SchemaViolation):
        torus_from_json(a2, [1, 2])
    # declared twist must match the terms
    with pytest.raises(SchemaViolation):
        torus_from_json(
            a2,
            {
                "twist": {"num": [1, 0], "den": 2},
                "terms": [{"coeff": 1, "weight": [0, 0]}],
            },
        )


def test_text_is_sorted_and_stable():
    a2 = build_root_datum("A2")
    t1 = torus_to_text(weyl_denominator(a2))
    t2 = torus_to_text(weyl_denominator(build_root_datum("A2")))
    assert t1 == t2
    lines = t1.splitlines()
    assert lines[0].startswith("twist ")
    assert len(lines) == 7


def test_group_json():
    from spinduct.charring import GroupElement

    a2 = build_root_datum("A2")
    ge = GroupElement.from_weights(a2, {a2.rho: 2, RationalWeight.zero(2): -1})
    obj = group_to_json(ge)
    assert obj["scope"] == "G"
    assert len(obj["terms"]) == 2


def test_mixed_cosets_are_schema_violations_at_the_term():
    a2 = build_root_datum("A2")
    doc = {"terms": [{"coeff": 1, "weight": [1, 0]},
                     {"coeff": 2, "weight": [0, 1]},
                     {"coeff": 1, "weight": {"num": [1, 0], "den": 2}}]}
    with pytest.raises(SchemaViolation) as exc:
        torus_from_json(a2, doc, pointer="/input")
    assert exc.value.pointer == "/input/terms/2/weight"


def test_large_element_round_trip():
    a2 = build_root_datum("A2")
    half = RationalWeight([1, 0], 2)
    weights = {half + RationalWeight([i % 50, i // 50]): i - 1000 for i in range(2000)}
    a = TorusElement.from_weights(a2, weights)
    assert len(a.coeffs) == 1999
    doc = torus_to_json(a)
    assert len(doc["terms"]) == 1999
    assert torus_from_json(a2, doc) == a
