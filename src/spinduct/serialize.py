"""Canonical serialization: a sorted text form for golden tests and a JSON
form for the CLI (weights as integer arrays, rationals as {num, den})."""

from __future__ import annotations

from typing import Dict, Optional

from .charring import GroupElement, TorusElement
from .errors import SchemaViolation
from .rootdata import RationalWeight, RootDatum, ratio_text


def rational_to_text(w: RationalWeight) -> str:
    return ",".join(ratio_text(x, w.den) for x in w.nums)


def torus_to_text(a: TorusElement) -> str:
    """Bit-exact canonical text: twist header then sorted 'coeff @ coords'
    lines with absolute weight coordinates."""
    lines = [f"twist {rational_to_text(a.shift)}"]
    for w, c in a.terms():
        lines.append(f"{c} @ {rational_to_text(w)}")
    return "\n".join(lines)


def rational_to_json(w: RationalWeight) -> Dict:
    return {"num": list(w.nums), "den": w.den}


def is_int(obj) -> bool:
    """Whether a JSON value is an integer; true and false are not."""
    return type(obj) is int


def is_int_list(obj) -> bool:
    """Whether a JSON value is a list of integers."""
    return isinstance(obj, list) and {int}.issuperset(map(type, obj))


def is_int_vector(obj, rank: int) -> bool:
    """Whether a JSON value is a list of exactly `rank` integers."""
    return is_int_list(obj) and len(obj) == rank


def check_int_list(obj, pointer: str) -> None:
    """Refuse a JSON value that is not a list of integers, at the first
    offending item."""
    if is_int_list(obj):
        return
    if not isinstance(obj, list):
        raise SchemaViolation("expected a list of integers", pointer)
    for i, x in enumerate(obj):
        if not is_int(x):
            raise SchemaViolation("expected an integer", f"{pointer}/{i}")


def check_weight(obj, pointer: str) -> None:
    """Refuse a JSON value that is no rational weight of any rank: one is
    {num: [...], den: n} with n >= 1, or a list of integers (den 1)."""
    if isinstance(obj, list):
        return check_int_list(obj, pointer)
    if not isinstance(obj, dict) or "num" not in obj:
        raise SchemaViolation("expected {num: [...], den: n}", pointer)
    check_int_list(obj["num"], pointer + "/num")
    den = obj.get("den", 1)
    if not is_int(den) or den < 1:
        raise SchemaViolation("den must be a positive integer", pointer + "/den")


def check_terms(terms, pointer: str) -> None:
    """Refuse a `terms` list that is not [{coeff, weight}] with integer
    coefficients and rational weights of any rank."""
    if not isinstance(terms, list):
        raise SchemaViolation("terms must be a list", pointer)
    for i, term in enumerate(terms):
        tp = f"{pointer}/{i}"
        if not isinstance(term, dict) or "coeff" not in term or "weight" not in term:
            raise SchemaViolation("term needs coeff and weight", tp)
        if not is_int(term["coeff"]):
            raise SchemaViolation("coeff must be an integer", tp + "/coeff")
        check_weight(term["weight"], tp + "/weight")


def check_element(obj, pointer: str) -> None:
    """Refuse a JSON value that is no element object {terms, twist} of any
    rank."""
    if not isinstance(obj, dict) or "terms" not in obj:
        raise SchemaViolation("expected an element object", pointer)
    check_terms(obj["terms"], pointer + "/terms")
    if "twist" in obj:
        check_weight(obj["twist"], pointer + "/twist")


def rational_from_json(obj, rank: int, pointer: str = "") -> RationalWeight:
    check_weight(obj, pointer)
    if isinstance(obj, list):
        obj = {"num": obj}
    if len(obj["num"]) != rank:
        raise SchemaViolation(f"num must be {rank} integers", pointer + "/num")
    return RationalWeight(obj["num"], obj.get("den", 1))


def torus_to_json(a: TorusElement) -> Dict:
    return {
        "twist": rational_to_json(a.shift),
        "terms": [
            {"coeff": c, "weight": rational_to_json(w)} for w, c in a.terms()
        ],
    }


def weights_from_json(terms, rank: int, pointer: str) -> Dict[RationalWeight, int]:
    """The `terms` list [{coeff, weight}] of an element object, found at
    `pointer`, as summed coefficients by weight; every weight must lie in
    the coset of X(T) of the first."""
    check_terms(terms, pointer)
    weights: Dict[RationalWeight, int] = {}
    coset: Optional[RationalWeight] = None
    for i, term in enumerate(terms):
        tp = f"{pointer}/{i}"
        w = rational_from_json(term["weight"], rank, tp + "/weight")
        if coset is None:
            coset = w.residue_mod_one()
        elif w.residue_mod_one() != coset:
            raise SchemaViolation(
                "term weights lie in different cosets of X(T)", tp + "/weight"
            )
        weights[w] = weights.get(w, 0) + term["coeff"]
    return weights


def torus_from_json(datum: RootDatum, obj, pointer: str = "") -> TorusElement:
    check_element(obj, pointer)
    weights = weights_from_json(obj["terms"], datum.rank, pointer + "/terms")
    if not weights:
        twist = obj.get("twist")
        return TorusElement.zero(
            datum, rational_from_json(twist, datum.rank, pointer + "/twist") if twist else None
        )
    out = TorusElement.from_weights(datum, weights)
    if "twist" in obj:
        declared = rational_from_json(obj["twist"], datum.rank, pointer + "/twist")
        if declared.residue_mod_one() != out.shift:
            raise SchemaViolation(
                "declared twist disagrees with term weights", pointer + "/twist"
            )
    return out


def group_to_json(a: GroupElement) -> Dict:
    return {
        "scope": "G" if isinstance(a.scope, RootDatum) else "H",
        "twist": rational_to_json(a.shift),
        "terms": [
            {"coeff": c, "weight": rational_to_json(w)} for w, c in a.terms()
        ],
    }
