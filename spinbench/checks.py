"""Command generation and output checks shared by the `cli` and `e6`
workloads, plus the statistics rules the harness reports with.

Nothing here imports spinduct: commands are argument lists and outputs are
parsed JSON, so the same checks apply to a child process and to an
in-process call of `spinduct.cli.main`.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

# --- statistics -----------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return xs[mid] if n % 2 else (xs[mid - 1] + xs[mid]) / 2


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank q-quantile (0 < q < 1): the smallest sample with at least
    a share q of the samples at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(xs)))
    return xs[rank - 1]


def tail_quantile(n: int, wanted: float = 0.9, beyond: int = 10) -> float:
    """The highest quantile, at most `wanted`, with at least `beyond` samples
    above it; 0.5 when n is too small for any higher one."""
    if n <= 0:
        raise ValueError("no samples")
    q = min(wanted, (n - beyond) / n)
    return max(q, 0.5)


# --- command streams ------------------------------------------------------------

# zoo pairs the CLI knows by preset name
ZOO = (
    ("A1", "t"),
    ("A2", "t"),
    ("A2", "levi1"),
    ("A1xA1", "t"),
    ("B2", "t"),
    ("G2", "a2long"),
    ("B3", "so3xso4"),
    ("C2", "a1xa1"),
    ("F4", "b4"),
)
RANK = {"A1": 1, "A2": 2, "A1xA1": 2, "B2": 2, "G2": 2, "B3": 3, "C2": 2, "F4": 4}
# rho_M of each pair as (numerators, denominator) in fundamental-weight
# coordinates; bwb needs mu in the rho_M coset, and rho_M plus a dominant
# offset is H-dominant for every pair here
RHO_M = {
    ("A1", "t"): ((1,), 1),
    ("A2", "t"): ((1, 1), 1),
    ("A2", "levi1"): ((0, 3), 2),
    ("A1xA1", "t"): ((1, 1), 1),
    ("B2", "t"): ((1, 1), 1),
    ("G2", "a2long"): ((1, 0), 1),
    ("B3", "so3xso4"): ((3, 0, 2), 2),
    ("C2", "a1xa1"): ((1, 0), 1),
    ("F4", "b4"): ((0, 0, 0, 2), 1),
}
# the Steinberg pairing bases exist only over the torus
PAIRING_ZOO = (("A1", "t"), ("A2", "t"), ("A1xA1", "t"), ("B2", "t"))
# dominant weights (fundamental-weight coordinates) for the F4 branch
# queries, of dimension 324, 19278 and 29172, where Freudenthal expansion
# dominates; the first pass also branches F4_HEAVY (dimension 379848, about
# 3 s); F4_LIGHT (26 to 273) serve the generic branch query on F4
F4_BRANCH = ((0, 0, 0, 2), (0, 1, 0, 1), (1, 1, 0, 0))
F4_HEAVY = (1, 1, 0, 1)
F4_LIGHT = ((0, 0, 0, 1), (1, 0, 0, 0), (0, 0, 1, 0))
B3_BRANCH_MAX = 2

# malformed queries, taken in turn, four per pass
MALFORMED = (
    ("bad-group", ["info", "--group", "Z9"]),
    ("bad-subgroup", ["info", "--group", "A2", "--subgroup", "nosuch"]),
    ("bad-kind", ["induce", "--group", "A2", "--subgroup", "t", "--kind", "bogus",
                  "--input", "spinor"]),
    ("zero-denominator", ["induce", "--group", "A2", "--input", "e^[1,1]/0"]),
    ("missing-mu", ["bwb", "--group", "A2", "--subgroup", "t"]),
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its argv, the stdin document (for --problem -) and
    whether it is deliberately malformed."""

    kind: str
    argv: Tuple[str, ...]
    stdin: Optional[str] = None
    malformed: bool = False


def monomial(w: Sequence[int]) -> str:
    return "e^[" + ",".join(map(str, w)) + "]"


def _weight(rng: random.Random, rank: int, hi: int) -> str:
    return monomial([rng.randint(0, hi) for _ in range(rank)])


QUERIES = ("info", "whset", "induce", "bwb", "multiplet", "spinc", "lefschetz", "branch")


def _query(rng: random.Random, name: str, g: str, h: str) -> Tuple[str, ...]:
    base = (name, "--group", g, "--subgroup", h)
    if name == "induce":
        return base + ("--input", "spinor")
    if name == "bwb":
        nums, den = RHO_M[(g, h)]
        return base + ("--mu", ",".join(str(x + den * rng.randint(0, 2)) for x in nums) + f"/{den}")
    if name == "branch" and g == "F4":
        return base + ("--input", monomial(F4_LIGHT[rng.randrange(len(F4_LIGHT))]))
    if name in ("multiplet", "branch"):
        return base + ("--input", _weight(rng, RANK[g], 2))
    if name == "lefschetz":
        return base + ("--input", "spinor", "--trials", str(rng.randint(3, 10)))
    return base


def cli_pass(seed: int, index: int) -> List[Command]:
    """Pass `index` of the seeded `cli` stream, 33 commands (34 in pass 0)
    in a seeded order.

    The seed picks commands, weights and order, but every pass holds the
    same costly items, so its cost barely depends on the seed: two queries
    on each zoo pair (every query command but `pairing` at least once), two
    pairings over the torus, one F4 > B4 branch at each weight of
    F4_BRANCH (and F4_HEAVY in pass 0), four B3 > SO(3)xSO(4) branches, two
    `--problem -` documents and four malformed queries."""
    rng = random.Random(f"cli:{seed}:{index}")
    out: List[Command] = []
    names = list(QUERIES) * 2 + ["info", "multiplet"]
    rng.shuffle(names)
    for k, name in enumerate(names):
        g, h = ZOO[k // 2]
        out.append(Command(name, _query(rng, name, g, h)))
    for _ in range(2):
        g, h = PAIRING_ZOO[rng.randrange(len(PAIRING_ZOO))]
        out.append(Command("pairing", ("pairing", "--group", g, "--subgroup", h,
                                       "--tau", rng.choice(("0", "rhoM")))))
    for w in F4_BRANCH + ((F4_HEAVY,) if index == 0 else ()):
        out.append(Command("branch-f4", ("branch", "--group", "F4", "--subgroup", "b4",
                                         "--input", monomial(w))))
    for _ in range(4):
        out.append(Command("branch-b3", ("branch", "--group", "B3", "--subgroup", "so3xso4",
                                         "--input", _weight(rng, 3, B3_BRANCH_MAX))))
    for _ in range(2):
        g, h = ZOO[rng.randrange(len(ZOO))]
        doc = {
            "command": "multiplet",
            "group": g,
            "subgroup": h,
            "input": "e^rhoG",
            "seed": rng.randint(1, 99),
            "trials": rng.randint(1, 19),
        }
        out.append(Command("problem-doc", ("multiplet", "--problem", "-"),
                           stdin=json.dumps(doc, sort_keys=True)))
    for j in range(4):
        kind, argv = MALFORMED[(4 * index + j + seed) % len(MALFORMED)]
        out.append(Command(kind, tuple(argv), malformed=True))
    rng.shuffle(out)
    return out


# --- output checks --------------------------------------------------------------


@dataclass
class Outcome:
    """Verdict on one command. `failed` marks a command that gave no
    well-formed answer (traceback, several or no JSON documents, a wrong exit
    code, a missing error record or an echo that differs from the document);
    `wrong` marks a well-formed answer that breaks an identity."""

    failed: bool = False
    wrong: bool = False
    reason: str = ""


def _one_document(stdout: str) -> Optional[Dict]:
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if len(lines) != 1:
        return None
    try:
        doc = json.loads(lines[0])
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


def check_payload(cmd: Command, doc: Dict, branch_dim: Optional[int] = None) -> Outcome:
    """Identity on a successful payload. `branch_dim` is the Weyl dimension
    of the irreducible a branch query branched, when the caller knows it."""
    name = cmd.argv[0]
    if name == "branch":
        # honest input: one irreducible with coefficient 1
        terms = doc["result"]["terms"]
        if any(t["coeff"] < 0 for t in terms):
            return Outcome(wrong=True, reason="negative multiplicity")
        if branch_dim is not None and doc["dimension"] != branch_dim:
            return Outcome(wrong=True, reason="dimension not kept")
    elif name == "multiplet":
        if doc["alternating_dimension_sum"] != 0 or sum(
            s * d for s, d in zip(doc["signs"], doc["dimensions"])
        ) != 0:
            return Outcome(wrong=True, reason="alternating dimension sum is not 0")
    elif name == "lefschetz":
        if doc["passed"] is not True:
            return Outcome(wrong=True, reason="lefschetz check not passed")
    elif name == "pairing":
        if doc["is_unit"] is not True:
            return Outcome(wrong=True, reason="pairing determinant is not a unit")
    elif name in ("info", "whset"):
        d = doc["diagnostics"]
        if d["coset_count"] * d["weyl_order_h"] != d["weyl_order"]:
            return Outcome(wrong=True, reason="|W^H| |W_H| != |W|")
    return Outcome()


def judge(cmd: Command, returncode: int, stdout: str, stderr: str,
          branch_dim: Optional[int] = None) -> Outcome:
    """Verdict on one finished command. `branch_dim` is the dimension of the
    branched irreducible, when the caller knows it."""
    if "Traceback (most recent call last)" in stderr:
        return Outcome(failed=True, reason="traceback")
    if returncode not in (0, 1, 2):
        return Outcome(failed=True, reason=f"exit code {returncode}")
    doc = _one_document(stdout)
    if doc is None:
        # argparse usage errors exit 2 with text on stderr
        if returncode == 2 and not stdout.strip():
            if cmd.malformed:
                return Outcome()
            return Outcome(failed=True, reason="usage error on a valid query")
        return Outcome(failed=True, reason="not exactly one JSON document")
    if cmd.malformed:
        if returncode == 0 or "error" not in doc:
            return Outcome(failed=True, reason="malformed query without an error record")
        return Outcome()
    if returncode != 0 or "error" in doc:
        return Outcome(failed=True, reason=f"error on a valid query: {doc.get('error')}")
    if cmd.stdin is not None:
        sent = json.loads(cmd.stdin)
        echo = doc.get("problem", {})
        for key, value in sent.items():
            if echo.get(key) != value:
                return Outcome(failed=True, reason=f"echoed problem differs at {key!r}")
    return check_payload(cmd, doc, branch_dim)


def canonical_digest(records: Sequence[Tuple[Sequence[str], Optional[str], int, str]]) -> str:
    """SHA-256 over (argv, stdin, exit code, stdout) of every command, in order."""
    h = hashlib.sha256()
    for argv, stdin, code, stdout in records:
        h.update(json.dumps([list(argv), stdin, code, stdout]).encode())
        h.update(b"\n")
    return h.hexdigest()
