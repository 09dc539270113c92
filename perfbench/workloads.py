"""The benchmark's workloads: seeded inputs, CLI operations, and the
reference verdicts every operation is checked against.

Each workload is a fixed list of ``locstab`` CLI operations.  Its inputs
are built from the workload seed: random valid shift-family seeds (vetted
by ``validate_seeds``) and the see-saw ``--seed``.  The program only sees
the JSON files written here.

The references come from the paper's claims and from combinatorics, never
from the program's own output:

* every shift family and every square-root subset on N > 36 qubits is
  locally stable, and each state pair is orthogonal at exactly one party,
  so the conflict pairs at a party are exactly its orthogonal pairs;
* subsets of a stable UPB at the paper's sizes are stable, and subsets of
  an unstable set stay unstable, because removing states only removes
  generators;
* a UPB has no product state in its orthogonal complement, while the
  GHZ/W triple has |011>;
* the reducible 4x4 UPB stalls at span 14/15 on both parties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from locstab import constructions, states

# Defects the program is known to have, by the ROADMAP item that fixes them.
# An operation marked with one still counts as failed when its output
# disagrees with the reference; the mark only says the disagreement is
# expected, so that it does not flag the run as incorrect.
ADMISSION_DEFECT = "ROADMAP item 1, admission by one absolute cutoff on N-1 overlaps"
SEESAW_DEFECT = "ROADMAP item 3, see-saw overlap cutoff 1 - 1e-3"

# See-saw effort of every `complement` operation (the CLI defaults).
RESTARTS = 50
ITERS = 200


@dataclass(frozen=True)
class Op:
    """One CLI operation and the reference its output must meet.

    ``expect(exit_code, payload)`` returns the ways the output disagrees
    with the reference; an empty list means it agrees.  ``metrics`` names
    the workload metrics this operation's time feeds: a name ending in
    ``_s`` sums seconds, one ending in ``_ms`` gives milliseconds per unit
    of work, where ``units`` counts the subsets a campaign certifies or the
    restarts a search runs.
    """

    label: str
    argv: tuple[str, ...]
    expect: Callable[[int, dict], list[str]]
    known_defect: str | None = None
    metrics: tuple[str, ...] = ()
    units: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[np.random.Generator, Path], list[Op]]
    key_metric: str


def random_shift_seeds(rng: np.random.Generator, n: int):
    """n-1 random qubit seeds that ``validate_seeds`` accepts."""
    while True:
        raw = rng.standard_normal((n - 1, 2)) + 1j * rng.standard_normal((n - 1, 2))
        try:
            return constructions.validate_seeds(list(raw), n)
        except ValueError:
            continue


def shift_conflict_counts(parties: int, indices) -> list[int]:
    """Ordered conflict pairs per party among the shift-family states whose
    first-party table entries are ``indices``.

    State t carries entry (t - p) mod N at party p, and two nonzero entries
    are orthogonal exactly when they sum to 0 mod N.  So states a != b are
    orthogonal at the single party p with a + b = 2p mod N (N is odd), and
    overlap at every other party: each orthogonal pair is a conflict pair.
    """
    chosen = set(indices)
    return [
        sum(1 for a in chosen if (b := (2 * p - a) % parties) != a and b in chosen)
        for p in range(parties)
    ]


def _exit(code, want):
    return [] if code == want else [f"exit {code}, expected {want}"]


def _spans(payload, want):
    """Compare per-party span dimensions with ``want`` (a list, or None for
    the full d^2 - 1 at every party)."""
    got = [p["span_dim"] for p in payload["parties"]]
    if want is None:
        want = [p["required"] for p in payload["parties"]]
    short = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    if not short:
        return []
    i = short[0]
    return [
        f"span differs at {len(short)} of {len(got)} parties "
        f"(party {i}: {got[i]}, expected {want[i]})"
    ]


def expect_stable_audit(counts):
    def check(code, payload):
        problems = _exit(code, 0) + _spans(payload, None)
        audit = payload["audit"]
        if audit["disjoint"] is not True:
            problems.append("conflict sets not disjoint")
        got = audit["conflict_counts"]
        wrong = [i for i, (g, w) in enumerate(zip(got, counts)) if g != w]
        if wrong or len(got) != len(counts):
            i = wrong[0] if wrong else 0
            problems.append(
                f"conflict counts differ at {len(wrong)} of {len(counts)} parties "
                f"(party {i}: {got[i]}, expected {counts[i]})"
            )
        return problems

    return check


def expect_check(code_want, spans=None):
    def check(code, payload):
        return _exit(code, code_want) + _spans(payload, spans)

    return check


def expect_campaign(total, stable):
    def check(code, payload):
        problems = _exit(code, 0 if stable == total else 1)
        got = (payload["checked"], payload["stable"], payload["unstable"])
        want = (total, stable, total - stable)
        if got != want:
            problems.append(f"checked/stable/unstable {got}, expected {want}")
        return problems

    return check


def expect_complement(found):
    def check(code, payload):
        problems = _exit(code, 1 if found else 0)
        if payload["product_state_found"] is not found:
            problems.append(
                f"product_state_found {payload['product_state_found']} "
                f"at overlap {payload['best_overlap']!r}, expected {found}"
            )
        return problems

    return check


def _save(state_set, workdir: Path, name: str) -> str:
    path = workdir / f"{name}.json"
    states.save_set(state_set, path)
    return str(path)


def _dense(state_set):
    return states.StateSet(
        state_set.dims,
        [states.tensor_expand(s) for s in state_set.states],
        state_set.label + "-dense",
    )


def build_wide(rng, workdir):
    ops = []
    for n in (50, 100):
        family = constructions.shift_family(n, random_shift_seeds(rng, n))
        parties = 2 * n - 1
        ops.append(Op(
            f"check --audit shift_family({n}) N={parties}",
            ("check", _save(family, workdir, f"shift_family_{n}"), "--audit"),
            expect_stable_audit(shift_conflict_counts(parties, range(parties))),
            known_defect=ADMISSION_DEFECT,
            metrics=("certify_N199_s",) if n == 100 else (),
        ))
    for n in (50, 100, 200):
        plan, subset = constructions.sqrt_subset(n, random_shift_seeds(rng, n))
        ops.append(Op(
            f"check --audit sqrt_subset({n}) N={plan.parties}",
            ("check", _save(subset, workdir, f"sqrt_subset_{n}"), "--audit"),
            expect_stable_audit(shift_conflict_counts(plan.parties, plan.indices)),
            known_defect=ADMISSION_DEFECT,
            metrics=("certify_N399_s",) if n == 200 else (),
        ))
    return ops


def build_campaign(rng, workdir):
    upb6 = constructions.upb_shifts(6, random_shift_seeds(rng, 6))
    reducible = constructions.upb_44_reducible()
    return [
        Op(
            "subsets --k 8 upb_shifts(6)",
            ("subsets", _save(upb6, workdir, "upb_shifts_6"), "--k", "8"),
            expect_campaign(math.comb(12, 8), math.comb(12, 8)),
            metrics=("subset_ms",),
            units=math.comb(12, 8),
        ),
        Op(
            "subsets --k 10 upb_44_reducible",
            ("subsets", _save(reducible, workdir, "reducible44"), "--k", "10"),
            expect_campaign(math.comb(12, 10), 0),
            metrics=("subset_ms",),
            units=math.comb(12, 10),
        ),
    ]


def build_complement(rng, workdir):
    # (label, set, whether its complement holds a product state)
    searches = [
        (f"upb_shifts({n})", constructions.upb_shifts(n, random_shift_seeds(rng, n)), False)
        for n in (3, 4, 5)
    ]
    searches += [
        ("sep333", constructions.upb_sep333(), False),
        ("qubit3", constructions.upb_qubit3(), False),
        ("tiles33", constructions.upb_tiles33(), False),
        ("entangled_triple(3)", constructions.entangled_triple(3), True),
    ]
    search_seed = str(int(rng.integers(2**31)))
    ops = []
    for label, state_set, found in searches:
        ops.append(Op(
            f"complement {label}",
            ("complement", _save(state_set, workdir, label.replace("(", "_").rstrip(")")),
             "--restarts", str(RESTARTS), "--iters", str(ITERS), "--seed", search_seed),
            expect_complement(found),
            known_defect=None if found else SEESAW_DEFECT,
            metrics=("restart_ms", "search_N9_s") if label == "upb_shifts(5)" else ("restart_ms",),
            units=RESTARTS,
        ))
    return ops


def build_dense(rng, workdir):
    ops = []
    for n in (6, 7):
        upb = _dense(constructions.upb_shifts(n, random_shift_seeds(rng, n)))
        ops.append(Op(
            f"check dense upb_shifts({n}) D={upb.total_dimension}",
            ("check", _save(upb, workdir, f"dense_upb_shifts_{n}")),
            expect_check(0),
            metrics=("certify_D8192_s",) if n == 7 else (),
        ))
    ops.append(Op(
        "check dense upb_44_reducible",
        ("check", _save(_dense(constructions.upb_44_reducible()), workdir, "dense_reducible44")),
        expect_check(1, [14, 14]),
    ))
    ops.append(Op(
        "check dense sep333",
        ("check", _save(_dense(constructions.upb_sep333()), workdir, "dense_sep333")),
        expect_check(0),
    ))
    ops.append(Op(
        "check entangled_triple(14)",
        ("check", _save(constructions.entangled_triple(14), workdir, "triple_14")),
        expect_check(0, [3] * 14),
    ))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wide",
            "a few very large product sets (N up to 399): Gram, orthogonality and "
            "admission cost and memory grow as P*l^2",
            build_wide,
            "certify_N199_s",
        ),
        Workload(
            "campaign",
            "the same layers in the opposite shape: hundreds of tiny certificates, "
            "where per-call overhead in span_rank shows",
            build_campaign,
            "subset_ms",
        ),
        Workload(
            "complement",
            "see-saw searches that bypass admission and span_rank: the control for "
            "certification changes, the target for search changes",
            build_complement,
            "restart_ms",
        ),
        Workload(
            "dense",
            "the only workload on the dense path: bpart_decompose, block "
            "contractions and dense JSON load",
            build_dense,
            "certify_D8192_s",
        ),
    )
}
