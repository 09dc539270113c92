"""Command-line front end.

Subcommands: construct | check | subsets | bound | complement.  Output is
JSON on stdout (or to --out); --human switches to short text summaries.
Exit codes: 0 when the checked property holds, 1 when it fails, 2 on usage
or input errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

from . import _jsonout, constructions
from .numerics import DEFAULT_TOL, Tolerance
from .stability import (
    cardinality_lower_bound,
    cardinality_upper_bounds,
    conflict_audit,
    decide_extension,
    is_locally_stable,
)
from .states import _complex_pairs, _write_set, load_set, save_set


def _sqrt_subset_set(n):
    return constructions.sqrt_subset(n)[1]


# name -> (builder, whether it is sized by --n); no builder takes a tolerance
_CONSTRUCTIONS = {
    "qubit3": (constructions.upb_qubit3, False),
    "triple": (constructions.entangled_triple, False),
    "tiles33": (constructions.upb_tiles33, False),
    "sep333": (constructions.upb_sep333, False),
    "reducible44": (constructions.upb_44_reducible, False),
    "shifts": (constructions.upb_shifts, True),
    "shift-family": (constructions.shift_family, True),
    "sqrt-subset": (_sqrt_subset_set, True),
    "appendix": (_sqrt_subset_set, True),
}

# Upper-bound kinds by the shared local dimension of the signature;
# cardinality_upper_bounds decides for which party counts each applies.
_UPPER_BOUND_KINDS = {
    2: ("qubit_upb", "qubit_subset", "qubit_sqrt"),
    3: ("qutrit_composition",),
}


def _tolerance(args) -> Tolerance:
    rank_rel = DEFAULT_TOL.rank_rel if args.tol_rank is None else args.tol_rank
    orth_abs = DEFAULT_TOL.orth_abs if args.tol_orth is None else args.tol_orth
    return Tolerance(rank_rel=rank_rel, orth_abs=orth_abs)


def _emit(args, payload: dict, human_lines, out) -> None:
    """Write ``payload`` as JSON, or ``human_lines`` under --human, to the
    path ``out``, or to stdout when it is None."""
    if args.human:
        text = "\n".join(human_lines) + "\n"
    else:
        text = _jsonout.dumps(payload) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_named(name, n, flag="--n"):
    """The named construction, sized by ``n``, the value of ``flag``, which
    an unsized construction refuses."""
    build, sized = _CONSTRUCTIONS[name]
    if not sized:
        if n is not None:
            raise ValueError(f"{flag} is not read by construction {name!r}")
        return build()
    if n is None:
        raise ValueError(f"construction {name!r} requires {flag}")
    return build(n)


def _cmd_construct(args) -> int:
    if args.name != "compose":
        for dest in ("left", "right", "left_n", "right_n", "left_index", "right_index"):
            if getattr(args, dest) is not None:
                raise ValueError(f"--{dest.replace('_', '-')} is read only by compose")
        state_set = _build_named(args.name, args.n)
    else:
        if args.n is not None:
            raise ValueError("--n is not read by compose; its operands take --left-n and --right-n")
        if args.left is None or args.right is None:
            raise ValueError("compose requires --left and --right")
        left = _build_named(args.left, args.left_n, "--left-n")
        right = _build_named(args.right, args.right_n, "--right-n")
        left_index, right_index = args.left_index or 0, args.right_index or 0
        for flag, index, operand in (
            ("--left-index", left_index, left),
            ("--right-index", right_index, right),
        ):
            if not 0 <= index < len(operand):
                raise ValueError(
                    f"{flag} {index} out of range for {operand.label} of size {len(operand)}"
                )
        state_set = constructions.compose(left, left_index, right, right_index)

    lines = [
        f"label: {state_set.label}",
        f"size:  {len(state_set)}",
        f"dims:  {','.join(str(d) for d in state_set.dims)}",
    ]
    if not args.out:
        if args.human:
            _emit(args, None, lines, None)
        else:
            # the text save_set writes, each distinct factor rendered once
            _write_set(state_set, sys.stdout)
        return 0
    # the set goes to the file; the summary goes to stdout
    save_set(state_set, args.out)
    summary = {
        "label": state_set.label,
        "size": len(state_set),
        "dims": list(state_set.dims),
        "out": args.out,
    }
    _emit(args, summary, lines + [f"out:   {args.out}"], None)
    return 0


def _certificate_lines(cert) -> list:
    lines = [f"label: {cert.label}"]
    for rec in cert.parties:
        verdict = "stable" if rec.stable else "UNSTABLE"
        lines.append(
            f"party {rec.party}: span {rec.span_dim}/{rec.required} {verdict}"
        )
    lines.append(f"overall: {'stable' if cert.stable else 'not stable'}")
    return lines


def _cmd_check(args) -> int:
    tol = _tolerance(args)
    state_set = load_set(args.input)
    if args.audit and not state_set.all_product:
        raise ValueError("--audit needs an all-product set")
    certificate = is_locally_stable(state_set, tol)
    payload = certificate.to_dict()
    lines = _certificate_lines(certificate)
    if args.audit:
        audit = conflict_audit(state_set, tol, certificate)
        payload["audit"] = audit.to_dict()
        lines.append(
            f"audit: disjoint={audit.disjoint} "
            f"counts_cover_span={audit.counts_cover_span} "
            f"size_bound_ok={audit.size_bound_ok}"
        )
    _emit(args, payload, lines, args.out)
    return 0 if certificate.stable else 1


def _cmd_subsets(args) -> int:
    tol = _tolerance(args)
    state_set = load_set(args.input)
    report = constructions.subset_campaign(
        state_set,
        args.k,
        tol,
        sample_threshold=args.threshold,
        sample_size=args.sample,
        rng_seed=args.seed,
    )
    _emit(
        args,
        report.to_dict(),
        [
            f"label:    {report.set_label}",
            f"subsets:  {report.checked} of {report.total_subsets}"
            + (" (sampled)" if report.sampled else ""),
            f"stable:   {report.stable}",
            f"unstable: {report.unstable}",
        ],
        args.out,
    )
    return 0 if report.unstable == 0 else 1


def _parse_dims(text):
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--dims expects comma-separated integers, got {text!r}") from None
    if len(dims) < 2:
        raise ValueError("--dims needs at least two parties")
    if any(d < 2 for d in dims):
        raise ValueError("every local dimension must be >= 2")
    return dims


def _cmd_bound(args) -> int:
    dims = _parse_dims(args.dims)
    report = cardinality_lower_bound(dims)
    payload = dataclasses.asdict(report)
    upper = {}
    n = len(dims)
    kinds = _UPPER_BOUND_KINDS.get(dims[0], ()) if len(set(dims)) == 1 else ()
    for kind in kinds:
        try:
            upper[kind] = cardinality_upper_bounds(n, kind)
        except ValueError:
            pass
    if "qutrit_composition" in upper:
        upper["qutrit_formula"] = 5.0 * n / 3.0 + 2.0
    if upper:
        payload["upper_bounds"] = upper
    lines = [
        f"dims:               {','.join(str(d) for d in dims)}",
        f"required span sum:  {report.required_span_total}",
        f"minimum size:       {report.min_size}",
        f"closed form:        {report.closed_form:.6f}",
        f"trivial UPB bound:  {report.trivial_upb_bound}",
    ]
    for key, value in upper.items():
        lines.append(f"{key}: {value}")
    _emit(args, payload, lines, args.out)
    return 0


def _cmd_complement(args) -> int:
    tol = _tolerance(args)
    state_set = load_set(args.input)
    report = decide_extension(
        state_set, tol, restarts=args.restarts, iters=args.iters, rng_seed=args.seed
    )
    witness = report.witness
    payload = {
        "label": report.label,
        "method": report.method,
        "verdict": report.verdict,
        "product_state_found": report.verdict == "extendible",
        "witness": None if witness is None else [_complex_pairs(f) for f in witness.factors],
        "groups": None if report.groups is None else [list(g) for g in report.groups],
        "capacities": None if report.capacities is None else list(report.capacities),
        "nodes": report.nodes,
    }
    lines = [f"label:      {report.label}", f"verdict:    {report.verdict}"]
    if report.method != "partition":
        lines.insert(1, f"method:     {report.method}")
    if report.capacities is not None:
        lines += [
            f"capacities: {sum(report.capacities)} for {len(state_set)} states",
            f"nodes:      {report.nodes}",
        ]
    search = report.search
    if search is not None:
        payload.update(
            restarts=args.restarts,
            iters=args.iters,
            seed=args.seed,
            residual=1.0 - search.overlap,
            sweeps=search.sweeps,
            capped=search.capped,
        )
        lines += [
            f"residual:   {1.0 - search.overlap:.3e}",
            f"sweeps:     {search.sweeps}{' (capped)' if search.capped else ''}",
        ]
    _emit(args, payload, lines, args.out)
    return 0 if report.verdict == "unextendible" else 1


def _common_flags(parser, tolerance=True, seed=False):
    """--out and --human, plus the tolerance and seed flags if read."""
    if tolerance:
        parser.add_argument("--tol-rank", type=float, default=None,
                            help="relative rank cutoff (default 1e-8)")
        parser.add_argument("--tol-orth", type=float, default=None,
                            help="absolute orthogonality cutoff (default 1e-10)")
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="rng seed")
    parser.add_argument("--out", default=None, help="write output to this path")
    parser.add_argument("--human", action="store_true",
                        help="text summary instead of JSON")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``locstab`` parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="locstab",
        description="Construct orthogonal state sets and certify local stability.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="emit a named state set")
    p_construct.add_argument("name", choices=tuple(_CONSTRUCTIONS) + ("compose",))
    p_construct.add_argument("--n", type=int, default=None,
                             help="family size parameter for sized constructions")
    p_construct.add_argument("--left", choices=tuple(_CONSTRUCTIONS),
                             default=None, help="left operand for compose")
    p_construct.add_argument("--right", choices=tuple(_CONSTRUCTIONS),
                             default=None, help="right operand for compose")
    p_construct.add_argument("--left-n", type=int, default=None)
    p_construct.add_argument("--right-n", type=int, default=None)
    p_construct.add_argument("--left-index", type=int, default=None)
    p_construct.add_argument("--right-index", type=int, default=None)
    _common_flags(p_construct, tolerance=False)
    p_construct.set_defaults(func=_cmd_construct)

    p_check = sub.add_parser("check", help="certify local stability of a set file")
    p_check.add_argument("input", help="state-set JSON file")
    p_check.add_argument("--audit", action="store_true",
                         help="add the conflict-set counting audit")
    _common_flags(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_subsets = sub.add_parser("subsets", help="stability sweep over k-subsets")
    p_subsets.add_argument("input", help="state-set JSON file")
    p_subsets.add_argument("--k", type=int, required=True, help="subset size")
    p_subsets.add_argument("--sample", type=int, default=10**4,
                           help="sample size once the subset count passes --threshold")
    p_subsets.add_argument("--threshold", type=int, default=10**6,
                           help="exhaustive-enumeration limit")
    _common_flags(p_subsets, seed=True)
    p_subsets.set_defaults(func=_cmd_subsets)

    p_bound = sub.add_parser("bound", help="size bounds for a signature")
    p_bound.add_argument("--dims", required=True,
                         help="comma-separated local dimensions, e.g. 2,2,2")
    _common_flags(p_bound, tolerance=False)
    p_bound.set_defaults(func=_cmd_bound)

    p_complement = sub.add_parser(
        "complement",
        help="decide whether a product state lies in the set's orthogonal complement",
    )
    p_complement.add_argument("input", help="state-set JSON file")
    p_complement.add_argument("--restarts", type=int, default=50,
                              help="see-saw restarts, for sets no exact rule decides")
    p_complement.add_argument("--iters", type=int, default=200,
                              help="see-saw sweeps per restart, for sets no exact rule decides")
    _common_flags(p_complement, seed=True)
    p_complement.set_defaults(func=_cmd_complement)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # every input error: bad flags, unreadable or malformed files,
        # empty or non-orthogonal sets
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a set too large for this host's memory is an input error too
        detail = f": {exc}" if str(exc) else ""
        print(f"error: not enough memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
