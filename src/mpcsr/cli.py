"""Command-line front end.

Subcommands: analyze, bounds, product, csr-check, counterexample,
paper-repro.  Ensembles travel as JSON objects of the form
``{"generators": [{"rows": n, "cols": n, "entries": [[...]]}, ...]}`` with
``null`` for eps entries.  Exit codes: 0 success, 1 verification failure,
2 input or precondition error.

All output is rendered by a deterministic JSON writer: every number is
converted to the nearest float once, integral values below 1e15 print
without a decimal point, other numbers with 17 significant digits, and key
order is fixed, so identical inputs yield identical bytes.  A value beyond
the float range cannot be written and exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .bounds import AssumptionError, ambient_csr_bound, weak_csr_bound
from .counterexamples import FAMILY_IDS, build_family, verify_family
from .csr import is_csr, rank_compress, structure_matrix
from .ensemble import Ensemble, EnsembleError, build_ensemble
from .semiring import DivergenceError, MaxPlusMatrix, ShapeError, mp_power
from .trellis import Word, first_passage_weights

#: Longest family word ``counterexample`` builds: (1)^(modulus*t + offset) 2.
MAX_WORD_LETTERS = 1_000_000


def _render_string(s: str) -> str:
    return json.dumps(s, ensure_ascii=False)


def _render_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    x = float(x)  # OverflowError beyond the float range
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite number {x} cannot be serialised")
    if x.is_integer() and abs(x) < 1e15:
        return str(int(x))
    return format(x, ".17g")


def render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, int, float, Fraction)):
        return _render_number(obj)
    if isinstance(obj, str):
        return _render_string(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [inner + render_json(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            inner + _render_string(str(k)) + ": " + render_json(v, indent + 1)
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def _load_ensemble(path: str) -> Ensemble:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and an
        # integer literal past the int-string conversion limit.
        raise InputError(f"cannot read ensemble file {path}: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"cannot read ensemble file {path}: JSON nested too deeply") from exc
    if not isinstance(payload, dict) or "generators" not in payload:
        raise InputError(f"{path}: expected an object with a 'generators' list")
    try:
        gens = [MaxPlusMatrix.from_json(g) for g in payload["generators"]]
        return build_ensemble(gens)
    except (ShapeError, EnsembleError, TypeError) as exc:
        raise InputError(f"{path}: {exc}") from exc


class InputError(Exception):
    pass


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _render(payload: dict) -> str:
    try:
        return render_json(payload) + "\n"
    except (ValueError, OverflowError) as exc:
        raise InputError(f"the weights overflow floating point: {exc}") from exc


def _emit(args, payload: dict) -> None:
    text = _render(payload)
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)


def _cmd_analyze(args) -> int:
    ens = _load_ensemble(args.input)
    rep = ens.assumption_report
    payload = {
        "size": ens.size,
        "generator_count": ens.generator_count(),
        "a_sup": ens.a_sup.to_json(),
        "a_inf": ens.a_inf.to_json(),
        "b_sup": ens.b_sup.to_json(),
        "lambda_star": ens.lambda_star,
        "visualisation_vector": list(ens.visualisation_vector),
        "critical": ens.critical.to_json(),
        "assumptions": {
            "irreducible": rep.irreducible,
            "strongly_equivalent": rep.strongly_equivalent,
            "inf_equivalent": rep.inf_equivalent,
            "sup_cycle_mean_zero": rep.sup_cycle_mean_zero,
            "visualised": rep.visualised,
            "profile": rep.profile,
            "diagnostics": list(rep.diagnostics),
        },
    }
    _emit(args, payload)
    return 0


def _cmd_bounds(args) -> int:
    if args.k_max < 1:
        raise InputError(f"--k-max must be at least 1, got {args.k_max}")
    ens = _load_ensemble(args.input)
    try:
        ambient = ambient_csr_bound(ens)
        weak = weak_csr_bound(ens, args.k_max)
    except (AssumptionError, DivergenceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OverflowError as exc:
        raise InputError(f"the weights overflow floating point: {exc}") from exc
    payload = {
        "profile": ambient.profile,
        "lambda_star": ambient.lambda_star,
        "weak_bound": {
            "k": weak.k,
            "first_k": weak.first_k,
            "certified_up_to": weak.certified_up_to,
            "threshold_at_k": weak.threshold_at_k,
            "finite_pairs": weak.finite_pairs,
            "diagnostics": list(weak.diagnostics),
        },
        "ambient": {
            "bound": ambient.bound,
            "k": ambient.ambient_k,
            "schwarz_term": ambient.schwarz_term,
            "branch_connect": ambient.branch_connect_matrix().to_json(),
            "branch_avoid": ambient.branch_avoid_matrix().to_json(),
        },
    }
    _emit(args, payload)
    return 0


def _parse_word(args, ens: Ensemble) -> Word:
    try:
        word = Word.parse(args.word)
        word.validate(ens)
    except (ValueError, IndexError) as exc:
        raise InputError(str(exc)) from exc
    return word


def _cmd_product(args) -> int:
    ens = _load_ensemble(args.input)
    word = _parse_word(args, ens)
    tw = first_passage_weights(ens, word)
    payload = {
        "word": list(word.letters),
        "k": len(word),
        "product": tw.product.to_json(),
        "w_star": list(tw.w_star),
        "v_star": list(tw.v_star),
    }
    _emit(args, payload)
    return 0


def _cmd_csr_check(args) -> int:
    ens = _load_ensemble(args.input)
    word = _parse_word(args, ens)
    check = is_csr(ens, word)
    factors = rank_compress(check.terms)
    payload = {
        "word": list(word.letters),
        "k": len(word),
        "gamma": check.terms.gamma,
        "t_exponent": check.terms.t_exponent,
        "v_exponent": check.terms.v_exponent,
        "product": check.product.to_json(),
        "csr": check.csr.to_json(),
        "equal": check.equal,
        "witness": None
        if check.witness is None
        else {
            "row": check.witness[0],
            "col": check.witness[1],
            "product_value": check.product_value,
            "csr_value": check.csr_value,
        },
        "rank_bound": factors.rank_bound,
    }
    _emit(args, payload)
    if args.emit_factors:
        s = structure_matrix(ens.size, sorted(ens.critical.critical_edges))
        factor_payload = {
            "c_prime": factors.c_prime.to_json(),
            "s_power": mp_power(s, check.terms.k % check.terms.gamma).to_json(),
            "r_prime": factors.r_prime.to_json(),
            "rank_bound": factors.rank_bound,
            "representatives": [list(r) for r in factors.representatives],
        }
        _write(args.emit_factors, _render(factor_payload))
    return 0 if check.equal else 1


def _cmd_counterexample(args) -> int:
    try:
        family = build_family(args.family)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    t_min = min(cls.t_min for cls in family.word_classes)
    if args.t < t_min:
        raise InputError(f"family {family.family_id} needs --t >= {t_min}, got {args.t}")
    t_max = min((MAX_WORD_LETTERS - 1 - cls.offset) // cls.modulus for cls in family.word_classes)
    if args.t > t_max:
        raise InputError(
            f"family {family.family_id} builds words of at most {MAX_WORD_LETTERS} letters, "
            f"so --t must be at most {t_max}, got {args.t}"
        )
    report = verify_family(family, [args.t])
    classes = [
        {
            "label": check.label,
            "k": check.k,
            "equal": not check.failed_csr,
            "witnesses": [
                {
                    "row": r,
                    "col": c,
                    "product_value": pv,
                    "csr_value": cv,
                    "expected_product_value": epv,
                    "expected_csr_value": ecv,
                }
                for (r, c, pv, cv, epv, ecv) in check.witness_details
            ],
            "display_ok": check.display_ok,
            "product": check.product.to_json(),
            "csr": check.csr.to_json(),
        }
        for check in report.checks
    ]
    payload = {"family": family.family_id, "t": args.t, "classes": classes, "all_ok": report.all_ok}
    _emit(args, payload)
    return 0 if report.all_ok else 1


def _cmd_paper_repro(args) -> int:
    # Imported here so that the other subcommands do not load the dataset.
    from .demo import reproduction_checks

    items = reproduction_checks()
    payload = {
        "items": [
            {"name": it.name, "ok": it.ok, "status": it.status, "detail": it.detail}
            for it in items
        ],
        "all_ok": all(it.ok for it in items),
    }
    _emit(args, payload)
    return 0 if payload["all_ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpcsr",
        description="Max-plus CSR decompositions of inhomogeneous matrix products",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_io(p, needs_input=True):
        if needs_input:
            p.add_argument("input", help="path to an ensemble JSON file")
        p.add_argument("--output", help="write the JSON report here instead of stdout")

    p = sub.add_parser("analyze", help="validate an ensemble and report its structure")
    with_io(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("bounds", help="length thresholds for CSR structure")
    with_io(p)
    p.add_argument("--k-max", type=int, default=200, help="scan limit for the weak threshold")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("product", help="word product and first-passage weights")
    with_io(p)
    p.add_argument("--word", required=True, help="comma-separated 1-based generator indices")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("csr-check", help="compare a word product with its CSR form")
    with_io(p)
    p.add_argument("--word", required=True, help="comma-separated 1-based generator indices")
    p.add_argument("--emit-factors", help="also write the compressed factors to this path")
    p.set_defaults(func=_cmd_csr_check)

    p = sub.add_parser("counterexample", help="verify a non-CSR family at one parameter value")
    with_io(p, needs_input=False)
    p.add_argument("--family", required=True, choices=FAMILY_IDS)
    p.add_argument("--t", type=int, default=10)
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("paper-repro", help="recompute every pinned reference result")
    with_io(p, needs_input=False)
    p.set_defaults(func=_cmd_paper_repro)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, EnsembleError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
