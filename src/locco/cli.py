"""Command-line front end: JSON reports over the library pipelines.

Reports are deterministic: sorted keys, no timestamps, seeded randomness.
Exit codes: 0 all checks passed, 1 a check failed, 2 bad input or config,
3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from functools import lru_cache
from importlib import resources
from pathlib import Path

from . import __version__
from .bicomplex import (PartitionFamily, contraction_defect, family_from_json,
                        first_hit_family, random_page, random_unity_family)
from .coeff import parse_system
from .compare import (colimit_scan, model_hash, verify_lambda_iso,
                      verify_local_vs_cech)
from .errors import BudgetError, LoccoError
from .homology import (CechComplexSpec, LocalComplexSpec,
                       SimplicialComplexSpec, TotalComplexSpec,
                       cohomology_profile)
from .model import CoverModel, load_model, model_from_json_dict
from .loopfill import (DEFAULT_PATH_SAMPLES, linear_contraction, path_battery,
                       sigma_fill, vector_battery)
from .pou import (arc_cover_family, ball_family, circle_domain, product_family,
                  refines_supports, rescue_partition)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


# ---------------------------------------------------------------------------
# bundled models


def bundled_model_names() -> list:
    base = resources.files("locco.models")
    return sorted(p.name[:-5] for p in base.iterdir() if p.name.endswith(".json"))


def load_bundled_model(name: str) -> CoverModel:
    base = resources.files("locco.models")
    doc = json.loads(base.joinpath(name + ".json").read_text(encoding="utf-8"))
    return model_from_json_dict(doc, name=name)


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (result document, passed flag or None)


_SPEC_BUILDERS = {
    "local": lambda m: LocalComplexSpec(m),
    "cech": lambda m: CechComplexSpec(m),
    "total": lambda m: TotalComplexSpec(m),
    "simplicial": lambda m: SimplicialComplexSpec(m.complex, m.point_key),
    "nerve": lambda m: SimplicialComplexSpec(m.nerve().simplices),
}


def _profile_doc(profile) -> dict:
    out = {}
    for n, entry in enumerate(profile):
        if isinstance(entry, tuple):
            free, torsion = entry
            out[str(n)] = {"rank": free, "torsion": [int(t) for t in torsion]}
        else:
            out[str(n)] = {"rank": entry, "torsion": []}
    return out


def _cmd_cohomology(args) -> tuple:
    model = load_model(args.model)
    system = parse_system(args.coeff)
    spec = _SPEC_BUILDERS[args.complex](model)
    profile = cohomology_profile(spec, system, args.max_degree)
    doc = {
        "model": {"name": model.name, "hash": model_hash(model)},
        "complex": args.complex,
        "coefficients": system.name,
        "profile": _profile_doc(profile),
    }
    return doc, None


def _parse_scan(text: str) -> tuple:
    m = None
    radii = []
    for part in text.split(","):
        key, _, val = part.partition("=")
        if key == "m":
            m = int(val)
        elif key == "k":
            if ".." in val:
                lo, hi = val.split("..")
                radii = list(range(int(lo), int(hi) + 1))
            else:
                radii = [int(val)]
        else:
            raise ValueError(f"unknown scan key {key!r}")
    if m is None or not radii:
        raise ValueError("scan needs m=<order>,k=<lo>..<hi>")
    return m, radii


def _cmd_compare(args) -> tuple:
    system = parse_system(args.coeff)
    doc: dict = {}
    passed = True
    if args.scan:
        m, radii = _parse_scan(args.scan)
        reports = colimit_scan(m, radii, system, args.max_degree)
        doc["scan"] = [r.to_json_dict() for r in reports]
        passed = passed and all(r.isomorphic for r in reports)
        if args.model is None:
            return doc, passed
    if args.model is None:
        raise ValueError("compare needs a model or a --scan")
    model = load_model(args.model)
    report = verify_local_vs_cech(model, system, args.max_degree, seed=args.seed)
    doc["comparison"] = report.to_json_dict()
    passed = passed and report.isomorphic
    if args.lambda_iso:
        lam = verify_lambda_iso(model, system, args.max_degree)
        doc["restriction"] = lam.to_json_dict()
        passed = passed and lam.isomorphic
    return doc, passed


def _contraction_family(model: CoverModel, q: int, spec: str) -> PartitionFamily:
    if spec == "first-hit":
        return first_hit_family(model, q)
    if spec.startswith("random:"):
        return random_unity_family(model, q, random.Random(int(spec.split(":", 1)[1])))
    if spec.startswith("file:"):
        with open(spec.split(":", 1)[1], "r", encoding="utf-8") as fh:
            return family_from_json(model, json.load(fh))
    raise ValueError(f"unknown family spec {spec!r}")


def _page_counterexample(diff) -> dict:
    for ivec in sorted(diff.components):
        func = diff.components[ivec]
        for t in sorted(func, key=diff.model.point_key):
            if not diff.system.is_zero(func[t]):
                return {"indices": list(ivec), "tuple": list(t),
                        "value": diff.system.value_to_json(func[t])}
    return {}


def _cmd_verify_contraction(args) -> tuple:
    model = load_model(args.model)
    system = parse_system(args.coeff)
    p, q = (int(x) for x in args.pq.split(","))
    family = _contraction_family(model, q, args.family)
    page = random_page(model, system, p, q, random.Random(args.seed))
    diff = contraction_defect(page, family)
    ok = diff.is_zero()
    doc = {
        "model": {"name": model.name, "hash": model_hash(model)},
        "bidegree": [p, q],
        "family": family.label,
        "coefficients": system.name,
        "identity": "coboundary-contraction homotopy equals the identity",
        "passed": bool(ok),
    }
    if not ok:
        doc["counterexample"] = _page_counterexample(diff)
    return doc, ok


def _parse_carrier(text: str) -> tuple:
    """``Rd:<dim>`` with dim >= 1, or ``path[:<samples>]`` with samples >= 2."""
    kind, sep, size = text.partition(":")
    if kind not in ("Rd", "path") or (kind == "Rd" and not sep):
        raise ValueError(f"unknown carrier {text!r}; use Rd:<dim> or path[:<samples>]")
    if kind == "path" and not sep:
        return kind, DEFAULT_PATH_SAMPLES
    least = 1 if kind == "Rd" else 2
    try:
        value = int(size)
    except ValueError:
        value = None
    if value is None or value < least:
        raise ValueError(f"carrier {text!r} needs an integer of at least {least} after the colon")
    return kind, value


def _check_tolerance(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"--tol must be finite and nonnegative, got {tol}")


def _cmd_sigma_check(args) -> tuple:
    kind, size = _parse_carrier(args.carrier)
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    _check_tolerance(args.tol)
    if kind == "Rd":
        reports = vector_battery(size, args.n, args.seed, trials=args.samples,
                                 tol=args.tol)
    else:
        reports = path_battery(args.n, args.seed, samples=size,
                               trials=max(1, args.samples // 10), tol=max(args.tol, 1e-9))
    worst = max(r.max_deviation for r in reports)
    ok = all(r.passed for r in reports)
    doc = {
        "carrier": args.carrier,
        "max_simplex_size": args.n,
        "checks": [r.to_json_dict() for r in reports],
        "worst_deviation": worst,
        "passed": bool(ok),
    }
    return doc, ok


def _cmd_sigma_eval(args) -> tuple:
    if args.input == "-":
        doc_in = json.load(sys.stdin)
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            doc_in = json.load(fh)
    if not isinstance(doc_in, dict):
        raise ValueError("the sigma-eval input must be a JSON object {n, vertices, weights}")
    n = doc_in["n"]
    vertices = doc_in["vertices"]
    weights = doc_in["weights"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    if not isinstance(vertices, list) or not isinstance(weights, list):
        raise ValueError("vertices and weights must be JSON lists")
    if not all(isinstance(v, list) and all(isinstance(x, (int, float)) for x in v)
               for v in vertices):
        raise ValueError("each vertex must be a list of numbers")
    if len(vertices) != n + 1 or len(weights) != n + 1:
        raise ValueError(f"need {n + 1} vertices and weights for level {n}")
    value = sigma_fill(linear_contraction(), vertices, weights)
    doc = {
        "n": n,
        "contraction": "linear",
        "value": [float(x) for x in value],
    }
    return doc, None


def _cmd_pou_check(args) -> tuple:
    _check_tolerance(args.tol)
    kind, _, size = args.domain.partition(":")
    if kind != "circle":
        raise ValueError(f"unknown domain {args.domain!r}")
    domain = circle_domain(int(size))
    ckind, _, csize = args.cover.partition(":")
    if ckind != "arcs":
        raise ValueError(f"unknown cover {args.cover!r}")
    base = arc_cover_family(domain, int(csize))

    name, _, params = args.construction.partition(":")
    opts = {}
    for part in params.split(",") if params else []:
        key, _, val = part.partition("=")
        opts[key] = val
    if name == "rescue":
        family = rescue_partition(base, n_max=int(opts.get("n_max", 8)))
        refined = refines_supports(family, base)
    elif name == "product":
        family = product_family(base, int(opts.get("q", 1)))
        refined = None
    elif name == "ball":
        family = ball_family(domain, float(opts.get("eps", 0.25)))
        refined = None
    else:
        raise ValueError(f"unknown construction {args.construction!r}")

    rep = family.report()
    ok = (rep["max_sum_deviation"] <= args.tol and rep["uncovered_samples"] == 0
          and refined is not False)
    doc = {
        "domain": args.domain,
        "cover": args.cover,
        "construction": args.construction,
        "report": rep,
        "tolerance": args.tol,
        "passed": bool(ok),
    }
    if refined is not None:
        doc["supports_refine_cover"] = bool(refined)
    return doc, ok


def _cmd_examples(args) -> tuple:
    catalog = []
    for name in bundled_model_names():
        model = load_bundled_model(name)
        catalog.append({
            "name": name,
            "source": "bundled",
            "points": len(model.points),
            "cover_sets": len(model.cover),
            "simplices": len(model.complex) if model.complex else 0,
            "hash": model_hash(model),
        })
    if args.extra_dir:
        for path in sorted(Path(args.extra_dir).glob("*.json")):
            model = load_model(str(path))
            catalog.append({
                "name": model.name,
                "source": str(path),
                "points": len(model.points),
                "cover_sets": len(model.cover),
                "simplices": len(model.complex) if model.complex else 0,
                "hash": model_hash(model),
            })
    return {"models": catalog}, None


# ---------------------------------------------------------------------------
# wiring


class _UsageError(Exception):
    """A command line the parser rejected, with the (sub)parser that did."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(f"{parser.prog}: error: {message}")
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """Argument parser that raises on a usage error instead of exiting, so
    the error is reported as a JSON document like any other."""

    def error(self, message):
        raise _UsageError(self, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="locco",
        description="Cohomology of finite cover models: local, nerve and "
                    "total complexes, contraction identities, simplex "
                    "fillers and partition-of-unity constructions.")
    parser.add_argument("--output", default=None, help="write the report JSON here")
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cohomology", help="profile of one complex on a model")
    p.add_argument("model")
    p.add_argument("--complex", choices=sorted(_SPEC_BUILDERS), default="local")
    p.add_argument("--coeff", default="Q", help="Q, Z, or Zp:<p>")
    p.add_argument("--max-degree", type=int, default=1)
    p.set_defaults(handler=_cmd_cohomology)

    p = sub.add_parser("compare", help="profiles of several complexes must agree")
    p.add_argument("model", nargs="?", default=None)
    p.add_argument("--coeff", default="Q")
    p.add_argument("--max-degree", type=int, default=1)
    p.add_argument("--lambda", dest="lambda_iso", action="store_true",
                   help="also certify the restriction map to simplicial cochains")
    p.add_argument("--scan", default=None, help="cyclic scan, e.g. m=12,k=1..3")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("verify-contraction", help="homotopy identity at one bidegree")
    p.add_argument("model")
    p.add_argument("--family", default="first-hit",
                   help="first-hit, random:<seed>, or file:<family.json>")
    p.add_argument("--coeff", default="Q")
    p.add_argument("--pq", default="1,0", help="bidegree p,q")
    p.set_defaults(handler=_cmd_verify_contraction)

    p = sub.add_parser("sigma-check", help="simplex-filler property battery")
    p.add_argument("--carrier", default="Rd:2", help="Rd:<dim> or path[:samples]")
    p.add_argument("--n", type=int, default=3, help="largest simplex size")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(handler=_cmd_sigma_check)

    p = sub.add_parser("sigma-eval", help="evaluate the linear filler once")
    p.add_argument("--input", default="-", help="JSON {n, vertices, weights}; - for stdin")
    p.set_defaults(handler=_cmd_sigma_eval)

    p = sub.add_parser("pou-check", help="partition-of-unity construction sweep")
    p.add_argument("--domain", default="circle:10000")
    p.add_argument("--cover", default="arcs:3")
    p.add_argument("--construction", default="rescue",
                   help="rescue, product:q=1, or ball:eps=0.25")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(handler=_cmd_pou_check)

    p = sub.add_parser("examples", help="catalog of bundled models")
    p.add_argument("--extra-dir", default=None)
    p.set_defaults(handler=_cmd_examples)

    return parser


@lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of :func:`run`, built on first use and kept; parsing does
    not change it, so one build serves every call in the process."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except _UsageError as exc:
        # usage text for people on stderr, the error document on stdout
        sys.stderr.write(exc.parser.format_usage())
        _emit({"command": exc.parser.prog.partition(" ")[2] or None, "version": __version__,
               "error": {"kind": "usage", "message": str(exc)}}, None)
        return EXIT_USAGE
    try:
        if getattr(args, "max_degree", 0) < 0:
            raise ValueError(f"--max-degree must be nonnegative, got {args.max_degree}")
        result, passed = args.handler(args)
    except BudgetError as exc:
        _emit({"command": args.command, "version": __version__,
               "error": {"kind": "budget", "message": str(exc)}}, args.output)
        return EXIT_BUDGET
    except json.JSONDecodeError as exc:
        _emit({"command": args.command, "version": __version__,
               "error": {"kind": "parse", "message": str(exc),
                         "line": exc.lineno, "column": exc.colno}}, args.output)
        return EXIT_USAGE
    except (LoccoError, ValueError, OSError, KeyError) as exc:
        _emit({"command": args.command, "version": __version__,
               "error": {"kind": type(exc).__name__, "message": str(exc)}},
              args.output)
        return EXIT_USAGE
    doc = {"command": args.command, "version": __version__, "seed": args.seed,
           "result": result}
    if passed is not None:
        doc["passed"] = bool(passed)
    _emit(doc, args.output)
    return EXIT_PASS if passed in (None, True) else EXIT_FAIL


def _emit(doc: dict, output) -> None:
    blob = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(blob)
    else:
        sys.stdout.write(blob)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
