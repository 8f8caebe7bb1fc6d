"""The three workloads: model files written at set-up and the jobs run on them.

A job is one user-level certification: one or a few ``locco`` command lines
on one model file, each with the argv a user would type, plus the oracle
check for each report.  ``prepare`` writes every model file a workload needs
and returns its job list; it is also run on its own, in a fresh interpreter,
to time set-up (``python3 certbench/workloads.py <workload> <seed> <dir>``).
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import oracle
from oracle import CIRCLE, POINT, RP2

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BUNDLED_DIR = SRC / "locco" / "models"

WORKLOADS = ("field_ladder", "integer_certify", "gate_mix")


@dataclass
class Call:
    argv: list
    check: Callable[[dict], list]


@dataclass
class Job:
    name: str
    kind: str          # job kinds are smoke-tested separately
    rung: int          # total size of the cover sets; the smoke pass runs the smallest
    calls: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# model documents, written without locco


def cyclic_doc(m: int, k: int) -> dict:
    """Radius-k arcs around every element of Z/m, with the m-cycle as complex.

    For the rungs used here every nonempty intersection of arcs is an arc, so
    the cover is good and the nerve, like the cycle, is a circle.
    """
    cover = [{"name": f"U{g}", "members": sorted((g + d) % m for d in range(-k, k + 1))}
             for g in range(m)]
    edges = {tuple(sorted((g, (g + 1) % m))) for g in range(m)}
    simplices = [[v] for v in range(m)] + [list(e) for e in sorted(edges)]
    return {"name": f"cyc{m}_{k}", "points": list(range(m)), "cover": cover,
            "complex": simplices}


# Shapes of the seeded random covers: (points, set sizes).  Every seed draws
# the same shapes and only the memberships differ, so the cost of a pass moves
# little from seed to seed while the nerves still vary.
RANDOM_SHAPES = (
    (8, (4, 4, 3, 3)), (8, (4, 4, 4)), (8, (5, 3, 2, 2)), (8, (4, 4, 4, 2)),
    (8, (5, 4, 3)), (7, (5, 4, 2)), (8, (4, 4, 3, 2)), (6, (5, 3, 3)),
    (8, (5, 4, 2, 2)), (7, (4, 4, 3, 3)),
)
RANDOM_MODELS = 20


def random_cover_doc(rng: random.Random, n: int, sizes: tuple, name: str) -> dict:
    """Cover of n integer points by sets of the given sizes, covering them all."""
    points = list(range(n))
    sets = [set() for _ in sizes]
    order = points[:]
    rng.shuffle(order)
    for p in order:
        room = [i for i, s in enumerate(sets) if len(s) < sizes[i]]
        sets[rng.choice(room)].add(p)
    for i, s in enumerate(sets):
        spare = [p for p in points if p not in s]
        s.update(rng.sample(spare, sizes[i] - len(s)))
    return {"name": name, "points": points,
            "cover": [{"name": f"U{i}", "members": sorted(s)} for i, s in enumerate(sets)]}


def bundled_doc(name: str) -> dict:
    return json.loads((BUNDLED_DIR / f"{name}.json").read_text(encoding="utf-8"))


# Bundled models: the space their nerve presents (local, Cech and total
# cochains) and the space of their cover-small simplicial subcomplex.
BUNDLED = {
    "interval": (POINT, POINT),
    "triangle": (POINT, POINT),
    "hexagon": (CIRCLE, CIRCLE),
    "z6_arcs": (CIRCLE, CIRCLE),
    "z12_arcs": (CIRCLE, CIRCLE),
    "projective_plane": (POINT, RP2),
}


# ---------------------------------------------------------------------------
# call builders


def _exp(space, coeff, deg):
    return oracle.expected_profile(space, coeff, deg)


def cohomology_call(path, coeff, deg, space, complex_="local"):
    argv = ["cohomology", path, "--complex", complex_, "--coeff", coeff,
            "--max-degree", str(deg)]
    return Call(argv, partial(oracle.check_cohomology, expected=_exp(space, coeff, deg)))


def compare_call(path, coeff, deg, seed, nerve_space=None, simplicial_space=None,
                 nerve_profile=None, lambda_ranks=None):
    """``compare`` over one coefficient system.

    The expected local, Cech and total profiles come from ``nerve_space``
    (closed form) or ``nerve_profile`` (computed from the cover's nerve).
    """
    argv = ["--seed", str(seed), "compare", path, "--coeff", coeff,
            "--max-degree", str(deg)]
    if lambda_ranks is not None:
        argv.append("--lambda")
    profile = nerve_profile if nerve_profile is not None else _exp(nerve_space, coeff, deg)
    expected = {"local": profile, "cech": profile, "total": profile}
    if simplicial_space is not None:
        expected["simplicial"] = _exp(simplicial_space, coeff, deg)
    return Call(argv, partial(oracle.check_compare, expected=expected,
                              induced=lambda_ranks))


# ---------------------------------------------------------------------------
# workloads


def cover_size(doc: dict) -> int:
    return sum(len(c["members"]) for c in doc["cover"])


def _write(workdir: Path, doc: dict) -> str:
    path = workdir / f"{doc['name']}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# (m, k, coefficients) of local complexes up to degree 2
LADDER_LOCAL = ((12, 2, "Q"), (12, 2, "Zp:5"), (14, 2, "Q"), (14, 2, "Zp:5"))
# (m, k) of total complexes up to degree 1, over Q
LADDER_TOTAL = ((24, 2), (15, 3))
# (m, k, coefficients) of compare --lambda up to degree 1
LADDER_LAMBDA = ((10, 2, "Q"), (12, 2, "Zp:5"))


def field_ladder(seed: int, workdir: Path) -> list:
    jobs = []
    paths = {}

    def model(m, k):
        if (m, k) not in paths:
            paths[m, k] = _write(workdir, cyclic_doc(m, k))
        return paths[m, k]

    for m, k, coeff in LADDER_LOCAL:
        jobs.append(Job(f"local-{coeff}-cyc{m}_{k}", "local", m * (2 * k + 1),
                        [cohomology_call(model(m, k), coeff, 2, CIRCLE)]))
    for m, k in LADDER_TOTAL:
        jobs.append(Job(f"total-Q-cyc{m}_{k}", "total", m * (2 * k + 1),
                        [cohomology_call(model(m, k), "Q", 1, CIRCLE, "total")]))
    for m, k, coeff in LADDER_LAMBDA:
        jobs.append(Job(f"lambda-{coeff}-cyc{m}_{k}", "lambda", m * (2 * k + 1),
                        [compare_call(model(m, k), coeff, 1, seed, CIRCLE, CIRCLE,
                                      lambda_ranks=(1, 1))]))
    return jobs


def integer_certify(seed: int, workdir: Path) -> list:
    docs = {"cyc": cyclic_doc(8, 1), "hexagon": bundled_doc("hexagon"),
            "z12": bundled_doc("z12_arcs"), "rp2": bundled_doc("projective_plane")}
    size = {key: cover_size(doc) for key, doc in docs.items()}
    cyc, hexagon, z12, rp2 = (_write(workdir, docs[key])
                              for key in ("cyc", "hexagon", "z12", "rp2"))
    return [
        Job("compare-Z-cyc8_1", "compare", size["cyc"],
            [compare_call(cyc, "Z", 1, seed, CIRCLE, CIRCLE)]),
        Job("hexagon-Z-local", "local", size["hexagon"],
            [compare_call(hexagon, "Z", 1, seed, CIRCLE, CIRCLE),
             cohomology_call(hexagon, "Z", 2, CIRCLE)]),
        Job("hexagon-Z-total", "total", size["hexagon"],
            [cohomology_call(hexagon, "Z", 2, CIRCLE, "total")]),
        Job("z12_arcs-Z-local", "local", size["z12"],
            [cohomology_call(z12, "Z", 1, CIRCLE)]),
        # the projective-plane torsion rides on a comparison of the same model
        Job("projective_plane-Z", "torsion", size["rp2"],
            [compare_call(rp2, "Z", 1, seed, POINT, RP2),
             cohomology_call(rp2, "Z", 2, RP2, "simplicial")]),
    ]


CONTRACTION_BIDEGREES = ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1))


def _sigma_eval_call(rng: random.Random, workdir: Path, n: int, dim: int) -> Call:
    vertices = [[round(rng.uniform(-2.0, 2.0), 6) for _ in range(dim)]
                for _ in range(n + 1)]
    raw = [rng.randint(1, 9) for _ in range(n + 1)]
    weights = [w / sum(raw) for w in raw]
    payload = workdir / f"sigma-eval-{n}.json"
    payload.write_text(json.dumps({"n": n, "vertices": vertices, "weights": weights}),
                       encoding="utf-8")
    return Call(["sigma-eval", "--input", str(payload)],
                partial(oracle.check_sigma_eval, vertices=vertices, weights=weights))


def gate_mix(seed: int, workdir: Path) -> list:
    rng = random.Random(seed)
    jobs = []
    for j in range(RANDOM_MODELS):
        n, sizes = RANDOM_SHAPES[j % len(RANDOM_SHAPES)]
        doc = random_cover_doc(rng, n, sizes, f"random{j}")
        path = _write(workdir, doc)
        members = [c["members"] for c in doc["cover"]]
        jobs.append(Job(f"compare-{doc['name']}", "random", cover_size(doc), [
            compare_call(path, coeff, 2, seed,
                         nerve_profile=oracle.nerve_profile(members, coeff, 2))
            for coeff in ("Q", "Zp:5")]))
    for name, (nerve_space, simp_space) in BUNDLED.items():
        doc = bundled_doc(name)
        path = _write(workdir, doc)
        calls = [compare_call(path, coeff, 2, seed, nerve_space, simp_space)
                 for coeff in ("Q", "Zp:5")]
        if name == "hexagon":
            calls.append(compare_call(path, "Q", 1, seed, nerve_space, simp_space,
                                      lambda_ranks=(1, 1)))
        if name == "projective_plane":
            calls += [cohomology_call(path, coeff, 2, RP2, "simplicial")
                      for coeff in ("Z", "Q", "Zp:2")]
        # the contraction identities are millisecond checks; they ride along
        for p, q in CONTRACTION_BIDEGREES:
            for family in ("first-hit", f"random:{seed * 100 + p * 10 + q}"):
                calls.append(Call(["--seed", str(seed), "verify-contraction", path,
                                   "--family", family, "--pq", f"{p},{q}"],
                                  oracle.check_passed))
        jobs.append(Job(f"gate-{name}", "bundled", cover_size(doc), calls))
    jobs.append(Job("scan-m12", "scan", 0, [
        Call(["compare", "--scan", "m=12,k=1..2", "--coeff", "Q", "--max-degree", "1"],
             partial(oracle.check_scan, expected=_exp(CIRCLE, "Q", 1)))]))
    sigma = [Call(["--seed", str(seed), "sigma-check", "--carrier", "Rd:3", "--n", "4",
                   "--samples", "500"], oracle.check_sigma_check),
             Call(["--seed", str(seed), "sigma-check", "--carrier", "path:257", "--n", "3"],
                  oracle.check_sigma_check)]
    sigma += [_sigma_eval_call(rng, workdir, n, 3) for n in (1, 2, 3)]
    jobs.append(Job("sigma-battery", "sigma", 0, sigma))
    jobs.append(Job("pou-sweep", "pou", 0, [
        Call(["pou-check", "--domain", "circle:10000", "--cover", "arcs:3",
              "--construction", c], oracle.check_pou)
        for c in ("rescue", "product:q=1", "ball:eps=0.25")]))
    return jobs


def prepare(workload: str, seed: int, workdir: Path) -> list:
    """Import the program, write the workload's model files, return its jobs."""
    import locco.cli  # noqa: F401  -- the import every job needs, paid at set-up
    workdir.mkdir(parents=True, exist_ok=True)
    builder = {"field_ladder": field_ladder, "integer_certify": integer_certify,
               "gate_mix": gate_mix}[workload]
    return builder(seed, workdir)


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
