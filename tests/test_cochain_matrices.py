"""Every cochain-level map against the product with its spec's matrix.

The face-sum kernel of ``locco.cochains`` and the index-space assembly of
``locco.homology`` are two independent presentations of the same
differentials.  On random cochains, each map here must give exactly the
matrix-vector product with ``assemble_matrix`` of the matching spec, read
through the spec's basis labels.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locco import (AugmentedColumnSpec, AugmentedRowSpec, CechPage, Integers,
                   LocalCochain, LocalComplexSpec, PrimeField, Rationals,
                   SimplicialComplexSpec, TotalCochain, TotalComplexSpec,
                   assemble_matrix, augment_local, cech_coboundary,
                   local_differential, simplicial_coboundary,
                   standard_differential, total_differential)
from locco.cli import bundled_model_names, load_bundled_model
from locco.cochains import SimplicialCochain
from locco.compare import random_cover_model

SYSTEMS = (Rationals(), Integers(), PrimeField(2), PrimeField(5))

pytestmark = pytest.mark.filterwarnings("ignore:alternating storage")


@st.composite
def cases(draw):
    """(model, rng): a bundled or seeded random cover, and a seeded draw."""
    if draw(st.booleans()):
        model = load_bundled_model(draw(st.sampled_from(bundled_model_names())))
    else:
        model = random_cover_model(random.Random(draw(st.integers(0, 10 ** 6))))
    return model, random.Random(draw(st.integers(0, 10 ** 6)))


def draw_vector(labels, system, rng, entries=8):
    """Random values on up to ``entries`` random basis labels."""
    if not labels:
        return {}
    return {labels[rng.randrange(len(labels))]: system.random_value(rng)
            for _ in range(entries)}


def product(mat, x, system, col_label=lambda label: label):
    """The matrix times ``x`` (keyed by ``col_label`` of each column), keyed
    by row label, zeros dropped."""
    out = {}
    for label, row in zip(mat.row_labels, mat.rows):
        acc = system.zero()
        for c, a in row.items():
            v = x.get(col_label(mat.col_labels[c]))
            if v is not None:
                acc = system.add(acc, system.scale(a, v))
        if not system.is_zero(acc):
            out[label] = acc
    return out


def page_labels(page):
    return {(idx, t): v for idx, func in page.components.items() for t, v in func.items()}


def page_from_labels(model, system, p, q, x):
    components = {}
    for (idx, t), v in x.items():
        components.setdefault(idx, {})[t] = v
    return CechPage(model, system, p, q, components)


@settings(max_examples=30, deadline=None)
@given(cases())
def test_local_differential_is_the_local_spec_matrix(case):
    model, rng = case
    spec = LocalComplexSpec(model)
    for system in SYSTEMS:
        for n in range(3):
            f = LocalCochain(model, system, n, draw_vector(spec.basis(n), system, rng))
            assert local_differential(f).values == product(assemble_matrix(spec, n),
                                                           f.values, system)


@settings(max_examples=30, deadline=None)
@given(cases())
def test_cech_coboundary_and_augmentation_are_the_row_spec_matrices(case):
    model, rng = case
    for q in range(2):
        spec = AugmentedRowSpec(model, q)
        for system in SYSTEMS:
            f = LocalCochain(model, system, q, draw_vector(spec.basis(0), system, rng))
            assert page_labels(augment_local(f)) == product(assemble_matrix(spec, 0),
                                                            f.values, system)
            for p in range(2):
                x = draw_vector(spec.basis(p + 1), system, rng)
                page = page_from_labels(model, system, p, q, x)
                assert page_labels(cech_coboundary(page)) == product(
                    assemble_matrix(spec, p + 1), page_labels(page), system)


@settings(max_examples=30, deadline=None)
@given(cases())
def test_total_differential_is_the_total_spec_matrix(case):
    model, rng = case
    spec = TotalComplexSpec(model)
    for system in SYSTEMS:
        for n in range(3):
            x = draw_vector(spec.basis(n), system, rng)
            pages = {p: page_from_labels(model, system, p, n - p,
                                         {(idx, t): v for (pp, idx, t), v in x.items() if pp == p})
                     for p in range(n + 1)}
            tc = TotalCochain(model, system, n, pages)
            got = {(p, idx, t): v for p, page in total_differential(tc).pages.items()
                   for (idx, t), v in page_labels(page).items()}
            stored = {(p, idx, t): v for p, page in tc.pages.items()
                      for (idx, t), v in page_labels(page).items()}
            assert got == product(assemble_matrix(spec, n), stored, system)


@settings(max_examples=30, deadline=None)
@given(cases())
def test_simplicial_coboundary_is_the_simplicial_spec_matrix(case):
    model, rng = case
    complexes = [(model.nerve().simplices, None)]
    if model.complex is not None:
        complexes += [(model.complex, model.point_key),
                      (model.u_small_subcomplex(), model.point_key)]
    for simplices, key in complexes:
        spec = SimplicialComplexSpec(simplices, key)
        for system in SYSTEMS:
            for n in range(3):
                c = SimplicialCochain(tuple(simplices), system, n,
                                      draw_vector(spec.basis(n), system, rng))
                assert simplicial_coboundary(c).values == product(
                    assemble_matrix(spec, n), c.values, system)


@settings(max_examples=30, deadline=None)
@given(cases())
def test_standard_differential_is_the_column_spec_matrix(case):
    model, rng = case
    indices = rng.choice(model.nerve().simplices)
    spec = AugmentedColumnSpec(model, indices)
    members = model.intersection(indices)
    for system in SYSTEMS:
        for k in range(3):
            # the column spec labels its coefficient copy (degree 0) by the
            # index tuple; the standard complex keys it by the empty tuple
            as_key = (lambda label: ()) if k == 0 else (lambda label: label)
            g = {as_key(label): v
                 for label, v in draw_vector(spec.basis(k), system, rng).items()
                 if not system.is_zero(v)}
            assert standard_differential(g, members, system) == product(
                assemble_matrix(spec, k), g, system, as_key)
