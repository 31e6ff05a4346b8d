"""Hypothesis properties of detection and the soliton solve under frame
rotation: the recovered constants and every soliton verdict are invariants
of the geometry, not of the frame it is written in."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import layers, milnor, random_rotation, rotate_algebra
from cotton3 import (
    curvature,
    detect_structure,
    from_kenmotsu_params,
    from_nonunimodular,
    levi_civita,
    soliton_existence_survey,
)
from cotton3.soliton import SolitonProblem, solve

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

coeff = st.floats(-3.0, 3.0)
rotations = st.integers(0, 2**32 - 1).map(lambda s: random_rotation(np.random.default_rng(s)))
# (algebra, lambda, |b| = |c|) of the three families with a structure
structures = st.one_of(
    st.floats(0.05, 5.0).map(lambda lam: (from_kenmotsu_params(lam, 0.0, 0.0), lam, 0.0)),
    coeff.map(lambda b: (from_kenmotsu_params(1.0, b, b), 1.0, abs(b))),
    st.tuples(coeff, coeff).map(
        lambda ab: (from_nonunimodular(*ab), math.hypot(ab[0] - 1.0, ab[1]), 0.0)
    ),
)
algebras = st.one_of(
    st.builds(milnor, coeff, coeff, coeff),
    st.builds(from_nonunimodular, coeff, coeff),
    structures.map(lambda case: case[0]),
)
entries = st.lists(st.floats(-1.5, 1.5), min_size=9, max_size=9)


def detect(L):
    conn = levi_civita(L)
    return detect_structure(L, conn, curvature(L, conn))


def verdicts(sol):
    return sol.classification, sol.feasible, sol.rank, sol.family_dim


@PROPERTY
@given(structures, rotations)
def test_recovers_lam_b_c_under_rotation(case, P):
    L, lam, bc = case
    ak = detect(rotate_algebra(L, P))
    # as b -> 0 the two Reeb fields of (1, b, b) merge into a double root,
    # which float64 resolves only to about sqrt(eps) ~ 1.5e-8
    t = 1e-7 * (1.0 + lam + bc)
    assert abs(ak.lam - lam) <= t
    assert abs(abs(ak.b) - bc) <= t
    assert abs(abs(ak.c) - bc) <= t


@PROPERTY
@given(structures, rotations)
def test_survey_verdicts_are_frame_independent(case, P):
    want = soliton_existence_survey(detect(case[0]))
    got = soliton_existence_survey(detect(rotate_algebra(case[0], P)))
    for name, sol in want.items():
        assert verdicts(got[name]) == verdicts(sol)


@PROPERTY
@given(algebras, entries, rotations)
def test_general_ansatz_verdicts_are_frame_independent(L, vals, P):
    # the span of the whole frame does not depend on the frame
    B = np.reshape(vals, (3, 3))
    L = L.with_metric(np.eye(3) + 0.4 * (B @ B.T))
    want = solve(SolitonProblem.build(*layers(L)))
    got = solve(SolitonProblem.build(*layers(rotate_algebra(L, P))))
    assert verdicts(got) == verdicts(want)
