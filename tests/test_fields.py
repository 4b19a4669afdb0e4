import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kppfrag import (
    AdmissibilityError,
    FieldError,
    Grid,
    ProblemParams,
    ResourceField,
    ScalarField,
    bv_seminorm,
    field_from_csv,
    field_to_csv,
    jump_count,
    make_crenel,
    mean,
    near_bangbang_fraction,
    refine_fold_values,
)
from conftest import l1_distance


def test_scalar_field_validation():
    g = Grid((5,))
    with pytest.raises(FieldError):
        ScalarField(g, np.zeros(4))
    with pytest.raises(FieldError):
        ScalarField(g, np.array([0, 1, np.nan, 2, 3.0]))
    f = ScalarField(g, np.arange(5.0))
    with pytest.raises(ValueError):
        f.values[0] = 99.0          # stored values are frozen


def test_problem_params_validation():
    with pytest.raises(FieldError):
        ProblemParams(mu=0.0)
    with pytest.raises(FieldError):
        ProblemParams(mu=1.0, kappa=1.0, m0=1.0)
    p = ProblemParams(mu=2.0, kappa=1.0, m0=0.6)
    assert p.m0 == 0.6


def test_resource_field_tolerances():
    g = Grid((5,))
    ResourceField(g, np.full(5, 0.3), 1.0, 0.3)
    # bound dust within 1e-12 and mean drift within 1e-10 are accepted
    v = np.full(5, 0.3)
    v[0] = -0.5e-12
    ResourceField(g, v, 1.0, mean(ScalarField(g, v)))
    ResourceField(g, np.full(5, 0.3), 1.0, 0.3 + 0.9e-10)
    with pytest.raises(AdmissibilityError):
        ResourceField(g, np.full(5, 0.3), 1.0, 0.3 + 5e-10)
    with pytest.raises(AdmissibilityError):
        v2 = np.full(5, 0.3)
        v2[2] = 1.0 + 1e-11
        ResourceField(g, v2, 1.0, mean(ScalarField(g, v2)))


def test_resource_field_with_values_revalidates():
    g = Grid((9,))
    m = make_crenel(g, 1.0, 0.3)
    with pytest.raises(AdmissibilityError):
        m.with_values(m.values + 0.1)      # mean off by 0.1
    m2 = m.with_values(m.values[::-1].copy())
    assert isinstance(m2, ResourceField)
    assert m2.kappa == 1.0


@pytest.mark.parametrize("counts", [(33,), (12, 9)])
def test_pickle_round_trip_rebuilds_through_the_constructor(counts):
    # a pickled array comes back writable and a pickled dataclass keeps its
    # cached properties; grids and fields are rebuilt from their arguments
    g = Grid(counts)
    m = make_crenel(g, 1.0, 0.3)
    w = ScalarField(g, g.node_weights)
    assert "node_weights" in vars(g)
    assert vars(pickle.loads(pickle.dumps(g))) == {"counts": counts}
    g2, m2, w2 = pickle.loads(pickle.dumps((g, m, w)))
    assert g2 == g
    assert type(m2) is ResourceField and (m2.kappa, m2.m0) == (1.0, 0.3)
    assert type(w2) is ScalarField
    for got, sent in ((m2, m), (w2, w)):
        assert got.grid is g2
        assert got.values.tobytes() == sent.values.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            got.values[0] = 0.5


def test_mean_constant_and_endpoint_weighting():
    g = Grid((3,))
    assert mean(ScalarField(g, np.full(3, 0.7))) == pytest.approx(0.7, abs=0)
    # endpoints carry half weight: (0.5*0 + 1*0.5 + 0.5*1) / 2 = 0.5
    assert mean(ScalarField(g, np.array([0.0, 0.5, 1.0]))) == 0.5


def test_mean_indicator_pinned():
    # literal indicator of x < 0.3 on N=1000: nodes 0..299, endpoint halved
    g = Grid((1000,))
    v = (g.axis_coords(0) < 0.3).astype(float)
    assert mean(ScalarField(g, v)) == pytest.approx(299.5 / 999.0, rel=1e-15)


def test_make_crenel_structure_1d():
    g = Grid((1000,))
    m = make_crenel(g, 1.0, 0.3)
    v = m.values
    assert np.all(v[:300] == 1.0)
    assert v[300] == pytest.approx(0.2, abs=1e-12)   # fractional node
    assert np.all(v[301:] == 0.0)
    assert mean(m) == pytest.approx(0.3, abs=1e-15)


def test_make_crenel_structure_2d():
    g = Grid((10, 7))
    m = make_crenel(g, 1.0, 0.4)
    sq = m.values.reshape(7, 10)
    assert np.all(sq == sq[0])          # x-slab, y-independent
    assert mean(m) == pytest.approx(0.4, abs=1e-14)


def test_l1_distance():
    g = Grid((5,))
    a = ScalarField(g, np.zeros(5))
    b = ScalarField(g, np.ones(5))
    assert l1_distance(a, b) == 1.0
    assert l1_distance(b, b) == 0.0
    with pytest.raises(FieldError):
        l1_distance(a, ScalarField(Grid((7,)), np.zeros(7)))


def test_bv_seminorm_1d_examples():
    g = Grid((9,))
    assert bv_seminorm(ScalarField(g, np.full(9, 0.3))) == 0.0
    crenel = ScalarField(g, (g.axis_coords(0) < 0.3).astype(float))
    assert bv_seminorm(crenel) == 1.0          # one interior jump
    two = ScalarField(g.refined(1), refine_fold_values(crenel.values, g, 1))
    assert bv_seminorm(two) == 2.0             # two blocks


def test_bv_seminorm_crenel_with_fractional_node():
    m = make_crenel(Grid((1000,)), 1.0, 0.3)
    # |1 - 0.2| + |0.2 - 0| telescopes to the full jump height
    assert bv_seminorm(m) == pytest.approx(1.0, abs=1e-12)


def test_bv_seminorm_2d_slab():
    g = Grid((16, 9))
    v = (np.meshgrid(g.axis_coords(0), g.axis_coords(1))[0] < 0.3).astype(float)
    tv = bv_seminorm(ScalarField(g, v.ravel()))
    # straight unit interface: ny rows of unit jumps, each weighted h_y
    assert tv == pytest.approx(9.0 / 8.0, rel=1e-12)


def test_jump_count_examples():
    g = Grid((9,))
    x = g.axis_coords(0)
    assert jump_count(ScalarField(g, np.full(9, 0.3)), 0.5) == 0
    assert jump_count(ScalarField(g, (x < 0.3).astype(float)), 0.5) == 1
    two = ((x < 0.15) | (x > 0.85)).astype(float)
    assert jump_count(ScalarField(g, two), 0.5) == 2
    # nodes exactly at the threshold are skipped
    ramp = ScalarField(g, np.array([0, 0, 0.5, 1, 1, 1, 0.5, 0, 0.0]))
    assert jump_count(ramp, 0.5) == 2
    with pytest.raises(FieldError):
        jump_count(ScalarField(Grid((3, 3)), np.zeros(9)), 0.5)


def test_periodise_doubles_tv_and_jumps_on_aligned_crenels():
    g = Grid((17,))
    v = (np.arange(17) <= 4).astype(float)      # edge on the k=2 sublattice
    f = ScalarField(g, v)
    for k in (1, 2):
        fk = ScalarField(g.refined(k), refine_fold_values(v, g, k))
        assert bv_seminorm(fk) == (1 << k) * bv_seminorm(f)
        assert jump_count(fk, 0.5) == (1 << k) * jump_count(f, 0.5)


def test_near_bangbang_fraction():
    m = make_crenel(Grid((1000,)), 1.0, 0.3)
    assert near_bangbang_fraction(m, 1.0) == pytest.approx(1.0 / 1000.0)
    g = Grid((5,))
    assert near_bangbang_fraction(ScalarField(g, np.full(5, 0.5)), 1.0) == 1.0


@given(n=st.integers(3, 60), seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_csv_roundtrip_1d(n, seed):
    g = Grid((n,))
    v = np.random.default_rng(seed).uniform(-3.0, 3.0, n)
    back = field_from_csv(field_to_csv(ScalarField(g, v)))
    assert back.grid == g
    assert np.array_equal(back.values, v)       # 17 digits round-trip doubles


def test_csv_roundtrip_2d():
    g = Grid((6, 4))
    v = np.random.default_rng(3).uniform(0.0, 1.0, 24)
    back = field_from_csv(field_to_csv(ScalarField(g, v)))
    assert back.grid == g
    assert np.array_equal(back.values, v)


def test_csv_header_and_shape_errors():
    with pytest.raises(FieldError):
        field_from_csv("a,b\n1,2\n")
    good = field_to_csv(ScalarField(Grid((4, 3)), np.arange(12.0)))
    truncated = "\n".join(good.splitlines()[:-1]) + "\n"
    with pytest.raises(FieldError):
        field_from_csv(truncated)


def _csv_lines(counts, values):
    text = field_to_csv(ScalarField(Grid(counts), np.asarray(values, dtype=float)))
    lines = text.splitlines()
    return lines[0], lines[1:]


def _reversed_1d():
    head, rows = _csv_lines((5,), np.arange(5.0))
    return "\n".join([head] + rows[::-1]) + "\n"


def _column_major_2d():
    head, rows = _csv_lines((4, 3), np.arange(12.0))
    order = [j * 4 + i for i in range(4) for j in range(3)]
    return "\n".join([head] + [rows[k] for k in order]) + "\n"


@pytest.mark.parametrize("text", [
    _reversed_1d(),
    _column_major_2d(),
    "x,value\n0,1\n0.1,2\n0.5,3\n1,4\n",          # non-uniform x
    "x,value\n0,1\n0.5,2\n0.5,3\n",                # repeated x
    "x,y,value\n0,0,1\n1,0,2\n0,1\n1,1,4\n",      # ragged row
    "x,value\n0,1\n0.5,abc\n1,2\n",                # non-numeric cell
    "",
    "x,value\n",
], ids=["reversed-1d", "column-major-2d", "nonuniform", "repeated", "ragged",
        "non-numeric", "empty", "header-only"])
def test_csv_strict_reads(text):
    with pytest.raises(FieldError):
        field_from_csv(text)


def test_csv_header_matches_dim():
    one = field_to_csv(ScalarField(Grid((3,)), np.zeros(3)))
    two = field_to_csv(ScalarField(Grid((3, 3)), np.zeros(9)))
    assert one.splitlines()[0] == "x,value"
    assert two.splitlines()[0] == "x,y,value"


@given(
    n=st.integers(4, 50),
    m0=st.floats(0.05, 0.9),
    kappa=st.floats(1.0, 3.0),
)
@settings(max_examples=50, deadline=None)
def test_make_crenel_always_admissible(n, m0, kappa):
    m = make_crenel(Grid((n,)), kappa, m0)
    assert np.min(m.values) >= 0.0
    assert np.max(m.values) <= kappa
    assert abs(mean(m) - m0) <= 1e-12 * max(1.0, kappa)
