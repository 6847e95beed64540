"""Batch-vs-scalar equivalence for the vectorized space kernels.

``contains_batch`` / ``project_batch`` / ``normalize_batch`` switch between
a scalar loop (below ``_VECTORIZE_MIN_ROWS``) and column-wise numpy kernels;
both implementations must be bitwise identical, including exactly at the
switchover boundary.
"""

import numpy as np
import pytest

from repro.space import (
    FloatParameter,
    IntParameter,
    OrdinalParameter,
    ParameterSpace,
)

MIXED = ParameterSpace(
    [
        IntParameter("i", -5, 5),
        FloatParameter("f", -1.0, 1.0),
        OrdinalParameter("o", [1, 2, 4, 8, 16]),
    ]
)

# GS2-shaped: stepped integer lattices with non-zero lower bounds.
STEPPED = ParameterSpace(
    [
        IntParameter("ntheta", 16, 128, step=4),
        IntParameter("negrid", 8, 64, step=2),
        IntParameter("nodes", 1, 64),
    ]
)

THRESHOLD = ParameterSpace._VECTORIZE_MIN_ROWS

# Exercise both code paths and the exact switchover row counts, plus the
# sizes around 12 rows (up to 2N for PRO on a six-parameter space).
SIZES = sorted({0, 1, 5, 11, 12, 13, THRESHOLD - 1, THRESHOLD, THRESHOLD + 1, 64})


def rows(m, seed):
    """Rows straddling bounds, off-lattice values, and exact members."""
    rng = np.random.default_rng(seed)
    lo, hi = MIXED.lower_bounds(), MIXED.upper_bounds()
    span = hi - lo
    arr = rng.uniform(lo - 0.5 * span, hi + 0.5 * span, size=(m, MIXED.dimension))
    # sprinkle in exactly-admissible rows so contains() sees both outcomes
    for r in range(0, m, 3):
        arr[r] = MIXED.nearest(np.clip(arr[r], lo, hi))
    return arr


@pytest.mark.parametrize("m", SIZES)
def test_contains_batch_matches_scalar(m):
    arr = rows(m, seed=m + 1)
    got = MIXED.contains_batch(arr)
    expected = np.array([MIXED.contains(row) for row in arr], dtype=bool)
    assert got.dtype == np.bool_
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("m", SIZES)
def test_project_batch_matches_scalar(m):
    arr = rows(m, seed=m + 101)
    center = MIXED.center()
    got = MIXED.project_batch(arr, center)
    expected = np.array([MIXED.project(row, center) for row in arr]).reshape(
        m, MIXED.dimension
    )
    assert got.tobytes() == expected.tobytes()
    if m:
        assert MIXED.contains_batch(got).all()


@pytest.mark.parametrize("m", SIZES)
def test_normalize_batch_matches_scalar(m):
    arr = rows(m, seed=m + 202)
    got = MIXED.normalize_batch(arr)
    expected = np.array([MIXED.normalize(row) for row in arr]).reshape(
        m, MIXED.dimension
    )
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("m", [5, 48])
def test_project_batch_rejects_inadmissible_center(m):
    arr = rows(m, seed=7)
    with pytest.raises(ValueError):
        MIXED.project_batch(arr, [0.25, 0.0, 1.0])  # 0.25 not an int value
    with pytest.raises(ValueError):
        MIXED.project_batch(arr, [0.0, 0.0, 3.0])  # 3 not an ordinal level


def test_as_batch_validates_shape():
    assert MIXED.as_batch([]).shape == (0, 3)
    with pytest.raises(ValueError):
        MIXED.as_batch(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        MIXED.as_batch(np.zeros((2, 2, 3)))


def test_sizes_cover_both_paths():
    assert min(SIZES) < THRESHOLD <= 48 <= max(SIZES)


def stepped_rows(m, seed):
    """Exact-lattice, off-lattice and boundary values, mixed per coordinate."""
    rng = np.random.default_rng(seed)
    arr = np.array([STEPPED.random_point(rng) for _ in range(m)]).reshape(
        m, STEPPED.dimension
    )
    exact = arr.copy()
    for j, p in enumerate(STEPPED.parameters):
        top = p.upper_admissible
        boundary = [
            p.lower, top, p.lower - p.step, p.upper + p.step,
            np.nextafter(p.lower, -np.inf), np.nextafter(top, np.inf),
            p.lower + 1e-12, top - 1e-12,
        ]
        kind = rng.integers(0, 4, size=m)
        # off-lattice: strictly between two admissible values
        off = arr[:, j] + rng.uniform(0.01, 0.99, size=m) * p.step
        arr[:, j] = np.where(kind == 1, off, arr[:, j])
        picks = rng.choice(boundary, size=m)
        arr[:, j] = np.where(kind == 2, picks, arr[:, j])
        # far outside the declared range on either side
        far = rng.uniform(p.lower - 3 * p.span, p.upper + 3 * p.span, size=m)
        arr[:, j] = np.where(kind == 3, far, arr[:, j])
    arr[::3] = exact[::3]  # whole admissible rows, so contains() sees both
    return arr


def scalar_project(space, arr, center):
    """The per-parameter scalar oracle, row by row, on Python floats."""
    return np.array(
        [
            [p.project(float(x), float(c)) for p, x, c in zip(space, row, center)]
            for row in arr
        ],
        dtype=float,
    ).reshape(arr.shape)


@pytest.mark.parametrize("m", SIZES)
def test_stepped_contains_batch_matches_scalar(m):
    arr = stepped_rows(m, seed=m + 303)
    got = STEPPED.contains_batch(arr)
    expected = [
        all(p.contains(float(x)) for p, x in zip(STEPPED, row)) for row in arr
    ]
    assert got.dtype == np.bool_
    assert got.tolist() == expected
    if m >= 4:
        assert 0 < got.sum() < m


@pytest.mark.parametrize("m", SIZES)
def test_stepped_project_batch_matches_scalar(m):
    arr = stepped_rows(m, seed=m + 404)
    rng = np.random.default_rng(m)
    # Rounding goes toward the centre, so try centres all over the lattice,
    # including its corners.
    centers = [STEPPED.random_point(rng) for _ in range(3)]
    centers += [STEPPED.project(STEPPED.lower_bounds(), STEPPED.center())]
    centers += [STEPPED.project(STEPPED.upper_bounds(), STEPPED.center())]
    for center in centers:
        got = STEPPED.project_batch(arr, center)
        assert got.tobytes() == scalar_project(STEPPED, arr, center).tobytes()
        assert STEPPED.contains_batch(got).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=repr)
@pytest.mark.parametrize("m", [m for m in SIZES if m])
def test_non_finite_rows(m, bad):
    rng = np.random.default_rng(m)
    arr = stepped_rows(m, seed=m + 505)
    r, j = int(rng.integers(m)), int(rng.integers(STEPPED.dimension))
    arr[r, j] = bad
    ok = STEPPED.contains_batch(arr)
    assert not ok[r]
    assert ok.tolist() == [STEPPED.contains(row) for row in arr]
    center = STEPPED.center()
    with pytest.raises(ValueError) as oracle:
        STEPPED[j].project(float(bad), float(center[j]))
    with pytest.raises(ValueError) as batch:
        STEPPED.project_batch(arr, center)
    assert str(batch.value) == str(oracle.value)
    assert "cannot project non-finite value" in str(batch.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=repr)
@pytest.mark.parametrize("m", [m for m in SIZES if m])
def test_non_finite_continuous_coordinate(m, bad):
    # A float coordinate is clipped, never rejected: NaN passes through and
    # +/-inf lands on a bound, in both paths alike.
    arr = rows(m, seed=m + 606)
    arr[m // 2, 1] = bad
    assert not MIXED.contains_batch(arr)[m // 2]
    center = MIXED.center()
    got = MIXED.project_batch(arr, center)
    assert got.tobytes() == scalar_project(MIXED, arr, center).tobytes()


def test_coincident_at_tolerance():
    tol = MIXED["f"].tolerance
    ref = [1.0, 0.0, 4.0]
    assert MIXED.coincident([ref, [1.0, tol, 4.0]])  # exactly at: still equal
    assert MIXED.coincident([ref, [1.0, -tol, 4.0]])
    assert not MIXED.coincident([ref, [1.0, np.nextafter(tol, 1.0), 4.0]])
    # discrete coordinates must match exactly
    assert not MIXED.coincident([ref, [2.0, 0.0, 4.0]])
    # NaN: a discrete NaN never equals anything; a continuous one is never
    # "more than tolerance" away
    assert not MIXED.coincident([ref, [np.nan, 0.0, 4.0]])
    assert MIXED.coincident([ref, [1.0, np.nan, 4.0]])
    assert MIXED.coincident([ref])
    assert MIXED.coincident([])
