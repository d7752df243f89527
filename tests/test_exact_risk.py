"""Exact risk by one rule per hypothesis type, applied to each run of
stacked parameter rows, against the per-member geometry it replaced, kept
here as a reference: the same risks bit for bit, the sign of zero included,
and the same refusals where there is no closed form."""

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sltlab.core import (
    FiniteClass,
    Halfspace,
    HalfspaceClass2D,
    Interval,
    IntervalClass,
    IntervalUnion,
    IntervalUnionClass,
    LookupTable,
    Rectangle,
    RectangleClass,
    SineClass,
    SineSign,
    StackedMembers,
    Threshold,
    ThresholdClass,
)
from sltlab.distributions import (
    AnalyticRiskUnavailable,
    ConditionalTable,
    DataDistribution,
    FiniteUniform,
    PointMasses,
    SeedSpec,
    UniformBox,
    member_risks,
    true_risk,
)

# ---------------------------------------------------------------------------
# The per-member reference
# ---------------------------------------------------------------------------


def reference_positive_intervals_1d(h, lo, hi):
    if isinstance(h, Threshold):
        if h.direction == "ge":
            a, b = max(h.theta, lo), hi
        else:
            a, b = lo, min(h.theta, hi)
        return [(a, b)] if a <= b else []
    if isinstance(h, Interval):
        a, b = max(h.lo, lo), min(h.hi, hi)
        return [(a, b)] if a <= b else []
    if isinstance(h, IntervalUnion):
        out = []
        for ilo, ihi in h.intervals:
            a, b = max(ilo, lo), min(ihi, hi)
            if a <= b:
                out.append((a, b))
        return out
    raise AnalyticRiskUnavailable(
        f"no interval decomposition for hypothesis kind {type(h).__name__}"
    )


def reference_measure(ivs):
    # The left-to-right additions of sum() before Python 3.12, which
    # compensates its float sums.
    total = 0
    for a, b in ivs:
        total += b - a
    return total


def reference_intersect_unions(A, B):
    out = []
    for a1, b1 in A:
        for a2, b2 in B:
            lo, hi = max(a1, a2), min(b1, b2)
            if lo < hi:
                out.append((lo, hi))
    return out


def reference_clip_halfplane(poly, w, b):
    if not poly:
        return []
    out = []
    n = len(poly)
    for i in range(n):
        cur, nxt = poly[i], poly[(i + 1) % n]
        g_cur = w[0] * cur[0] + w[1] * cur[1] + b
        g_nxt = w[0] * nxt[0] + w[1] * nxt[1] + b
        if g_cur >= 0.0:
            out.append(cur)
            if g_nxt < 0.0:
                t = g_cur / (g_cur - g_nxt)
                out.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
        elif g_nxt >= 0.0:
            t = g_cur / (g_cur - g_nxt)
            out.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
    return out


def reference_poly_area(poly):
    if len(poly) < 3:
        return 0.0
    s = 0.0
    for i in range(len(poly)):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % len(poly)]
        s += x1 * y2 - x2 * y1
    return abs(s) / 2.0


def reference_positive_polygon_2d(h, box):
    if isinstance(h, Rectangle):
        poly = box
        for j, (lo, hi) in enumerate(h.bounds):
            axis = (1.0, 0.0) if j == 0 else (0.0, 1.0)
            poly = reference_clip_halfplane(poly, axis, -lo)
            poly = reference_clip_halfplane(poly, (-axis[0], -axis[1]), hi)
        return poly
    if isinstance(h, Halfspace):
        return reference_clip_halfplane(box, h.weights, h.bias)
    raise AnalyticRiskUnavailable(
        f"no convex region for hypothesis kind {type(h).__name__} in 2d"
    )


def reference_convex_intersection_area(P, Q):
    if not P or not Q:
        return 0.0
    poly = P
    n = len(Q)
    for i in range(n):
        x1, y1 = Q[i]
        x2, y2 = Q[(i + 1) % n]
        w = (-(y2 - y1), x2 - x1)
        b = -(w[0] * x1 + w[1] * y1)
        poly = reference_clip_halfplane(poly, w, b)
        if not poly:
            return 0.0
    return reference_poly_area(poly)


def reference_noiseless_disagreement(D, h):
    sup = D.marginal.support()
    if sup is not None:
        pts, probs = sup
        disagree = h.labels(pts) != D.labeler.labels(pts)
        return float(np.sum(probs[disagree]))
    if D.marginal.dim == 1:
        lo, hi = D.marginal.bounds[0]
        A = reference_positive_intervals_1d(h, lo, hi)
        B = reference_positive_intervals_1d(D.labeler, lo, hi)
        return (reference_measure(A) + reference_measure(B)
                - 2.0 * reference_measure(reference_intersect_unions(A, B))) / (hi - lo)
    if D.marginal.dim == 2:
        (x0, x1), (y0, y1) = D.marginal.bounds
        box = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
        P = reference_positive_polygon_2d(h, box)
        Q = reference_positive_polygon_2d(D.labeler, box)
        total = (x1 - x0) * (y1 - y0)
        inter = reference_convex_intersection_area(P, Q)
        return (reference_poly_area(P) + reference_poly_area(Q) - 2.0 * inter) / total
    raise AnalyticRiskUnavailable(
        f"uniform-box geometry is implemented for 1 and 2 dimensions, not {D.marginal.dim}"
    )


def reference_true_risk(D, h):
    """The exact risk of one member object, by isinstance on its type."""
    if h.dim != D.dim:
        raise ValueError(f"hypothesis dimension {h.dim} does not match distribution {D.dim}")
    if isinstance(D.labeler, ConditionalTable):
        pts, probs = D.marginal.support()
        q = D.labeler.prob1(pts)
        q_eff = q * (1.0 - D.noise) + (1.0 - q) * D.noise
        pred = h.labels(pts).astype(float)
        per_point = np.where(pred == 1.0, 1.0 - q_eff, q_eff)
        return float(np.dot(probs, per_point))
    rho = reference_noiseless_disagreement(D, h)
    return D.noise + (1.0 - 2.0 * D.noise) * rho


# ---------------------------------------------------------------------------
# Drawn distributions and members
# ---------------------------------------------------------------------------

# Endpoints: signed zeros, the integers a member given in Python may hold,
# the infinities and any float; and the bounds of the box and floats inside
# it, so that parts touch the box and each other.
SPECIAL_ENDS = st.sampled_from(
    [-math.inf, -1.0, -0.5, -0.0, 0.0, 0, 0.25, 0.5, 1.0, 1, 2.0, math.inf])
BOX_ENDS = st.one_of(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]), st.floats(-2.0, 2.0))
WEIGHTS = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]), st.floats(-2.0, 2.0))
NOISE = st.one_of(st.sampled_from([0.0, -0.0, 0.1, 0.25]), st.floats(0.0, 0.49))
# the sides of the finite supports below
SUPPORT_SIDES = ((-1.0, 2.0), (-1.0, 1.0))


def ends(side):
    lo, hi = side
    inside = st.floats(lo, hi)
    return st.one_of(SPECIAL_ENDS, st.sampled_from(side), inside, inside, st.floats(-2.5, 2.5))


@st.composite
def boxes(draw, d):
    sides = []
    for _ in range(d):
        lo, hi = sorted(draw(st.tuples(BOX_ENDS, BOX_ENDS)))
        if not lo < hi:
            lo, hi = lo, lo + 1.0
        sides.append((lo, hi))
    if math.prod(hi - lo for lo, hi in sides) == 0.0:  # an area that underflows is refused
        sides[-1] = (sides[-1][0], sides[-1][0] + 1.0)
    return UniformBox(tuple(sides))


@st.composite
def ordered(draw, side, n):
    """n endpoints in order, touching ones allowed."""
    return sorted(draw(st.lists(ends(side), min_size=n, max_size=n)))


@st.composite
def unions(draw, side):
    n = 2 * draw(st.integers(1, 3))
    values = sorted(draw(st.lists(ends(side), min_size=n, max_size=n, unique=True)))
    if not all(hi < lo for hi, lo in zip(values[1:-1:2], values[2::2])):
        values = values[:2]  # parts of a union must not touch
    return IntervalUnion(tuple(zip(values[0::2], values[1::2])))


def line_members(side):
    return st.one_of(
        st.builds(Threshold, ends(side), st.sampled_from(["ge", "le"])),
        ordered(side, 2).map(lambda e: Interval(*e)),
        unions(side), unions(side))


def plane_members(sides):
    return st.one_of(
        st.tuples(ordered(sides[0], 2), ordered(sides[1], 2)).map(
            lambda b: Rectangle((tuple(b[0]), tuple(b[1])))),
        st.builds(lambda w0, w1, b: Halfspace((w0, w1), b),
                  WEIGHTS, WEIGHTS, ends(sides[0])))


# on the support points below, or off them
LOOKUPS = {
    1: LookupTable(((0.5,), (1.0,)), (1, 0)),
    2: LookupTable(((0.0, 0.5), (3.0, 3.0)), (1, 1), default=0),
}
SUPPORT = {
    1: [(-1.0,), (-0.0,), (0.5,), (1.0,), (2.0,), (0.25,)],
    2: [(0.0, 0.5), (-0.0, 0.0), (1.0, 1.0), (0.5, -1.0), (2.0, 0.25)],
}


def support_members(d):
    if d == 1:
        kinds = [line_members(SUPPORT_SIDES[0]), st.builds(SineSign, st.floats(-20.0, 20.0))]
    else:
        kinds = [plane_members(SUPPORT_SIDES)]
    return st.one_of(*kinds, st.just(LOOKUPS[d]))


@st.composite
def cases(draw):
    """(D, members): a distribution with a closed form for some or all of
    the members, which form one or more runs."""
    where = draw(st.sampled_from(["line", "plane", "support-1", "support-2"]))
    noise = draw(NOISE)
    if where in ("line", "plane"):
        marginal = draw(boxes(1 if where == "line" else 2))
        if where == "line":
            kinds = line_members(marginal.bounds[0])
            extra = st.sampled_from([SineSign(3.0), LOOKUPS[1], Rectangle(((0.0, 0.5),)),
                                     Halfspace((1.0,), -0.5)])
        else:
            kinds = plane_members(marginal.bounds)
            extra = st.just(LOOKUPS[2])
        labeler = draw(st.one_of(kinds, kinds, kinds, extra))
        members = draw(st.lists(st.one_of(kinds, kinds, kinds, extra), min_size=1, max_size=12))
        return DataDistribution(marginal, labeler, noise), members
    d = int(where[-1])
    points = tuple(draw(st.lists(st.sampled_from(SUPPORT[d]), min_size=1, max_size=len(SUPPORT[d]),
                                 unique=True)))
    if draw(st.booleans()):
        marginal = FiniteUniform(points)
    else:
        # point masses, zero masses among them
        weights = draw(st.lists(st.sampled_from([0.0, 1.0, 0.5, 3.0]), min_size=len(points),
                                max_size=len(points)).filter(any))
        marginal = PointMasses(points, tuple(w / sum(weights) for w in weights))
        if abs(sum(marginal.probs) - 1.0) > 1e-12:
            marginal = FiniteUniform(points)
    if draw(st.booleans()):
        q = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
        labeler = ConditionalTable(points, tuple(draw(st.lists(q, min_size=len(points),
                                                                max_size=len(points)))))
    else:
        labeler = draw(support_members(d))
    members = draw(st.lists(support_members(d), min_size=1, max_size=12))
    return DataDistribution(marginal, labeler, noise), members


def hexes(values):
    return [float(v).hex() for v in values]


def raised(call):
    """"raises", the name and the message of what call() raises, if it does."""
    try:
        call()
    except Exception as exc:
        return f"raises {type(exc).__name__}: {exc}"
    return None


def outcome(risk, D, h):
    """float.hex of risk(D, h), or what it raises."""
    return raised(lambda: risk(D, h)) or float(risk(D, h)).hex()


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
@example((DataDistribution(UniformBox(((-0.0, 1.0),)), Interval(-math.inf, -0.0)),
          [Interval(-0.0, 0.0), Threshold(-0.0, "le"), Threshold(math.inf),
           IntervalUnion(((-math.inf, -0.0), (1.0, math.inf)))]))
@example((DataDistribution(UniformBox(((0.0, 1.0), (-0.0, 1.0))),
                           Rectangle(((0.0, 0.0), (-0.0, 1.0))), noise=-0.0),
          [Rectangle(((-0.0, 1.0), (0.0, 0.0))), Halfspace((-0.0, 0.0), -0.0),
           Rectangle(((-math.inf, math.inf), (1.0, math.inf))), Halfspace((1.0, -1.0), 0)]))
@example((DataDistribution(PointMasses(((0.0,), (1.0,), (2.0,)), (0.5, 0.0, 0.5)),
                           ConditionalTable(((0.0,), (1.0,), (2.0,)), (0.0, 1.0, 0.5)), 0.1),
          [SineSign(3.0), LOOKUPS[1], Threshold(1.0), Interval(0.0, 1.0)]))
@example((DataDistribution(UniformBox(((-1.0, -0.5), (-0.0, 1e-323))),
                           Rectangle(((-math.inf, -math.inf), (-math.inf, -math.inf)))),
          [LOOKUPS[2], Rectangle(((0.0, 1.0), (0.0, 1.0))), Halfspace((1.0, 0.0), 0.5)]))
@example((DataDistribution(UniformBox(((-1e153, 1e153), (-1e153, 1e153))),
                           Halfspace((1.0, 1.0), 0.0)),
          [Halfspace((1e308, 1e308), 0.0), Rectangle(((-math.inf, math.inf), (-math.inf, 0.5))),
           Rectangle(((-math.inf, 0.0), (-0.0, math.inf)))]))
def test_exact_risks_equal_the_per_member_reference(case):
    D, members = case
    expected = [outcome(reference_true_risk, D, h) for h in members]
    assert [outcome(true_risk, D, h) for h in members] == expected
    failures = [e for e in expected if e.startswith("raises")]
    # a box whose area is 0 or infinite is refused as it is built, so a
    # closed form is only ever missing
    assert all(e.startswith("raises AnalyticRiskUnavailable") for e in failures)
    for given_as in (StackedMembers(members), members):
        if not failures:
            risks, mc = member_risks(D, given_as)
            assert hexes(risks) == expected and not mc.any()
            continue
        # the first run without a closed form refuses, as its first member did
        assert raised(lambda: member_risks(D, given_as)) == failures[0]
        risks, mc = member_risks(D, given_as, 50, SeedSpec(4), "exact")
        assert mc.tolist() == [e in failures for e in expected]
        assert [r for r, used in zip(hexes(risks), mc) if not used] == [
            e for e in expected if e not in failures]


def test_union_sums_keep_their_order():
    # Unions of up to three parts with decimal ends, whose lengths and meets
    # round when added, so that any other order of the additions shows.
    rnd = random.Random(5)

    def union(lo, hi):
        values = sorted(round(rnd.uniform(lo - 0.2, hi + 0.2), 3) for _ in range(6))
        if not all(a < b for a, b in zip(values, values[1:])):
            values = values[:2]
        return IntervalUnion(tuple(zip(values[0::2], values[1::2])))

    for _ in range(200):
        lo, hi = sorted(round(rnd.uniform(-1.0, 1.0), 2) for _ in range(2))
        if lo == hi:
            continue
        D = DataDistribution(UniformBox(((lo, hi),)), union(lo, hi), rnd.choice([0.0, 0.1]))
        members = [union(lo, hi) for _ in range(10)]
        risks, _ = member_risks(D, StackedMembers(members))
        assert hexes(risks) == [float(reference_true_risk(D, h)).hex() for h in members]


def test_support_sums_keep_their_order():
    # Supports of 9 to 40 points, past numpy's 8-way unrolled sums, so that a
    # sum over a matrix, or any other order of the additions, shows.
    rnd = random.Random(7)
    for _ in range(100):
        points = tuple((x,) for x in {round(rnd.uniform(-1.0, 2.0), 4) for _ in range(40)})
        points = points[:rnd.randint(9, len(points))]
        weights = [rnd.random() for _ in points]
        marginal = PointMasses(points, tuple(w / sum(weights) for w in weights))
        if rnd.random() < 0.5:
            labeler = ConditionalTable(points, tuple(rnd.random() for _ in points))
        else:
            labeler = Threshold(rnd.uniform(-1.0, 2.0))
        D = DataDistribution(marginal, labeler, rnd.choice([0.0, 0.2]))
        members = [Interval(*sorted(rnd.uniform(-1.0, 2.0) for _ in range(2)))
                   for _ in range(10)] + [SineSign(rnd.uniform(-9.0, 9.0)) for _ in range(10)]
        risks, _ = member_risks(D, StackedMembers(members))
        assert hexes(risks) == [float(reference_true_risk(D, h)).hex() for h in members]


@pytest.mark.parametrize("D, classes", [
    (DataDistribution(UniformBox(((-1.0, 2.0),)), Threshold(0.4), noise=0.1),
     [ThresholdClass(), IntervalClass(resolution=30), IntervalUnionClass(resolution=8)]),
    (DataDistribution(UniformBox(((-1.5, 1.5), (-1.5, 1.5))),
                      Rectangle(((-0.5, 1.5), (-1.5, 0.5))), noise=0.1),
     [RectangleClass(resolution=6), HalfspaceClass2D()]),
    (DataDistribution(FiniteUniform(((0.0,), (0.5,), (1.0,))),
                      ConditionalTable(((0.0,), (0.5,), (1.0,)), (0.2, 0.5, 0.9))),
     [SineClass(), FiniteClass((LOOKUPS[1], Threshold(0.5)))]),
], ids=["line", "plane", "support"])
def test_an_exact_class_builds_no_member(D, classes, monkeypatch):
    # The risks come from the stacked rows alone: no member is read or built.
    stacked = StackedMembers.of(*classes)
    expected = [reference_true_risk(D, h) for h in stacked]

    def refuse(*args):
        raise AssertionError("member_risks built a member object")

    for name in ("__iter__", "__getitem__"):
        monkeypatch.setattr(StackedMembers, name, refuse)
    risks, mc = member_risks(D, stacked)
    assert hexes(risks) == hexes(expected) and not mc.any()


def test_long_2d_runs_equal_the_per_member_reference():
    # One run of 2000 halfplanes and one of 1000 boxes, whose polygons gain,
    # keep and lose vertices as they are clipped from the box, with the
    # special values mixed in; on a small box and on one where w . x + b
    # overflows to inf and NaN, against a labeler that cuts a corner, one
    # whose sums overflow and one that labels nothing 1.
    rnd = random.Random(11)
    special = [-math.inf, math.inf, -0.0, 0.0, 1e308, -1e308, 5e-324, 1.0, -1.0, 2.0]

    def value(finite=False):
        if rnd.random() < 0.25:
            return rnd.choice([v for v in special if not finite or math.isfinite(v)])
        return rnd.choice([rnd.uniform(-2.0, 3.0), round(rnd.uniform(-1.5, 2.5), 1)])

    members = [Halfspace((value(True), value(True)), value()) for _ in range(2000)]
    members += [Rectangle(tuple(tuple(sorted((value(), value()))) for _ in range(2)))
                for _ in range(1000)]
    stacked = StackedMembers(members)
    assert len(stacked._runs) == 2
    small = UniformBox(((-1.0, 2.0), (-0.5, 1.0)))
    for box in (small, UniformBox(((-1e153, 1e153),) * 2)):
        for labeler in (Halfspace((1.0, -2.0), 1.5), Halfspace((1e308, 1e308), -1e308),
                        Halfspace((0.0, 0.0), -1.0)):
            D = DataDistribution(box, labeler, 0.1)
            risks, mc = member_risks(D, stacked)
            assert hexes(risks) == [float(reference_true_risk(D, h)).hex() for h in members]
            assert not mc.any()
    (x0, x1), (y0, y1) = small.bounds
    corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    counts = {len(reference_positive_polygon_2d(h, corners)) for h in members}
    assert min(counts) < 4 and 4 in counts and max(counts) > 4
