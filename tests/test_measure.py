import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspectra import I, J, K, ONE, QMatrix, Quaternion, SliceFrame, STANDARD_FRAME
from qspectra import generate as gen
from qspectra.errors import PreconditionError, ShapeError, SliceMembershipError
from qspectra.measure import (
    MERGE_TOL,
    AtomicMeasureSpace,
    L2Element,
    Symbol,
    ess_ran,
    ess_sup,
    l2_inner,
    l2_slice_split,
    m_phi,
    m_phi_norm,
    pushforward,
)
from qspectra.slices import quaternionify
from qspectra.spectral import multiplication_form
from qspectra.transform import xi
from qspectra.vectors import norm

from conftest import assert_qclose


_OBLIQUE = SliceFrame.from_m((I + 2 * J - K) / abs(I + 2 * J - K))
_TOL_FACTORS = [0.0, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 2.0]


def two_atom_space(w=(1.0, 2.0)):
    return AtomicMeasureSpace.from_labels([Quaternion(0), Quaternion(1)], list(w))


class TestSpaces:
    def test_rejects_negative_weight(self):
        with pytest.raises(ShapeError):
            AtomicMeasureSpace.from_labels([Quaternion(0)], [-1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_weight(self, bad):
        with pytest.raises(PreconditionError, match=f"weight {bad} of atom 1 is not finite"):
            AtomicMeasureSpace.from_labels([Quaternion(0), I, J], [1.0, bad, math.nan])

    def test_rejects_all_zero_weights(self):
        with pytest.raises(ShapeError):
            AtomicMeasureSpace.from_labels([Quaternion(0)], [0.0])

    def test_counting_space(self):
        sp = AtomicMeasureSpace.counting(3)
        assert sp.n_atoms == 3
        assert sp.total_mass() == 3.0
        assert sp.label(0) == Quaternion(1)


class TestL2Inner:
    def test_weighted_example(self):
        sp = two_atom_space()
        f = L2Element(sp, np.stack([ONE.to_array(), ONE.to_array()]))
        g = L2Element(sp, np.stack([I.to_array(), J.to_array()]))
        assert_qclose(l2_inner(f, g), I + 2 * J, 0.0)

    def test_self_inner_real_nonnegative(self, rng):
        sp = two_atom_space()
        for _ in range(10):
            f = L2Element(sp, gen.random_qvector(rng, 2))
            val = l2_inner(f, f)
            assert val.re >= 0.0 and abs(val.im()) <= 1e-13

    def test_zero_weight_atoms_contribute_nothing(self):
        sp = AtomicMeasureSpace.from_labels([Quaternion(0), Quaternion(1)], [1.0, 0.0])
        f = L2Element(sp, np.stack([ONE.to_array(), ONE.to_array()]))
        g1 = L2Element(sp, np.stack([I.to_array(), J.to_array()]))
        g2 = L2Element(sp, np.stack([I.to_array(), (5 * K).to_array()]))
        assert_qclose(l2_inner(f, g1), l2_inner(f, g2), 0.0)

    def test_space_mismatch(self):
        f = L2Element(two_atom_space(), np.zeros((2, 4)) + [1, 0, 0, 0])
        g = L2Element(two_atom_space((3.0, 1.0)), np.zeros((2, 4)) + [1, 0, 0, 0])
        with pytest.raises(ShapeError):
            l2_inner(f, g)


class TestMultiplicationOperator:
    def test_pointwise_products(self):
        sp = two_atom_space((1.0, 1.0))
        phi = Symbol.from_values(sp, [I, 2 * I], STANDARD_FRAME)
        g = L2Element(sp, np.stack([J.to_array(), J.to_array()]))
        out = m_phi(phi, g)
        assert_qclose(Quaternion.from_array(out.values[0]), K, 0.0)
        assert_qclose(Quaternion.from_array(out.values[1]), 2 * K, 0.0)

    def test_right_linear(self, rng):
        sp = two_atom_space()
        phi = Symbol.from_values(sp, [I, Quaternion(0.5, -2)], STANDARD_FRAME)
        g = L2Element(sp, gen.random_qvector(rng, 2))
        q = gen.random_quaternion(rng)
        lhs = m_phi(phi, g.scale_right(q))
        rhs = m_phi(phi, g).scale_right(q)
        np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-13)

    def test_constant_one_is_identity(self, rng):
        sp = two_atom_space()
        phi = Symbol.from_values(sp, [ONE, ONE], STANDARD_FRAME)
        g = L2Element(sp, gen.random_qvector(rng, 2))
        np.testing.assert_allclose(m_phi(phi, g).values, g.values, atol=0)

    def test_symbol_must_stay_in_slice(self):
        sp = two_atom_space()
        with pytest.raises(SliceMembershipError):
            Symbol.from_values(sp, [J, I], STANDARD_FRAME)


class TestEssentialQuantities:
    def test_zero_weight_atom_excluded(self):
        sp = AtomicMeasureSpace.from_labels(
            [Quaternion(0), Quaternion(1), Quaternion(2)], [1.0, 1.0, 0.0]
        )
        phi = Symbol.from_values(sp, [I, 2 * I, 5 * I], STANDARD_FRAME)
        assert ess_sup(phi) == 2.0
        ran = ess_ran(phi)
        assert len(ran) == 2
        assert_qclose(ran[0], I, 0.0)
        assert_qclose(ran[1], 2 * I, 0.0)

    def test_constant_symbol(self):
        sp = two_atom_space()
        c = Quaternion(0.5) + STANDARD_FRAME.m * 1.5
        phi = Symbol.from_values(sp, [c, c], STANDARD_FRAME)
        assert ess_sup(phi) == pytest.approx(abs(c), rel=1e-15)
        assert len(ess_ran(phi)) == 1

    def test_segment_grid_with_tilted_direction(self):
        direction = (I - J - K) / math.sqrt(3.0)
        frame = SliceFrame.from_m(direction)
        n = 64
        grid = [t / (n - 1) for t in range(n)]
        sp = AtomicMeasureSpace.from_labels([Quaternion(t) for t in grid], [1.0 / n] * n)
        phi = Symbol.from_values(
            sp, [direction * (math.sqrt(3.0) * t) for t in grid], frame
        )
        assert ess_sup(phi) == pytest.approx(math.sqrt(3.0), rel=1e-14)


    def test_ess_ran_matches_pairwise_loop(self):
        frame, cases = _boundary_cases()
        for values, weights in cases:
            phi = Symbol(AtomicMeasureSpace(values, weights), values, frame)
            got = np.array([q.to_array() for q in ess_ran(phi)])
            want = np.array([q.to_array() for q in _ess_ran_pairwise(phi)])
            assert got.shape == want.shape and np.array_equal(got, want, equal_nan=True)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), min_size=1, max_size=4),
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.sampled_from(_TOL_FACTORS),
                st.floats(0.0, 2.0 * math.pi),
                st.sampled_from([1.0, 0.5, 0.0, -0.0]),
            ),
            min_size=1,
            max_size=24,
        ),
    )
    def test_first_seen_matches_loops(self, bases, atoms):
        # atoms near a few base points, at 0, MERGE_TOL (and one ulp either
        # side) or 2 MERGE_TOL from them in an oblique slice
        frame = _OBLIQUE
        one, m = np.array([1.0, 0.0, 0.0, 0.0]), frame.m.to_array()
        values, weights = [], []
        for k, factor, angle, weight in atoms:
            c0, c1 = bases[k % len(bases)]
            step = factor * MERGE_TOL * (math.cos(angle) * one + math.sin(angle) * m)
            values.append(c0 * one + c1 * m + step)
            weights.append(weight)
        values, weights = np.array(values), np.array(weights)
        if not np.any(weights > 0.0):
            weights[0] = 1.0
        _assert_matches_loops(values, weights, frame)

    def test_first_seen_matches_loops_on_lattice(self):
        # a 16 x 16 lattice shares each value of its widest coordinate among
        # 16 rows, and the copies at up to 2 MERGE_TOL from them lengthen
        # those runs, so the sweep goes far past its first offsets
        rng = np.random.default_rng(23)
        one, m = np.array([1.0, 0.0, 0.0, 0.0]), _OBLIQUE.m.to_array()
        side, step = 16, 1.5 * MERGE_TOL
        c0, c1 = (g.ravel() for g in np.meshgrid(*[step * np.arange(side)] * 2))
        lattice = np.outer(0.25 + c0, one) + np.outer(-0.5 + c1, m)
        angle = rng.uniform(0.0, 2.0 * math.pi, 160)
        factor = MERGE_TOL * rng.choice(_TOL_FACTORS, 160)
        shift = np.outer(factor * np.cos(angle), one) + np.outer(factor * np.sin(angle), m)
        copies = lattice[rng.integers(0, len(lattice), 160)] + shift
        values = np.concatenate([lattice, copies])
        values = np.concatenate([values, values[rng.integers(0, len(values), 48)]])
        values = values[rng.permutation(len(values))]
        weights = rng.choice([1.0, 2.0, 0.0], len(values))
        weights[0] = 1.0
        _assert_matches_loops(values, weights, _OBLIQUE)


def _boundary_cases():
    """Symbol values and weights at the merge tolerance.

    Pairs at exactly MERGE_TOL and one ulp either side in an oblique slice,
    where a vectorised norm and the norm of one difference can round to
    opposite sides of the tolerance; then repeated values, -0.0 components,
    NaN rows and zero and -0.0 weights in one symbol.
    """
    rng = np.random.default_rng(11)
    frame = _OBLIQUE
    one, m = np.array([1.0, 0.0, 0.0, 0.0]), frame.m.to_array()
    base = [np.zeros(4)] + [c0 * one + c1 * m for c0, c1 in 1e-12 * rng.standard_normal((4, 2))]
    cases = []
    for b in base:
        for angle in rng.uniform(0.0, 2.0 * math.pi, 12):
            step = MERGE_TOL * (math.cos(angle) * one + math.sin(angle) * m)
            for factor in _TOL_FACTORS[1:4]:
                cases.append((np.array([b, b + factor * step]), np.ones(2)))
    rows = [base[k % 5] for k in range(15)] + [
        np.full(4, np.nan),
        np.array([np.nan, 0, 0, 0]),
        np.array([-0.0, 0.0, -0.0, 0.0]),
        -base[1],
    ]
    order = rng.permutation(len(rows))
    weights = rng.choice([1.0, 0.5, 2.0, 0.0, -0.0], len(rows))
    weights[0] = 1.0
    cases.append((np.array(rows)[order], weights))
    return frame, cases


def _assert_matches_loops(values, weights, frame):
    """ess_ran, pushforward and m_phi_norm equal the loops they replaced,
    bit for bit."""
    space = AtomicMeasureSpace(values, weights)
    phi = Symbol(space, values, frame)
    got = np.array([q.to_array() for q in ess_ran(phi)])
    want = np.array([q.to_array() for q in _ess_ran_pairwise(phi)])
    assert got.shape == want.shape and np.array_equal(got, want, equal_nan=True)
    for fn in (lambda q: q, lambda q: q * q):
        image = pushforward(space, fn)
        atoms, image_weights = _pushforward_loop(space, fn)
        assert image.atoms.shape == atoms.shape
        assert np.array_equal(image.atoms, atoms, equal_nan=True)
        assert image.weights.tobytes() == image_weights.tobytes()  # -0.0 too
    if np.all(np.isfinite(values)):
        assert m_phi_norm(phi) == _m_phi_norm_loop(phi)


def _ess_ran_pairwise(phi):
    """The first-seen loop over every pair that ess_ran replaces."""
    out = []
    for row in phi.values[phi.space.positive()]:
        if not any(np.linalg.norm(row - seen) <= MERGE_TOL for seen in out):
            out.append(row)
    return [Quaternion.from_array(row) for row in out]


def _pushforward_loop(space, fn):
    """Image atoms and weights as the linear scan pushforward replaced."""
    images, weights = [], []
    for i in range(space.n_atoms):
        img = fn(space.label(i)).to_array()
        hit = None
        for t, seen in enumerate(images):
            if np.linalg.norm(img - seen) <= MERGE_TOL:
                hit = t
                break
        if hit is None:
            images.append(img)
            weights.append(float(space.weights[i]))
        else:
            weights[hit] += float(space.weights[i])
    return np.stack(images, axis=0), np.asarray(weights)


def _m_phi_norm_loop(phi):
    """max ||M_phi e_i|| / ||e_i|| with one N x 4 indicator per atom."""
    best = 0.0
    for i in np.flatnonzero(phi.space.positive()):
        e_i = np.zeros((phi.space.n_atoms, 4), dtype=np.float64)
        e_i[i, 0] = 1.0
        f = L2Element(phi.space, e_i)
        best = max(best, m_phi(phi, f).norm() / f.norm())
    return best


class TestOperatorNormIdentity:
    def test_two_point_symbol(self):
        sp = two_atom_space((1.0, 1.0))
        phi = Symbol.from_values(sp, [I, 2 * I], STANDARD_FRAME)
        assert m_phi_norm(phi) == pytest.approx(2.0, rel=1e-15)

    def test_real_scaling(self):
        sp = two_atom_space()
        phi = Symbol.from_values(sp, [I, Quaternion(0.5, 0.5)], STANDARD_FRAME)
        base = m_phi_norm(phi)
        phi3 = Symbol(sp, 3.0 * phi.values, STANDARD_FRAME)
        assert m_phi_norm(phi3) == pytest.approx(3.0 * base, rel=1e-13)

    def test_agrees_with_ess_sup(self, rng):
        for _ in range(10):
            f = gen.random_frame(rng)
            n = int(rng.integers(2, 10))
            sp = AtomicMeasureSpace(gen.random_qvector(rng, n), np.abs(rng.normal(size=n)) + 0.05)
            values = [Quaternion(rng.uniform(-2, 2)) + f.m * rng.uniform(-2, 2) for _ in range(n)]
            phi = Symbol.from_values(sp, values, f)
            assert abs(m_phi_norm(phi) - ess_sup(phi)) <= 1e-12

    def test_normality_of_multiplier(self, rng):
        sp = two_atom_space()
        values = [Quaternion(0.3, 1.2), Quaternion(-1, 2)]
        phi = Symbol.from_values(sp, values, STANDARD_FRAME)
        phistar = Symbol.from_values(sp, [v.conjugate() for v in values], STANDARD_FRAME)
        g = L2Element(sp, gen.random_qvector(rng, 2))
        lhs = m_phi(phistar, m_phi(phi, g))
        rhs = m_phi(phi, m_phi(phistar, g))
        assert (lhs - rhs).norm() <= 1e-13


class TestNormsReadScaled:
    """Every norm reads its squares on values scaled by a power of two, so
    it neither underflows nor overflows where the norm itself does not."""

    @staticmethod
    def norms(c):
        """Each norm of seeded inputs scaled by c: of a vector, the matrix
        holding it, an L2 element, a symbol (as an operator and by ess sup)
        and a complex pair."""
        rng = np.random.default_rng(5)
        phi = multiplication_form(gen.random_normal(rng, 6, STANDARD_FRAME), STANDARD_FRAME).phi
        space = AtomicMeasureSpace(phi.space.atoms, rng.uniform(0.5, 2.0, 6))
        x = c * gen.random_qvector(rng, 6)
        pair = tuple(c * (rng.normal(size=6) + 1j * rng.normal(size=6)) for _ in range(2))
        phi = Symbol(space, c * phi.values, phi.frame)
        return [
            norm(x),
            QMatrix(x[:, None]).frobenius(),
            L2Element(space, x).norm(),
            m_phi_norm(phi),
            ess_sup(phi),
            quaternionify(6, STANDARD_FRAME).norm(pair),
        ]

    @pytest.mark.parametrize("k", [-600, -300, 300, 600])
    def test_exact_on_2k_x(self, k):
        assert self.norms(2.0**k) == [math.ldexp(b, k) for b in self.norms(1.0)]

    def test_m_phi_norm_at_tiny_scale(self):
        # the form's symbol at 1e-170, where each |phi_i|^2 underflows to 0
        phi = multiplication_form(
            gen.random_normal(np.random.default_rng(5), 6, STANDARD_FRAME), STANDARD_FRAME
        ).phi
        tiny = Symbol(phi.space, phi.values * 1e-170, phi.frame)
        assert m_phi_norm(tiny) == ess_sup(tiny) > 0.0
        assert L2Element(tiny.space, tiny.values).norm() > 0.0


class TestSliceSplit:
    def test_constant_function(self):
        sp = two_atom_space()
        f = L2Element(sp, np.tile(Quaternion(1, 2, 3, 4).to_array(), (2, 1)))
        f1, f2 = l2_slice_split(f, STANDARD_FRAME)
        assert_qclose(Quaternion.from_array(f1.values[0]), Quaternion(1, 2), 0.0)
        assert_qclose(Quaternion.from_array(f2.values[0]), Quaternion(3, 4), 0.0)

    def test_slice_valued_function_has_no_tail(self, rng):
        sp = two_atom_space()
        vals = [Quaternion(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)]
        f = L2Element(sp, np.stack([v.to_array() for v in vals]))
        f1, f2 = l2_slice_split(f, STANDARD_FRAME)
        assert f2.norm() <= 1e-15
        np.testing.assert_allclose(f1.values, f.values, atol=1e-15)

    def test_pure_tail(self):
        sp = two_atom_space()
        g = Quaternion(0.7, -0.2)  # slice value
        f = L2Element(sp, np.tile((g * STANDARD_FRAME.n).to_array(), (2, 1)))
        f1, f2 = l2_slice_split(f, STANDARD_FRAME)
        assert f1.norm() <= 1e-15
        assert_qclose(Quaternion.from_array(f2.values[0]), g, 1e-15)

    def test_pythagoras(self, rng):
        for _ in range(10):
            f_frame = gen.random_frame(rng)
            sp = AtomicMeasureSpace(gen.random_qvector(rng, 5), np.abs(rng.normal(size=5)) + 0.1)
            f = L2Element(sp, gen.random_qvector(rng, 5))
            f1, f2 = l2_slice_split(f, f_frame)
            assert f.norm() ** 2 == pytest.approx(f1.norm() ** 2 + f2.norm() ** 2, rel=1e-12)


class TestPushforward:
    def test_merging_adds_mass(self):
        sp = two_atom_space((1.0, 2.0))
        image = pushforward(sp, lambda q: Quaternion(7))
        assert image.n_atoms == 1
        assert image.total_mass() == 3.0
        assert image.label(0) == Quaternion(7)

    def test_identity_map(self):
        sp = two_atom_space()
        image = pushforward(sp, lambda q: q)
        np.testing.assert_array_equal(image.atoms, sp.atoms)
        np.testing.assert_array_equal(image.weights, sp.weights)

    def test_radial_stretch_label(self):
        sp = AtomicMeasureSpace.from_labels([0.6 * I], [2.0])
        image = pushforward(sp, xi)
        assert image.n_atoms == 1
        assert_qclose(image.label(0), 0.75 * I, 1e-15)  # 0.6 / sqrt(1 - 0.36)
        assert image.weights[0] == 2.0

    def test_mass_preserved(self, rng):
        sp = AtomicMeasureSpace(gen.random_qvector(rng, 9), np.abs(rng.normal(size=9)) + 0.01)
        image = pushforward(sp, lambda q: Quaternion(round(q.re, 1)))
        assert image.total_mass() == pytest.approx(sp.total_mass(), rel=1e-14)

    def test_non_finite_images_never_merge(self):
        # every norm an infinite or NaN image takes part in is NaN or
        # infinite, so the loop kept each one, even an exact repeat
        inf, nan = math.inf, math.nan
        images = [(inf, 0, 0, 0), (inf, 0, 0, 0), (nan, 0, 0, 0), (nan, 0, 0, 0), (1, 0, 0, 0),
                  (1, 0, 0, 0), (1, inf, 0, 0), (1, inf, 0, 0)]
        sp = AtomicMeasureSpace.counting(len(images))
        fn = lambda q: Quaternion(*images[int(q.re) - 1])  # noqa: E731
        image = pushforward(sp, fn)
        with np.errstate(invalid="ignore"):  # inf - inf in the loop
            atoms, weights = _pushforward_loop(sp, fn)
        assert image.n_atoms == 7
        assert np.array_equal(image.atoms, atoms, equal_nan=True)
        assert np.array_equal(image.weights, weights)

    def test_one_call_per_bit_identical_atom(self):
        # repeats reuse the image of their first copy; -0.0 and 0.0 are
        # different bits and get a call each, and so do the NaN rows whose
        # bits differ
        nan = math.nan
        rows = np.array([(1, 2, 0, 0), (0.0, 0, 0, 0), (1, 2, 0, 0), (-0.0, 0, 0, 0),
                         (nan, 0, 0, 0), (0.0, 0, 0, 0), (nan, 0, 0, 0), (3, 0, 0, 0),
                         (-nan, 0, 0, 0), (1, 2, 0, 0)])
        space = AtomicMeasureSpace(rows, np.array([1.0, 2.0, 0.5, 0.0, 1.0, -0.0, 3.0, 1.0, 2.0, 1.0]))
        calls = []

        def fn(q):
            calls.append(q.to_array())
            return q * q

        image = pushforward(space, fn)
        first = [0, 1, 3, 4, 7, 8]
        assert np.array_equal(np.array(calls), rows[first], equal_nan=True)
        assert [np.signbit(c[0]) for c in calls] == [False, False, True, False, False, True]
        with np.errstate(invalid="ignore"):
            atoms, weights = _pushforward_loop(space, lambda q: q * q)
        assert np.array_equal(image.atoms, atoms, equal_nan=True)
        assert image.weights.tobytes() == weights.tobytes()
