"""Lipschitz dual certificates and the gradient picture."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tcspace import (
    LipFunction,
    TransportationProblem,
    cut_decomposition,
    dual_optimal,
    gradient_field,
    l1_norm,
    linf_d_norm,
    lip_constant,
    pairing,
    tc_norm,
)

from helpers import line_space, spaces_with_problems

LINE = line_space([0, 1, 3])

small = st.fractions(min_value=-4, max_value=4, max_denominator=4)


class TestLipBasics:
    def test_constant_function(self):
        assert lip_constant(LINE, LipFunction((F(5), F(5), F(5)))) == F(0)

    def test_steepest_pair_wins(self):
        h = LipFunction((F(0), F(-1), F(-3)))
        assert lip_constant(LINE, h) == F(1)
        assert lip_constant(LINE, LipFunction((F(0), F(2), F(0)))) == F(2)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            lip_constant(LINE, LipFunction((F(0), F(1))))

    def test_pairing(self):
        f = TransportationProblem.from_values({0: F(2), 1: F(-1), 2: F(-1)})
        h = LipFunction((F(0), F(-1), F(-3)))
        assert pairing(h, f) == F(4)
        with pytest.raises(ValueError):
            pairing(LipFunction((F(0),)), f)

    def test_indexing(self):
        h = LipFunction((F(0), F(1, 2)))
        assert len(h) == 2
        assert h[1] == F(1, 2)


class TestDualCertificates:
    def test_line_example(self):
        f = TransportationProblem.from_values({0: F(2), 1: F(-1), 2: F(-1)})
        h, value = dual_optimal(LINE, f)
        assert value == F(4)
        assert h.values == (F(0), F(-1), F(-3))
        assert pairing(h, f) == value
        assert lip_constant(LINE, h) == F(1)

    def test_base_point_is_pinned(self):
        f = TransportationProblem.from_values({0: F(1), 2: F(-1)})
        for base in range(3):
            h, value = dual_optimal(LINE, f, base=base)
            assert h[base] == F(0)
            assert value == F(3)

    def test_zero_problem(self):
        h, value = dual_optimal(LINE, TransportationProblem())
        assert value == F(0)
        assert lip_constant(LINE, h) <= F(1)

    def test_input_validation(self):
        f = TransportationProblem.from_values({0: F(1), 1: F(-1)})
        with pytest.raises(IndexError):
            dual_optimal(LINE, f, base=7)
        far = TransportationProblem.from_values({0: F(1), 9: F(-1)})
        with pytest.raises(IndexError):
            dual_optimal(LINE, far)

    @given(spaces_with_problems())
    def test_strong_duality(self, case):
        space, f = case
        norm, _ = tc_norm(space, f)
        h, value = dual_optimal(space, f)
        assert value == norm
        assert pairing(h, f) == norm
        assert lip_constant(space, h) <= F(1)
        assert h[0] == F(0)

    @given(st.data())
    def test_weak_duality(self, data):
        space, f = data.draw(spaces_with_problems())
        raw = LipFunction(tuple(data.draw(small) for _ in range(space.n)))
        lip = lip_constant(space, raw)
        norm, _ = tc_norm(space, f)
        assert pairing(raw, f) <= lip * norm

    @given(st.data())
    def test_base_point_shifts_certificate_only(self, data):
        space, f = data.draw(spaces_with_problems())
        base = data.draw(st.integers(0, space.n - 1))
        h0, v0 = dual_optimal(space, f)
        hb, vb = dual_optimal(space, f, base=base)
        assert v0 == vb
        assert hb[base] == F(0)


class TestGradients:
    def test_field_entries(self):
        h = LipFunction((F(0), F(-1), F(-3)))
        g = gradient_field(LINE, h)
        assert g.value(0, 1) == F(-1)
        assert g.value(0, 2) == F(-3)
        assert g.value(1, 2) == F(-2)

    def test_linf_matches_lip(self):
        h = LipFunction((F(0), F(-1), F(-3)))
        assert linf_d_norm(LINE, gradient_field(LINE, h)) == F(1)

    @given(st.data())
    def test_linf_of_gradient_is_the_lip_constant(self, data):
        space, _ = data.draw(spaces_with_problems())
        h = LipFunction(tuple(data.draw(small) for _ in range(space.n)))
        g = gradient_field(space, h)
        assert linf_d_norm(space, g) == lip_constant(space, h)

    @given(st.data())
    def test_gradients_have_no_cycle_part(self, data):
        space, _ = data.draw(spaces_with_problems())
        h = LipFunction(tuple(data.draw(small) for _ in range(space.n)))
        z, b = cut_decomposition(gradient_field(space, h))
        assert z.is_zero
        assert b == gradient_field(space, h)

    @given(st.data())
    def test_pairing_is_boundary_coupling(self, data):
        # the pairing of h with f equals the edge-wise coupling of the
        # gradient field with any lift; check against the dual certificate
        space, f = data.draw(spaces_with_problems())
        h, value = dual_optimal(space, f)
        g = gradient_field(space, h)
        assert linf_d_norm(space, g) <= F(1)
        assert pairing(h, f) == value
