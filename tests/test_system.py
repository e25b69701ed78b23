"""MDSystem state container and periodic-boundary helpers."""

import numpy as np
import pytest

from repro.md.system import MDSystem, minimum_image, wrap_positions


def _system(n=10, dtype=np.float64):
    rng = np.random.default_rng(0)
    box = np.array([2.0, 3.0, 4.0])
    return MDSystem(
        box=box,
        positions=(rng.random((n, 3)) * box).astype(dtype),
        velocities=np.zeros((n, 3), dtype=dtype),
        type_ids=np.zeros(n, dtype=np.int32),
        charges=np.zeros(n),
        masses=np.ones(n),
    )


class TestWrap:
    def test_wrap_into_box(self):
        box = np.array([2.0, 2.0, 2.0])
        pos = np.array([[2.5, -0.5, 1.0]])
        w = wrap_positions(pos, box)
        assert np.all(w >= 0) and np.all(w < box)
        np.testing.assert_allclose(w, [[0.5, 1.5, 1.0]])

    def test_wrap_boundary_value_float32(self):
        """-epsilon must fold to something strictly inside [0, box)."""
        box = np.array([2.0, 2.0, 2.0])
        pos = np.array([[-1e-9, 0.0, 0.0]], dtype=np.float32)
        w = wrap_positions(pos, box)
        assert np.all(w < box) and np.all(w >= 0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_wrap_matches_the_mod_formula(self, dtype):
        """Only coordinates outside ``(0, box)`` take the mod, and the result
        is still the plain mod-and-fold formula's, bit for bit: signed
        zeros, exact box lengths and float32 folds included."""
        box = np.array([3.1, 2.7, 4.4])
        pos = (np.random.default_rng(0).random((4000, 3)) * 3 - 1) * box
        pos[:4] = [[0.0, -0.0, -1e-9], [3.1, 2.7, 4.4], [-3.1, -1e-30, 8.8], [1e-30, 2.7 - 1e-16, -0.0]]
        pos = pos.astype(dtype)
        edge = box.astype(dtype)
        want = np.mod(pos, edge)
        want = np.where(want >= edge, 0.0, want).astype(dtype)
        got = wrap_positions(pos, box)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_wrap_rejects_bad_box(self):
        with pytest.raises(ValueError):
            wrap_positions(np.zeros((1, 3)), np.array([1.0, 0.0, 1.0]))


class TestMinimumImage:
    def test_basic(self):
        box = np.array([2.0, 2.0, 2.0])
        dx = np.array([[1.5, -1.5, 0.3]])
        out = minimum_image(dx, box)
        np.testing.assert_allclose(out, [[-0.5, 0.5, 0.3]])

    def test_partial_periodicity(self):
        box = np.array([2.0, 2.0, 2.0])
        dx = np.array([[1.5, 1.5, 1.5]])
        out = minimum_image(dx, box, periodic=np.array([True, False, False]))
        np.testing.assert_allclose(out, [[-0.5, 1.5, 1.5]])

    def test_magnitude_bound(self):
        rng = np.random.default_rng(3)
        box = np.array([2.0, 3.0, 4.0])
        dx = rng.uniform(-10, 10, size=(100, 3))
        out = minimum_image(dx, box)
        assert np.all(np.abs(out) <= box / 2 + 1e-12)


class TestMDSystem:
    def test_properties(self):
        s = _system(12)
        assert s.n_atoms == 12
        assert s.volume == pytest.approx(24.0)
        assert s.density == pytest.approx(0.5)
        assert s.forces.shape == (12, 3)

    def test_copy_is_deep(self):
        s = _system()
        c = s.copy()
        c.positions[0, 0] = 99.0
        assert s.positions[0, 0] != 99.0

    def test_astype(self):
        s = _system(dtype=np.float64)
        s32 = s.astype(np.float32)
        assert s32.positions.dtype == np.float32
        assert s32.charges.dtype == np.float64  # charges stay f64

    def test_wrap_in_place(self):
        s = _system()
        s.positions[0] = s.box + 0.5
        s.wrap()
        assert np.all(s.positions[0] < s.box)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MDSystem(
                box=np.ones(3),
                positions=np.zeros((3, 3)),
                velocities=np.zeros((2, 3)),  # wrong
                type_ids=np.zeros(3, dtype=np.int32),
                charges=np.zeros(3),
                masses=np.ones(3),
            )

    def test_positive_masses_required(self):
        with pytest.raises(ValueError):
            MDSystem(
                box=np.ones(3),
                positions=np.zeros((2, 3)),
                velocities=np.zeros((2, 3)),
                type_ids=np.zeros(2, dtype=np.int32),
                charges=np.zeros(2),
                masses=np.array([1.0, 0.0]),
            )
