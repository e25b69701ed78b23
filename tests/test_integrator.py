"""Leap-frog integrator, kinetic energy, COM removal."""

import numpy as np
import pytest

from repro.md.integrator import (
    BOLTZ,
    LeapFrogIntegrator,
    instantaneous_temperature,
    kinetic_energy,
    remove_com_motion,
)


class TestKinetics:
    def test_kinetic_energy(self):
        v = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        m = np.array([2.0, 1.0])
        assert kinetic_energy(v, m) == pytest.approx(0.5 * 2 * 1 + 0.5 * 1 * 4)

    def test_temperature_roundtrip(self):
        rng = np.random.default_rng(0)
        n, t_ref = 20000, 300.0
        m = np.full(n, 18.0)
        sigma = np.sqrt(BOLTZ * t_ref / m)[:, None]
        v = rng.normal(size=(n, 3)) * sigma
        assert instantaneous_temperature(v, m) == pytest.approx(t_ref, rel=0.02)

    def test_temperature_empty(self):
        assert instantaneous_temperature(np.zeros((0, 3)), np.zeros(0)) == 0.0

    def test_com_removal(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=(50, 3))
        m = rng.uniform(1, 20, 50)
        v2 = remove_com_motion(v, m)
        p = (m[:, None] * v2).sum(axis=0)
        np.testing.assert_allclose(p, 0.0, atol=1e-10)


class TestLeapFrog:
    def test_free_particle_constant_velocity(self):
        integ = LeapFrogIntegrator(dt=0.002)
        x = np.zeros((1, 3))
        v = np.array([[1.0, 0.0, 0.0]])
        f = np.zeros((1, 3))
        m = np.ones(1)
        for _ in range(10):
            x, v = integ.step(x, v, f, m)
        np.testing.assert_allclose(v, [[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(x, [[0.02, 0.0, 0.0]])

    def test_constant_force_acceleration(self):
        integ = LeapFrogIntegrator(dt=0.001)
        x = np.zeros((1, 3))
        v = np.zeros((1, 3))
        f = np.array([[2.0, 0.0, 0.0]])
        m = np.array([2.0])
        x, v = integ.step(x, v, f, m)
        np.testing.assert_allclose(v, [[0.001, 0.0, 0.0]])

    def test_harmonic_oscillator_energy_stable(self):
        """Leap-frog is symplectic: oscillator energy bounded over many periods."""
        k, m, dt = 100.0, 1.0, 0.005
        integ = LeapFrogIntegrator(dt=dt)
        x = np.array([[0.5, 0.0, 0.0]])
        v = np.zeros((1, 3))
        masses = np.array([m])
        energies = []
        for _ in range(4000):
            f = -k * x
            x, v = integ.step(x, v, f, masses)
            energies.append(0.5 * k * float(x[0, 0] ** 2) + 0.5 * m * float(v[0, 0] ** 2))
        energies = np.array(energies[100:])
        assert energies.std() / energies.mean() < 0.02

    def test_dtype_preserved(self):
        integ = LeapFrogIntegrator()
        x = np.zeros((2, 3), dtype=np.float32)
        v = np.zeros((2, 3), dtype=np.float32)
        f = np.ones((2, 3), dtype=np.float32)
        x2, v2 = integ.step(x, v, f, np.ones(2))
        assert x2.dtype == np.float32 and v2.dtype == np.float32

    def test_validation(self):
        with pytest.raises(ValueError):
            LeapFrogIntegrator(dt=0.0)
