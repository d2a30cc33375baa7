"""Unit tests for the scalar model layer."""

import ast
import importlib
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import bosefluct
from bosefluct.model import (
    ModelParams,
    MomentumGrid,
    bogoliubov_coefficients,
    bogoliubov_spectrum,
    bose_occupation,
    dispersion,
    gaussian_potential,
    omega_gap,
    thermal_kernel,
)


def params(mass=1.0, **kw):
    return ModelParams(mass=mass, **kw)


class TestDispersion:
    def test_zero(self):
        assert dispersion((0, 0, 0), params()) == 0.0

    def test_half_mass(self):
        assert dispersion((1, 0, 0), params(mass=0.5)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert dispersion((1, 1, 1), params()) == pytest.approx(1.5)

    def test_even(self):
        p = params(mass=0.7)
        k = np.array([0.3, -1.2, 2.0])
        assert dispersion(k, p) == pytest.approx(dispersion(-k, p))

    def test_scalar_norm(self):
        assert dispersion(2.0, params()) == pytest.approx(2.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            dispersion((np.nan, 0, 0), params())

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_scalar(self, k):
        with pytest.raises(ValueError):
            dispersion(k, params())

    @pytest.mark.parametrize("k", [1e-6, 0.3, 1.7, 3, np.float64(2.9)])
    def test_scalar_matches_vector(self, k):
        p = params(mass=0.7)
        value = dispersion(k, p)
        assert type(value) is float
        assert value == dispersion((0.0, 0.0, k), p)
        assert value == dispersion(np.array(k), p)
        assert value == dispersion(np.array([[k, 0.0, 0.0]]), p)[0]


class TestThermalKernel:
    def test_ground_state(self):
        assert thermal_kernel(0.3, math.inf) == 0.5

    def test_is_occupation_plus_half(self):
        for energy, beta in ((0.2, 1.0), (1.5, 2.0), (3.0, 0.5)):
            assert thermal_kernel(energy, beta) == pytest.approx(
                bose_occupation(energy, beta) + 0.5, rel=1e-14)

    @pytest.mark.parametrize("energy", [0.0, -1.0, math.nan])
    def test_nonpositive_energy_refused(self, energy):
        with pytest.raises(ValueError, match="energy > 0"):
            thermal_kernel(energy, 1.0)
        assert thermal_kernel(energy, math.inf) == 0.5


@pytest.mark.parametrize("module", ["bosefluct", "bosefluct.model", "bosefluct.quasifree",
                                    "bosefluct.fluctuations", "bosefluct.asymptotics",
                                    "bosefluct.fock", "bosefluct.checks"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


class TestSingleSource:
    """Only the model module writes out ``|k|^2 / 2m`` and ``(1/2) coth(beta e / 2)``."""

    INLINE = re.compile(r"/\s*\(\s*\d+(\.\d*)?\s*\*\s*(params\.mass|m)\s*\)|math\.tanh\(")

    def test_no_inline_copies_outside_model(self):
        package = Path(bosefluct.__file__).parent
        found = [f"{path.name}:{n}: {line.strip()}"
                 for path in sorted(package.glob("*.py")) if path.name != "model.py"
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if self.INLINE.search(line)]
        assert found == []

    def test_pattern_catches_the_inline_forms(self):
        for line in ("eps = q_norm**2 / (2.0 * params.mass)", "x = r * r /(2.0 * m)",
                     "e = k2 / (2 * params.mass)", "c = 0.5 / math.tanh(b * e / 2.0)"):
            assert self.INLINE.search(line), line


class TestEveryExportIsReached:
    """Each name ``bosefluct`` exports is used by the library itself or by the benchmark."""

    def test_no_export_is_reached_only_by_tests(self):
        package = Path(bosefluct.__file__).parent
        sources = [path for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
        sources += sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
        used = set()
        for path in sources:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
        assert sorted(set(bosefluct.__all__) - used) == []


class TestOneBuilderPerOperator:
    """The +-q ladder sums and the sparse accumulations are written once, in the builders."""

    INLINE = re.compile(r"(creator|annihilator)\([^()]*\)\s*\+\s*(ws\.|self\.)?"
                        r"(creator|annihilator)\(|(?P<acc>\w+) is None else (?P=acc) \+")
    BUILDERS = {"_ladder_sums"}

    def test_no_inline_copies_outside_the_builders(self):
        found = []
        for path in sorted(Path(bosefluct.__file__).parent.glob("*.py")):
            source = path.read_text()
            inside = {n for node in ast.walk(ast.parse(source))
                      if isinstance(node, ast.FunctionDef) and node.name in self.BUILDERS
                      for n in range(node.lineno, node.end_lineno + 1)}
            found += [f"{path.name}:{n}: {line.strip()}"
                      for n, line in enumerate(source.splitlines(), 1)
                      if n not in inside and self.INLINE.search(line)]
        assert found == []

    def test_pattern_catches_the_inline_forms(self):
        for line in ("b_dag = ws.creator(q) + ws.creator(minus_q)",
                     "x = (ws.creator(q) + ws.creator(minus_q)",
                     "+ ws.annihilator(q) + ws.annihilator(minus_q))",
                     "total = op if total is None else total + op",
                     "rewrite = term if rewrite is None else rewrite + term"):
            assert self.INLINE.search(line), line


class TestBoseOccupation:
    def test_ground_state(self):
        assert bose_occupation(1.0, math.inf) == 0.0

    def test_log2(self):
        assert bose_occupation(math.log(2.0), 1.0) == pytest.approx(1.0)

    def test_divergence_rejected(self):
        with pytest.raises(ValueError):
            bose_occupation(0.0, 1.0)

    def test_matches_expm1_form_and_never_overflows(self):
        x = np.geomspace(1e-10, 700.0, 2001)
        assert np.allclose(bose_occupation(x, 1.0), 1.0 / np.expm1(x), rtol=1e-15, atol=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tail = bose_occupation(np.array([710.0, 800.0, 1e6]), 1.0)
        assert np.all((tail >= 0.0) & (tail < 1e-300))

    def test_array(self):
        out = bose_occupation(np.array([1.0, 2.0]), math.inf)
        assert np.all(out == 0.0)


class TestBogoliubovSpectrum:
    def test_free_limit(self):
        assert bogoliubov_spectrum(1.0, 0.0) == pytest.approx(1.0)

    def test_value(self):
        assert bogoliubov_spectrum(1.0, 1.5) == pytest.approx(2.0)

    def test_gapless(self):
        assert bogoliubov_spectrum(0.0, 1.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bogoliubov_spectrum(-1.0, 0.5)

    def test_upper_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            eps, g = rng.uniform(0, 3, size=2)
            assert bogoliubov_spectrum(eps, g) <= eps + g + 1e-12


class TestBogoliubovCoefficients:
    def test_identity_transformation(self):
        co = bogoliubov_coefficients(1.3, 0.0)
        assert co.tanh2a == pytest.approx(0.0)
        assert co.plus_sq == pytest.approx(1.0)
        assert co.minus_sq == pytest.approx(1.0)

    def test_tanh_value(self):
        assert bogoliubov_coefficients(1.0, 1.0).tanh2a == pytest.approx(-0.5)

    def test_quadrature_rescalings(self):
        co = bogoliubov_coefficients(1.0, 1.5)
        assert co.plus_sq == pytest.approx(0.5)
        assert co.minus_sq == pytest.approx(2.0)

    def test_hyperbolic_identities(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            eps = rng.uniform(0.1, 3.0)
            g = rng.uniform(0.0, 2.0)
            co = bogoliubov_coefficients(eps, g)
            assert co.cosh2a**2 - co.sinh2a**2 == pytest.approx(1.0, abs=1e-12)
            assert co.plus_sq * co.minus_sq == pytest.approx(1.0, abs=1e-12)
            # (cosh a + sinh a)^2 recovers plus_sq through the half-angle values
            assert (co.cosh_a + co.sinh_a) ** 2 == pytest.approx(co.plus_sq)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            bogoliubov_coefficients(0.0, 1.0)


class TestOmegaGap:
    def test_unit(self):
        p = params(condensate_amplitude=1.0, potential=gaussian_potential(1.0, 2.0),
                   total_density=1.0, condensate_density=1.0)
        assert omega_gap(p) == pytest.approx(2.0)

    def test_quarter_mass(self):
        p = params(mass=0.25, condensate_amplitude=1.0,
                   potential=gaussian_potential(1.0, 2.0),
                   total_density=1.0, condensate_density=1.0)
        assert omega_gap(p) == pytest.approx(1.0)

    def test_double_potential(self):
        p = params(condensate_amplitude=1.0, potential=gaussian_potential(2.0, 2.0),
                   total_density=1.0, condensate_density=1.0)
        assert omega_gap(p) == pytest.approx(math.sqrt(8.0))

    def test_no_condensate(self):
        with pytest.raises(ValueError):
            omega_gap(params(potential=gaussian_potential()))

    def test_gap_is_small_q_limit(self):
        p = params(condensate_amplitude=1.0, potential=gaussian_potential(1.0, 2.0),
                   total_density=1.0, condensate_density=1.0)
        q = 1e-4
        eps = q * q / 2.0
        ratio = bogoliubov_spectrum(eps, p.c2v(q)) * q / eps
        assert ratio == pytest.approx(omega_gap(p), rel=1e-6)


class TestModelParams:
    def test_chemical_potential(self):
        p = params(coupling=2.0, total_density=1.5)
        assert p.chemical_potential == pytest.approx(3.0)

    def test_condensate_bound(self):
        with pytest.raises(ValueError):
            params(total_density=1.0, condensate_density=2.0)

    @pytest.mark.parametrize("field", ["coupling", "total_density", "condensate_density",
                                       "condensate_amplitude"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_refused(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            params(**{field: value})

    def test_missing_potential(self):
        with pytest.raises(ValueError):
            params().v(1.0)

    def test_array_potential_matches_scalar_bit_for_bit(self):
        p = params(condensate_amplitude=0.7, potential=gaussian_potential(1.3, 0.9),
                   total_density=1.0, condensate_density=0.49)
        radii = np.concatenate(([0.0, 1e-4], np.random.default_rng(3).uniform(-6.0, 6.0, 61)))
        for method in (p.v, p.c2v):
            assert type(method(0.5)) is float
            values = method(radii.reshape(7, 9))
            assert values.shape == (7, 9)
            assert values.ravel().tolist() == [method(float(k)) for k in radii]


class TestMomentumGrid:
    def test_modes_on_lattice(self):
        grid = MomentumGrid(3.0, 4.0)
        recon = grid.lattice_points * grid.spacing
        assert np.allclose(recon, grid.modes)
        assert np.all(np.linalg.norm(grid.modes, axis=1) <= 4.0 * (1 + 1e-9))

    def test_volume(self):
        assert MomentumGrid(3.0, 2.0).volume == pytest.approx(27.0)

    def test_mode_cap(self):
        with pytest.raises(ValueError):
            MomentumGrid(100.0, 50.0)
