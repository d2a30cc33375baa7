"""Unit tests for the scalar model layer."""

import ast
import importlib.util
import inspect
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
    bogoliubov_spectrum,
    bose_occupation,
    dispersion,
    gas_table,
    omega_gap,
    pair_averages,
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
            assert thermal_kernel(energy, beta) == bose_occupation(energy, beta) + 0.5
            assert thermal_kernel(energy, beta) == pytest.approx(
                0.5 / math.tanh(beta * energy / 2.0), rel=1e-14)

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
    """Only the model module writes out ``|k|^2 / 2m``, ``(1/2) coth(beta e / 2)``, the
    Bose factor and the weights of ``F(f, g)``, and only ``ModelParams.v`` the gaussian
    ``v0 exp(-k^2 / kappa^2)``."""

    INLINE = re.compile(r"/\s*\(\s*\d+(\.\d*)?\s*\*\s*(params\.mass|m)\s*\)|math\.tanh\(")
    BOSE_FACTOR = re.compile(r"expm1\(")
    # the thermal bubble's Bose factor carries the shift mu_shift, which bose_occupation
    # does not take, and its angular log needs 1 - e^{-x} itself
    BOSE_FACTOR_EXEMPT = ("asymptotics.py", "bose_bubble_integral")
    # the zero-mode weight 1/2z and the order-parameter weight i g / 2 of F(f, g)
    FLUCT_WEIGHTS = re.compile(r"1\.0 / \(2\.0 \* [\w.]*amplitude\)|0\.5j \* g\b")

    def test_no_inline_copies_outside_model(self):
        package = Path(bosefluct.__file__).parent
        found = []
        for path in sorted(package.glob("*.py")):
            if path.name == "model.py":
                continue
            source = path.read_text()
            exempt = {n for node in ast.walk(ast.parse(source))
                      if isinstance(node, ast.FunctionDef)
                      and (path.name, node.name) == self.BOSE_FACTOR_EXEMPT
                      for n in range(node.lineno, node.end_lineno + 1)}
            found += [f"{path.name}:{n}: {line.strip()}"
                      for n, line in enumerate(source.splitlines(), 1)
                      if self.INLINE.search(line)
                      or (n not in exempt and self.BOSE_FACTOR.search(line))]
        assert found == []

    def test_pattern_catches_the_inline_forms(self):
        for line in ("eps = q_norm**2 / (2.0 * params.mass)", "x = r * r /(2.0 * m)",
                     "e = k2 / (2 * params.mass)", "c = 0.5 / math.tanh(b * e / 2.0)"):
            assert self.INLINE.search(line), line
        for line in ("n = 1.0 / math.expm1(beta * eps)", "out = np.exp(-x) / -np.expm1(-x)"):
            assert self.BOSE_FACTOR.search(line), line
        for line in ("norm = 1.0 / (2.0 * state.one_point_amplitude)",
                     "terms += [(0.5j * g, ((q, True),))]", "-0.5j * g.conjugate()"):
            assert self.FLUCT_WEIGHTS.search(line), line

    def test_fluct_weights_only_in_model(self):
        package = Path(bosefluct.__file__).parent
        assert {path.name for path in package.glob("*.py")
                if self.FLUCT_WEIGHTS.search(path.read_text())} == {"model.py"}

    @staticmethod
    def gaussians(tree):
        """Lines of the ``exp(-...)`` calls whose argument reads ``kappa``."""
        return [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("exp")
                and len(node.args) == 1 and ast.unparse(node.args[0]).startswith("-")
                and "kappa" in ast.unparse(node.args[0])]

    def test_potential_written_only_in_model_params_v(self):
        found = [f"{path.name}:{n}" for path in sorted(Path(bosefluct.__file__).parent.glob("*.py"))
                 for n in self.gaussians(ast.parse(path.read_text()))]
        lines, start = inspect.getsourcelines(ModelParams.v)
        own = [f"model.py:{n}" for n in range(start, start + len(lines))]
        assert [line for line in found if line not in own] == []
        assert len(found) == 1

    def test_pattern_catches_the_gaussian(self):
        for line in ("v = v0 * np.exp(-k ** 2 / kappa ** 2)",
                     "w = math.exp(-(q / params.kappa) ** 2)", "x = exp(-q * q / ctx.kappa**2)"):
            assert len(self.gaussians(ast.parse(line))) == 1, line
        assert self.gaussians(ast.parse("y = np.exp(-k) * kappa + np.exp(kappa)")) == []


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


def package_imports(source):
    """Package modules a source imports (``from .x import``, ``from . import x``), and the
    lines of those imports that sit inside a function body."""
    tree = ast.parse(source)
    in_functions = {id(n) for f in ast.walk(tree)
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for n in ast.walk(f)}
    targets, nested = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            targets.update([node.module.split(".")[0]] if node.module
                           else [alias.name for alias in node.names])
            if id(node) in in_functions:
                nested.append(node.lineno)
    return targets, nested


class TestLayerImports:
    """``model`` imports no package module and the three computing layers import ``model``
    alone, so fits and targets can only live above them; no function body imports from
    the package, so no import cycle hides there."""

    LAYERS = {"model": set(), "asymptotics": {"model"}, "quasifree": {"model"},
              "fock": {"model"}}

    def test_layers_import_only_model(self):
        imports, nested = {}, []
        for path in sorted(Path(bosefluct.__file__).parent.glob("*.py")):
            imports[path.stem], lines = package_imports(path.read_text())
            nested += [f"{path.name}:{n}" for n in lines]
        layers = {name: imports[name] for name in self.LAYERS}
        assert (nested, layers) == ([], self.LAYERS)

    def test_parser_sees_every_form(self):
        source = ("from .model import a\nfrom . import fock, checks\n"
                  "def f():\n    from .fluctuations import b\n")
        assert package_imports(source) == ({"model", "fock", "checks", "fluctuations"}, [4])


class TestOneGasTable:
    """The numbers in which the two gases differ live in ``model.gas_table``. Outside
    ``model`` the tag is compared only where the two gases build different things: the
    ``rho``/``rho0`` kind checks and the anomalous-pair guard of the Wick state, the
    mean-field bubble, and the state that carries the Goldstone remainder. Only ``model``
    refuses an unknown tag."""

    TAG = re.compile(r'(==|!=|not in|\bin) *\(?"(imperfect|wibg)"')
    ALLOWED = {"fluctuations.py": 1, "fock.py": 1, "quasifree.py": 3}

    def test_tag_comparisons_outside_model(self):
        over, refusals = {}, []
        for path in sorted(Path(bosefluct.__file__).parent.glob("*.py")):
            if path.name == "model.py":
                continue
            source = path.read_text()
            if (n := len(self.TAG.findall(source))) > self.ALLOWED.get(path.name, 0):
                over[path.name] = n
            refusals += [path.name] if "unknown model tag" in source else []
        assert (over, refusals) == ({}, [])

    def test_pattern_catches_the_comparisons(self):
        for line in ('if model == "imperfect":', 'elif self.model != "wibg" or m1:',
                     'if model not in ("imperfect", "wibg"):', 'x = kind in ("wibg",)'):
            assert self.TAG.search(line), line
        assert not self.TAG.search('gas_table("wibg", params)')


class TestGasTable:
    MEAN_FIELD = dict(total_density=1.5, condensate_density=1.2, coupling=2.0)
    SUPERFLUID = dict(condensate_amplitude=0.5, v0=2.0, kappa=1.5)

    def test_mean_field_entries(self):
        p = params(**self.MEAN_FIELD)
        table = gas_table("imperfect", p)
        assert (table.g(0.7), table.mu, table.u, table.exponent) == (0.0, 3.0, 2.0, 0.0)
        assert table.amplitude(8.0) == math.sqrt(1.2 * 8.0)
        assert table.omega() == 1.0

    def test_superfluid_entries(self):
        p = params(**self.SUPERFLUID)
        table = gas_table("wibg", p)
        assert (table.g(0.7), table.mu, table.u, table.exponent) == (p.c2v(0.7), 0.0, 2.0, 0.5)
        assert table.amplitude(8.0) == 0.5 * math.sqrt(8.0)
        assert table.omega() == omega_gap(p)

    def test_unknown_tag_refused(self):
        with pytest.raises(ValueError, match="unknown model tag"):
            gas_table("ideal", params(**self.MEAN_FIELD))

    def test_superfluid_without_condensate(self):
        # the couplings are the free gas's; z and Omega need the condensate
        table = gas_table("wibg", params(v0=1.0))
        assert (table.g(0.7), table.mu, table.u) == (0.0, 0.0, 1.0)
        for entry in (lambda: table.amplitude(8.0), table.omega):
            with pytest.raises(ValueError, match="nonzero condensate amplitude"):
                entry()


class TestOperatorAssemblyInFock:
    """Only ``fock`` calls the workspace's ladder, number and transfer operators, so every
    operator on a workspace is assembled in that one layer."""

    CALL = re.compile(r"\b(creator|annihilator|number|transfer_operator)\(")

    def test_no_module_but_fock_assembles_operators(self):
        found = [f"{path.name}:{n}: {line.strip()}"
                 for path in sorted(Path(bosefluct.__file__).parent.glob("*.py"))
                 if path.stem != "fock"
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if self.CALL.search(line)]
        assert found == []

    def test_pattern_catches_the_calls(self):
        for line in ("up = ws.creator(q) @ ws.annihilator(ZERO)", "n = ws.number(mode)",
                     "op = ws.transfer_operator(terms)"):
            assert self.CALL.search(line), line
        for line in ("n_tot = ws.total_number()", "occupation_number = 3"):
            assert not self.CALL.search(line), line


class TestScipyImports:
    """``src/`` imports exactly ``scipy.sparse``, ``scipy.sparse.linalg`` and ``scipy.integrate``:
    every scipy module it imports adds to the start-up time of each process."""

    ALLOWED = {"scipy.sparse", "scipy.sparse.linalg", "scipy.integrate"}

    @staticmethod
    def scipy_modules(source):
        """The scipy modules a source imports; ``from scipy import x`` imports ``scipy.x``."""
        found = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level \
                    and node.module.split(".")[0] == "scipy":
                for alias in node.names:
                    name = f"{node.module}.{alias.name}"
                    found.add(name if importlib.util.find_spec(name) else node.module)
        return {name for name in found if name.split(".")[0] == "scipy"}

    def test_only_the_allowed_modules(self):
        package = Path(bosefluct.__file__).parent
        assert set().union(*(self.scipy_modules(path.read_text())
                             for path in sorted(package.glob("*.py")))) == self.ALLOWED

    def test_reader_resolves_the_import_forms(self):
        cases = {"import scipy.sparse as sp": {"scipy.sparse"},
                 "from scipy import integrate": {"scipy.integrate"},
                 "from scipy.linalg import eigh_tridiagonal": {"scipy.linalg"},
                 "from scipy.sparse.linalg import eigsh, expm_multiply": {"scipy.sparse.linalg"},
                 "import numpy as np\nfrom .model import dispersion": set()}
        for source, modules in cases.items():
            assert self.scipy_modules(source) == modules, source


class TestOneBuilderPerOperator:
    """The +-q ladder sums and the sparse accumulations are written once, in the builders."""

    INLINE = re.compile(r"(creator|annihilator|_ladder)\([^()]*\)(\.adjoint\(\))?\s*\+\s*"
                        r"(ws\.|self\.)?(creator|annihilator|_ladder)\("
                        r"|(?P<acc>\w+) is None else (?P=acc) \+")
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
                     "b = ws._ladder(q) + ws._ladder(minus_q)",
                     "b_dag = ws._ladder(q).adjoint() + ws._ladder(minus_q).adjoint()",
                     "total = op if total is None else total + op",
                     "rewrite = term if rewrite is None else rewrite + term"):
            assert self.INLINE.search(line), line


class TestFockReductions:
    """``fock`` sums its norms and inner products in numpy's own loops: a BLAS
    reduction splits its sum by thread, so the Fock tables would change with
    the BLAS thread count."""

    BLAS = {"np.vdot", "np.linalg.norm"}

    @staticmethod
    def references(source):
        """The dotted names a source refers to, such as ``np.linalg.norm``."""
        return {ast.unparse(node) for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Attribute)}

    def test_fock_uses_no_blas_reduction(self):
        source = (Path(bosefluct.__file__).parent / "fock.py").read_text()
        assert self.references(source) & self.BLAS == set()

    def test_reader_finds_the_calls(self):
        cases = {"x = float(np.linalg.norm(v))": {"np.linalg.norm"},
                 "y = np.vdot(a, b).real": {"np.vdot"},
                 "dot = np.vdot": {"np.vdot"},
                 '"""Not np.vdot: a docstring."""\nz = _inner(a, b)': set()}
        for source, found in cases.items():
            assert self.references(source) & self.BLAS == found, source


class TestBoseOccupation:
    def test_ground_state(self):
        assert bose_occupation(1.0, math.inf) == 0.0

    def test_log2(self):
        assert bose_occupation(math.log(2.0), 1.0) == pytest.approx(1.0)

    def test_divergence_rejected(self):
        for eps in (0.0, -1.0, math.nan, np.array([1.0, 0.0]), np.array([1.0, math.nan])):
            with pytest.raises(ValueError, match="energy > 0"):
                bose_occupation(eps, 1.0)

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


class TestPairAverages:
    SAMPLES = [(float(eps), float(g), beta)
               for eps, g in np.random.default_rng(9).uniform((0.01, 0.0), (3.0, 2.0), (30, 2))
               for beta in (math.inf, 0.3, 2.0)]

    def test_mean_field_gas_is_the_bose_factor(self):
        for eps, _, beta in self.SAMPLES:
            normal, anomalous = pair_averages(eps, 0.0, beta)
            assert (normal, anomalous) == (bose_occupation(eps, beta), 0.0)
            assert type(normal) is float

    def test_quadratures_have_the_diagonal_determinant(self):
        # (N + 1/2)^2 - M^2 = (n + 1/2)^2: the rotation is symplectic
        for eps, g, beta in self.SAMPLES:
            normal, anomalous = pair_averages(eps, g, beta)
            kernel = bose_occupation(bogoliubov_spectrum(eps, g), beta) + 0.5
            assert (normal + 0.5) ** 2 - anomalous**2 == pytest.approx(kernel**2, rel=1e-12)

    def test_ground_state_quadratures(self):
        normal, anomalous = pair_averages(1.0, 1.5, math.inf)
        assert (normal + 0.5 + anomalous, normal + 0.5 - anomalous) == (0.25, 1.0)
        for eps, g, _ in self.SAMPLES:
            normal, anomalous = pair_averages(eps, g, math.inf)
            energy = bogoliubov_spectrum(eps, g)
            assert normal + 0.5 + anomalous == pytest.approx(eps / (2.0 * energy), rel=1e-12)
            assert normal + 0.5 - anomalous == pytest.approx(energy / (2.0 * eps), rel=1e-12)

    @pytest.mark.parametrize("beta", [math.inf, 0.3, 2.0])
    def test_arrays_match_scalars(self, beta):
        eps, g, _ = np.array([sample for sample in self.SAMPLES if sample[2] == beta]).T
        normal, anomalous = pair_averages(eps.reshape(5, 6), g.reshape(5, 6), beta)
        assert normal.shape == anomalous.shape == (5, 6)
        scalars = np.array([pair_averages(float(e), float(c), beta) for e, c in zip(eps, g)])
        assert normal.ravel().tolist() == scalars[:, 0].tolist()
        assert anomalous.ravel().tolist() == scalars[:, 1].tolist()

    def test_zero_mode_refused(self):
        for eps in (0.0, -1.0, math.nan, np.array([1.0, 0.0])):
            with pytest.raises(ValueError, match="eps > 0"):
                pair_averages(eps, 1.0, math.inf)


class TestOmegaGap:
    def test_unit(self):
        p = params(condensate_amplitude=1.0, v0=1.0, kappa=2.0,
                   total_density=1.0, condensate_density=1.0)
        assert omega_gap(p) == pytest.approx(2.0)

    def test_quarter_mass(self):
        p = params(mass=0.25, condensate_amplitude=1.0,
                   v0=1.0, kappa=2.0,
                   total_density=1.0, condensate_density=1.0)
        assert omega_gap(p) == pytest.approx(1.0)

    def test_double_potential(self):
        p = params(condensate_amplitude=1.0, v0=2.0, kappa=2.0,
                   total_density=1.0, condensate_density=1.0)
        assert omega_gap(p) == pytest.approx(math.sqrt(8.0))

    def test_no_condensate(self):
        with pytest.raises(ValueError):
            omega_gap(params(v0=1.0))

    def test_gap_is_small_q_limit(self):
        p = params(condensate_amplitude=1.0, v0=1.0, kappa=2.0,
                   total_density=1.0, condensate_density=1.0)
        q = 1e-4
        eps = q * q / 2.0
        ratio = bogoliubov_spectrum(eps, p.c2v(q)) * q / eps
        assert ratio == pytest.approx(omega_gap(p), rel=1e-6)


class TestModelParams:
    def test_condensate_bound(self):
        with pytest.raises(ValueError):
            params(total_density=1.0, condensate_density=2.0)

    @pytest.mark.parametrize("field", ["coupling", "total_density", "condensate_density",
                                       "condensate_amplitude"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_refused(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            params(**{field: value})

    @pytest.mark.parametrize("field,value", [("v0", -1.0), ("v0", 0.0), ("v0", math.nan),
                                             ("kappa", 0.0), ("kappa", math.inf)])
    def test_potential_not_positive_and_finite_refused(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite$"):
            params(**{field: value})

    def test_potential_enters_equality_and_hash(self):
        base = params(condensate_amplitude=1.0, v0=1.0)
        assert base == params(condensate_amplitude=1.0, v0=1.0, kappa=2.0)
        for other in (params(condensate_amplitude=1.0, v0=5.0),
                      params(condensate_amplitude=1.0, v0=1.0, kappa=3.0)):
            assert base != other
            assert hash(base) != hash(other)

    def test_missing_potential(self):
        with pytest.raises(ValueError):
            params().v(1.0)

    def test_array_potential_matches_scalar_bit_for_bit(self):
        p = params(condensate_amplitude=0.7, v0=1.3, kappa=0.9,
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
