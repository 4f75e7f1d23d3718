"""Public-API surface tests: imports, exports, and docstring hygiene."""

import importlib
import inspect
from pathlib import Path

import pytest

import repro

SUBPACKAGES = [
    "repro.linalg",
    "repro.systems",
    "repro.volterra",
    "repro.mor",
    "repro.circuits",
    "repro.simulation",
    "repro.analysis",
]


class TestExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_version_matches_pyproject(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with open(pyproject, "rb") as handle:
            project = tomllib.load(handle)["project"]
        assert project["version"] == repro.__version__

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackage_all_resolves(self, name):
        module = importlib.import_module(name)
        assert hasattr(module, "__all__")
        for symbol in module.__all__:
            assert hasattr(module, symbol), f"{name}.{symbol} missing"

    def test_top_level_exports(self):
        for symbol in repro.__all__:
            assert hasattr(repro, symbol)

    def test_key_classes_importable_from_top(self):
        assert repro.QLDAE is not None
        assert repro.AssociatedTransformMOR is not None
        assert repro.NORMReducer is not None
        assert callable(repro.simulate)


class TestDocstrings:
    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_public_callables_documented(self, name):
        """Every exported class/function carries a docstring."""
        module = importlib.import_module(name)
        undocumented = []
        for symbol in module.__all__:
            obj = getattr(module, symbol)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(symbol)
        assert not undocumented, f"{name}: {undocumented}"

    def test_public_methods_documented(self):
        """Spot-check: the main user-facing classes document methods."""
        from repro.mor import AssociatedTransformMOR, NORMReducer
        from repro.systems import PolynomialODE, StateSpace

        for cls in (
            AssociatedTransformMOR,
            NORMReducer,
            PolynomialODE,
            StateSpace,
        ):
            for name, member in inspect.getmembers(
                cls, predicate=inspect.isfunction
            ):
                if name.startswith("_"):
                    continue
                assert (member.__doc__ or "").strip(), (
                    f"{cls.__name__}.{name} lacks a docstring"
                )


class TestErrorHierarchy:
    def test_all_errors_derive_from_base(self):
        from repro.errors import (
            ConvergenceError,
            NumericalError,
            ReproError,
            SystemStructureError,
            ValidationError,
        )

        for exc in (
            ConvergenceError,
            NumericalError,
            SystemStructureError,
            ValidationError,
        ):
            assert issubclass(exc, ReproError)
        assert issubclass(ValidationError, ValueError)
        assert issubclass(NumericalError, ArithmeticError)

    def test_convergence_error_payload(self):
        from repro.errors import ConvergenceError

        err = ConvergenceError("stalled", iterations=7, residual=0.5)
        assert err.iterations == 7
        assert err.residual == 0.5
