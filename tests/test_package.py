"""The package's public names: each one in ``__all__`` resolves, and the
names removed from it stay removed."""

import pytest

import cfbvp
from cfbvp import cf_derivative, hypotheses, linear, solver
from cfbvp.quadrature import Mesh


@pytest.mark.parametrize("name", cfbvp.__all__)
def test_exported_name_resolves(name):
    assert getattr(cfbvp, name) is not None


@pytest.mark.parametrize("module, name", [
    (cfbvp, "FracOrder"), (cfbvp, "as_order"), (cfbvp, "epsilon_max"),
    (cf_derivative, "FracOrder"), (cf_derivative, "as_order"),
    (hypotheses, "epsilon_max"), (cfbvp, "GeneralSolutionCoeffs"),
    (linear, "GeneralSolutionCoeffs"), (linear, "ResidualReport"), (Mesh, "rescaled"),
    (cf_derivative, "check_unit_mesh"), (Mesh, "a"), (Mesh, "b"), (solver, "_integrand"),
])
def test_removed_name_is_gone(module, name):
    assert name not in getattr(module, "__all__", ())  # a class has no __all__
    assert not hasattr(module, name)
