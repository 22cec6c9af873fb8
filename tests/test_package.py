"""The package's public names: each one in ``__all__`` resolves, and the
names and modules removed from it stay removed."""

import importlib.util
import inspect

import pytest

import cfbvp
from cfbvp import endpoint, green, hypotheses, quadrature, solver
from cfbvp.hypotheses import ProblemSpec
from cfbvp.quadrature import Mesh


@pytest.mark.parametrize("name", cfbvp.__all__)
def test_exported_name_resolves(name):
    assert getattr(cfbvp, name) is not None


@pytest.mark.parametrize("module, name", [
    (cfbvp, "FracOrder"), (cfbvp, "as_order"), (cfbvp, "epsilon_max"),
    (hypotheses, "epsilon_max"), (hypotheses, "REFINE_REL_TOL"), (hypotheses, "REFINE_MESHES"),
    (cfbvp, "GeneralSolutionCoeffs"), (Mesh, "rescaled"),
    (Mesh, "a"), (Mesh, "b"), (solver, "_integrand"),
    (cfbvp, "cf_left"), (cfbvp, "cf_right"), (cfbvp, "apply_green"),
    (cfbvp, "general_solution_left_half"), (cfbvp, "general_solution_right_half"),
    (cfbvp, "residual_linear"), (green, "apply_green"),
    # one Gauss order: its tables are module constants, not functions of an order
    (quadrature, "_gauss_rule"), (quadrature, "gauss_integration_matrix"),
    (endpoint, "_lagrange_coefficients"),
    # one mesh, build_mesh(cells): no grading, and no second mesh for A2
    (quadrature.build_mesh, "gamma"), (hypotheses, "SIZE_MESH"),
    (hypotheses, "_size_integrands"), (ProblemSpec, "default_mesh"),
    # a deleted module goes by its dotted path: none of its names can come back
    ("cfbvp.cf_derivative", "FracOrder"), ("cfbvp.cf_derivative", "as_order"),
    ("cfbvp.cf_derivative", "check_unit_mesh"), ("cfbvp.linear", "GeneralSolutionCoeffs"),
    ("cfbvp.linear", "ResidualReport"),
])
def test_removed_name_is_gone(module, name):
    if isinstance(module, str):
        if importlib.util.find_spec(module) is None:
            return
        module = importlib.import_module(module)
    elif callable(module) and not isinstance(module, type):  # a function's parameter
        assert name not in inspect.signature(module).parameters
        return
    assert name not in getattr(module, "__all__", ())  # a class has no __all__
    assert not hasattr(module, name)


@pytest.mark.parametrize("name", ["cfbvp.linear", "cfbvp.cf_derivative"])
def test_removed_module_is_gone(name):
    # the CF derivatives and the linear lemma are test oracles (tests/linear_oracles.py)
    assert importlib.util.find_spec(name) is None
