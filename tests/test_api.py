"""Each module's ``__all__`` is its public API, and the package republishes three."""

import inspect

import pytest

import mallows_binomial
from mallows_binomial import asymptotics, bootstrap, cli, estimation, io, model, sampling

MODULES = [model, estimation, sampling, io, bootstrap, asymptotics, cli]

PACKAGE_NAMES = [
    "DEFAULT_BOUNDS", "Dataset", "FitResult", "ParamBounds", "Params", "ProfileFit",
    "SufficientStats", "__version__", "as_ranking", "constrained_p_mle", "derive_seed",
    "distance_mean_var", "distance_variance", "expected_distance", "fit", "fit_best_first",
    "fit_exhaustive", "kendall_distance", "log_likelihood", "log_psi",
    "max_kendall_distance", "order_of", "profile_loglik", "psi", "sample_dataset",
    "sample_mallows", "sample_ratings", "spawn_rng", "theta_mle",
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__.split(".")[-1])
def test_every_public_definition_is_in_its_modules_all(module):
    defined = {
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }
    assert defined - set(module.__all__) == set()


def test_package_all_is_the_three_module_lists():
    republished = [*model.__all__, *estimation.__all__, *sampling.__all__, "__version__"]
    assert len(set(republished)) == len(republished)
    assert sorted(mallows_binomial.__all__) == sorted(republished) == PACKAGE_NAMES
    for module in (model, estimation, sampling):
        for name in module.__all__:
            value = getattr(mallows_binomial, name)
            assert value is getattr(module, name)
            if inspect.isfunction(value) or inspect.isclass(value):
                assert value.__module__ == module.__name__
