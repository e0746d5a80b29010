import os
import re
import subprocess
import sys

import pytest

import rumorlab
from rumorlab import (
    alpha_critical,
    asymptotic_h_bound,
    beta_gap,
    beta_paper,
    beta_series,
    cayley,
    coupled_monotonicity_trial,
    estimate_survival_levels,
    hub_path,
    max_h,
    offspring_empirical,
    path_traversal_empirical,
    survival_mc,
)
from rumorlab._seeds import run_jobs


def test_every_public_name_resolves():
    missing = [name for name in rumorlab.__all__ if not hasattr(rumorlab, name)]
    assert missing == []
    assert len(set(rumorlab.__all__)) == len(rumorlab.__all__)


def test_cli_start_up_imports_no_process_pool():
    # the pool stack is imported only once a run hands jobs to a pool
    src = os.path.dirname(os.path.dirname(rumorlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, rumorlab.cli; rumorlab.cli.build_parser(); "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


BOUNDED_INTEGERS = {
    "survival_mc-replicas": (lambda v: survival_mc(4, 0.9, v), "replicas", 1),
    "estimate_survival_levels-replicas": (
        lambda v: estimate_survival_levels(cayley(3), 0.9, [5], replicas=v), "replicas", 1
    ),
    "offspring_empirical-replicas": (lambda v: offspring_empirical(3, 0.9, v), "replicas", 1),
    "path_traversal_empirical-replicas": (lambda v: path_traversal_empirical(3, v), "replicas", 1),
    "alpha_critical-k": (lambda v: alpha_critical(5, v, 1), "k", 2),
    "max_h-k": (lambda v: max_h(5, v), "k", 2),
    "asymptotic_h_bound-k": (lambda v: asymptotic_h_bound(5, v), "k", 2),
    "hub_path-k": (lambda v: hub_path(5, v, 0.5, 1), "k", 2),
    "beta_paper-d": (beta_paper, "d", 1),
    "beta_series-d": (beta_series, "d", 1),
    "beta_gap-d": (beta_gap, "d", 1),
    "run_jobs-workers": (lambda v: run_jobs(abs, [], v), "workers", 1),
    "coupled_monotonicity_trial-horizon": (
        lambda v: coupled_monotonicity_trial(3, 0.5, 0.9, horizon=v), "horizon", 1
    ),
    "coupled_monotonicity_trial-population_guard": (
        lambda v: coupled_monotonicity_trial(3, 0.5, 0.9, population_guard=v), "population_guard", 1
    ),
}


@pytest.mark.parametrize("entry", sorted(BOUNDED_INTEGERS))
def test_bounded_integer_one_below_its_bound_gets_one_message(entry):
    call, name, minimum = BOUNDED_INTEGERS[entry]
    with pytest.raises(ValueError, match=re.escape(f"{name} must be at least {minimum}, got {minimum - 1}")):
        call(minimum - 1)


def test_readme_library_map_lists_every_public_module():
    package = os.path.dirname(rumorlab.__file__)
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as f:
        listed = re.findall(r"^\| `rumorlab\.(\w+)` \|", f.read(), flags=re.M)
    public = {name[:-3] for name in os.listdir(package) if name.endswith(".py") and not name.startswith("_")}
    assert sorted(listed) == sorted(public)
