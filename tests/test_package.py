import ast
import hashlib
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
    estimate_survival_levels,
    hub_path,
    max_h,
    offspring_empirical,
    path_traversal_empirical,
    pc_asymptotic,
    survival_mc,
)
from rumorlab._seeds import run_jobs


def test_every_public_name_resolves():
    missing = [name for name in rumorlab.__all__ if not hasattr(rumorlab, name)]
    assert missing == []
    assert len(set(rumorlab.__all__)) == len(rumorlab.__all__)


def _src_env() -> dict:
    """The environment, with the package's source tree first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(rumorlab.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_start_up_imports_no_process_pool():
    # the pool stack is imported only once a run hands jobs to a pool
    env = _src_env()
    code = (
        "import sys, rumorlab.cli; rumorlab.cli.build_parser(); "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


#: SHA-256 of each demo's stdout; every demo is deterministic (seeded draws)
DEMO_DIGESTS = {
    "01_critical_thresholds.py": "ea08f3508804ef34ab34c36e4c6d751f7677427ebd22b18c3369c6007a4dc5c5",
    "02_survival_probability.py": "1d91248fd070717fdb504d7b212919a02fb2eb2901c3b0bf1df4f17b26db3a55",
    "03_branching_oracle.py": "cc889c44765b8e24376df7b380ed72a7f24db4f5f1c829b56e9a90bf299a51fd",
    "04_event_driven_dynamics.py": "a9cd0b052444cc5e6db3ca1b029e473d954ee517c5f80f884128b2e1191067fd",
    "05_hub_trees.py": "dd9dec81db0316969ab81fba35288812e66870eb7aa37c7131523f4161866c62",
}
DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


def test_demo_outputs_are_pinned():
    assert sorted(name for name in os.listdir(DEMOS) if name.endswith(".py")) == sorted(DEMO_DIGESTS)
    env = _src_env()
    for name, digest in DEMO_DIGESTS.items():
        out = subprocess.run(
            [sys.executable, os.path.join(DEMOS, name)], env=env, capture_output=True, timeout=120, check=True
        )
        assert hashlib.sha256(out.stdout).hexdigest() == digest, name


#: the three oracles (closed form, GW engine, simulated dynamics) must agree
#: without sharing code, so none of them imports another
FORBIDDEN_IMPORTS = {
    "gw": {"thresholds", "ctmc"},
    "ctmc": {"gw", "thresholds", "laws"},
    "thresholds": {"gw", "ctmc"},
    # the topologies, which the simulator reads, take nothing from the laws
    "treegen": {"laws"},
}


def _parse(module: str) -> ast.Module:
    with open(os.path.join(os.path.dirname(rumorlab.__file__), module + ".py"), encoding="utf-8") as f:
        return ast.parse(f.read())


def _imported_modules(module: str) -> set[str]:
    """Last name of every module that ``rumorlab.<module>`` imports."""
    names = set()
    for node in ast.walk(_parse(module)):
        if isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.rsplit(".", 1)[-1])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names


def test_the_three_oracles_import_none_of_each_other():
    imported = {module: _imported_modules(module) for module in FORBIDDEN_IMPORTS}
    assert {m: imported[m] & FORBIDDEN_IMPORTS[m] for m in imported} == dict.fromkeys(imported, set())
    # both stochastic oracles take their seeds and their job runner from _seeds
    assert "_seeds" in imported["gw"] and "_seeds" in imported["ctmc"]


def test_argument_checks_live_in_errors():
    package = os.path.dirname(rumorlab.__file__)
    checks = {}
    for module in sorted(name[:-3] for name in os.listdir(package) if name.endswith(".py")):
        for node in ast.walk(_parse(module)):
            if isinstance(node, ast.FunctionDef) and "check" in node.name:
                checks.setdefault(module, set()).add(node.name)
    assert checks == {"errors": {"check_at_least", "check_unit_interval", "_check_d", "_check_p"}}


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
    "pc_asymptotic-d": (pc_asymptotic, "d", 2),
    "run_jobs-workers": (lambda v: run_jobs(abs, [], v), "workers", 1),
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
