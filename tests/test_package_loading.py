"""Package loading: a run imports only the code it executes, and the lazy
namespaces read like the eager ones they replace.

Every package resolves its public names on first use (``repro._lazy``).
The import-closure cases pin what ``import repro``, the CLI's help, an
explained fleet run and a tiny model's decode load: no numpy for the
first two, and none of the layers a run never calls.  The namespace
cases import each package before anything else of ``repro`` and check
it: every ``__all__`` name resolves to the object a submodule holds
under that name, ``dir()`` and ``from ... import *`` see every one, an
unknown name raises ``AttributeError`` naming the package, a name that
a same-named submodule would shadow survives that submodule's import,
and every name read through ``vars()`` is bound as soon as its owner is
imported.  Every module can also be the first one imported.  No module
re-exports a name it imports: each ``__all__`` name and each package
table entry points at the module that defines it.  No module imports a
name it never reads.

Each case runs in a fresh interpreter, because this process already
holds most of ``repro``; the module sets are deterministic, so an extra
module is a regression, not noise.
"""

from __future__ import annotations

import ast
import json
import os
import pkgutil
import subprocess
import sys
from typing import Any, Dict, List, Set

import pytest

import repro

# what ``python -m repro --help`` runs
CLI_HELP = """
import runpy, sys
sys.argv[1:] = ["--help"]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as done:
    assert done.code == 0
"""

FLEET_RUN = """
from repro.fleet import run_fleet
report = run_fleet(4, 20.0, horizon_seconds=None, max_requests=40, seed=0,
                   with_capacity_plan=False, hedge=True, explain=True,
                   fault_spec="dev#0:crash@0.5:1,dev#1:straggle@0.2:3:1")
assert report.chaos["recovery"]["hedges"] > 0
assert report.explain["aggregate"]["n_requests"] == 40
"""

TINY_DECODE = """
from repro.llm import (ContinuousBatchingScheduler, InferenceEngine,
                       NPUTransformer, Sampler, TransformerWeights,
                       tiny_config)
from repro.npu import get_device
engine = InferenceEngine(
    NPUTransformer(TransformerWeights.generate(tiny_config(), seed=0)),
    batch=2, max_context=24, device=get_device("oneplus_12"),
    kv_backend="paged")
result = ContinuousBatchingScheduler(engine).generate(
    [1, 2, 3, 4], n_candidates=4, max_new_tokens=4,
    sampler=Sampler(temperature=0.8, seed=0))
assert result.total_generated_tokens == 16
"""

PACKAGES = ["repro"] + sorted(
    module.name for module in pkgutil.iter_modules(repro.__path__, "repro.")
    if module.ispkg)

#: Names the host-time benchmark (``perfbench/layers.py``) reads with
#: ``vars(owner)[name]``, which never calls a module's ``__getattr__``.
VARS_READ = {
    "repro.fleet": ["run_fleet"],
    "repro.fleet.report": ["generate_trace", "build_population"],
    "repro.kernels.gemm": ["dequantize_stream"],
    "repro.kernels.dequant": ["dequantize_stream"],
    "repro.kernels.flash_attention": ["pad_to_tiles"],
    "repro.npu.hmx": ["pad_to_tiles"],
    "repro.quant.tile_quant": ["pad_to_tiles"],
    "repro.obs.blame": ["explain_section", "validate_lifecycle",
                        "aggregate_blame"],
    "repro.obs.critical_path": ["validate_lifecycle"],
}

#: Names a module imports and never reads, each with its reason.
UNREAD_IMPORTS = {
    # bound for the host-time benchmark, which wraps it through vars()
    "repro.kernels.gemm": {"dequantize_stream"},
}

#: Registries, each of which must be complete once its own module is
#: imported, whatever else has been imported.
REGISTRIES = {
    "repro.harness.experiments": "EXPERIMENTS",
    "repro.llm.config": "MODEL_CONFIGS",
    "repro.npu.power_mgmt": "GOVERNORS",
    "repro.npu.soc": "DEVICES",
    "repro.obs.bench": "SCENARIOS",
    "repro.testing.goldens": "GOLDEN_CASES",
    "repro.testing.oracles": "ORACLES",
}

CHECK_PACKAGE = r"""
import importlib, json, pkgutil, sys, types
package, vars_read = sys.argv[1], json.loads(sys.argv[2])
pkg = importlib.import_module(package)
problems = []
for owner, names in vars_read.items():
    bound = vars(importlib.import_module(owner))
    problems += [f"{owner}.{n} unbound at import" for n in names
                 if n not in bound]
public = pkg.__all__
problems += [f"{n} missing from dir()" for n in public if n not in dir(pkg)]
star = {}
exec(f"from {package} import *", star)
problems += [f"{n} not bound by import *" for n in public if n not in star]
for name in public:
    value = getattr(pkg, name)
    if star.get(name) is not value:
        problems.append(f"import * bound another {name}")
    if name.startswith("__"):  # ``__version__``: the package's own
        continue
    if isinstance(value, types.ModuleType):
        held = value is sys.modules.get(f"{package}.{name}")
    else:
        held = any(vars(m).get(name) is value for key, m in
                   list(sys.modules.items())
                   if key.startswith(package + ".") and m is not None)
    if not held:
        problems.append(f"{name} is not what its submodule holds")
try:
    getattr(pkg, "no_such_name")
    problems.append("an unknown name resolved")
except AttributeError as error:
    if repr(package) not in str(error):
        problems.append(f"AttributeError does not name the package: {error}")
shadowed = []
if package != "repro":  # the root's public names are its submodules
    submodules = {m.name for m in pkgutil.iter_modules(pkg.__path__)}
    for name in sorted(set(public) & submodules):
        defined = vars(importlib.import_module(f"{package}.{name}"))[name]
        shadowed.append(name)
        if getattr(pkg, name) is not defined:
            problems.append(f"{name} is not what its submodule defines "
                            "after the submodule's import")
print(json.dumps({"problems": problems, "shadowed": shadowed}))
"""

FIRST_IMPORTS = r"""
import importlib, json, pkgutil, sys
registries = json.loads(sys.argv[1])

def forget():
    for name in [m for m in sys.modules
                 if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]

import repro
modules = [info.name for info in pkgutil.walk_packages(repro.__path__,
                                                        "repro.")
           if info.name != "repro.__main__"]
alone, failed = {}, {}
for name in modules:
    forget()
    try:
        module = importlib.import_module(name)
    except Exception as error:
        failed[name] = repr(error)
        continue
    if name in registries:
        alone[name] = sorted(getattr(module, registries[name]))
for name in modules:
    importlib.import_module(name)
everything = {name: sorted(getattr(sys.modules[name], attr))
              for name, attr in registries.items()}
print(json.dumps({"n_modules": len(modules), "failed": failed,
                  "alone": alone, "everything": everything}))
"""


def run_fresh(code: str, *args: str) -> Any:
    """Run ``code`` in a fresh interpreter; its last stdout line is JSON."""
    package_root = os.path.dirname(os.path.dirname(repro.__file__))
    search_path = [package_root, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None,
                                                             search_path)))
    run = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-3000:]
    return json.loads(run.stdout.splitlines()[-1])


def imported(code: str) -> Set[str]:
    """Every module loaded after a fresh interpreter runs ``code``."""
    return set(run_fresh(code + "\nimport json, sys\n"
                         "print(json.dumps(sorted(sys.modules)))\n"))


def ours(modules: Set[str]) -> Set[str]:
    return {m for m in modules if m == "repro" or m.startswith("repro.")}


def under(modules: Set[str], *prefixes: str) -> Set[str]:
    """The modules that are one of ``prefixes`` or inside one."""
    return {m for m in modules
            if any(m == p or m.startswith(p + ".") for p in prefixes)}


def test_import_repro_loads_only_the_loader():
    modules = imported("import repro")
    assert ours(modules) == {"repro", "repro._lazy"}
    assert "numpy" not in modules


def test_cli_help_loads_only_the_cli():
    modules = imported(CLI_HELP)
    assert ours(modules) == {"repro", "repro._lazy", "repro.cli"}
    assert "numpy" not in modules


def test_explained_fleet_run_loads_no_model_stack():
    modules = imported(FLEET_RUN)
    assert "repro.obs.blame" in modules  # explain ran
    # no kernel or quantizer either: the analytic latency model reads its
    # packet costs from repro.npu.timing
    assert not under(modules, "repro.harness", "repro.tts",
                     "repro.llm.engine", "repro.llm.model",
                     "repro.llm.scheduler", "repro.kernels", "repro.quant",
                     "repro.obs.bench", "repro.obs.export",
                     "repro.obs.anomaly", "repro.obs.stream")


def test_tiny_decode_loads_no_tooling():
    modules = imported(TINY_DECODE)
    assert "repro.llm.scheduler" in modules
    # nor the fault injector, retry ladder or backend placement, which a
    # run loads only with a fault plan or a backend selector
    assert not under(modules, "repro.harness", "repro.tts", "repro.testing",
                     "repro.obs.bench", "repro.obs.export",
                     "repro.obs.anomaly", "repro.obs.stream",
                     "repro.quant.awq", "repro.quant.patch_quant",
                     "repro.kernels.tmac", "repro.llm.speculative",
                     "repro.llm.tokenizer", "repro.resilience",
                     "repro.llm.placement")


def owned_by(package: str) -> Dict[str, List[str]]:
    """The ``VARS_READ`` entries of ``package`` and its own modules."""
    return {owner: names for owner, names in VARS_READ.items()
            if package == (owner if owner in PACKAGES
                           else owner.rpartition(".")[0])}


@pytest.mark.parametrize("package", PACKAGES)
def test_package_namespace(package):
    result = run_fresh(CHECK_PACKAGE, package, json.dumps(owned_by(package)))
    assert result["problems"] == []
    expected = {"repro.llm": ["perplexity"], "repro.testing": ["fuzz"]}
    assert result["shadowed"] == expected.get(package, [])


def test_every_module_imports_first_and_registries_need_no_other():
    """No import cycle in any first-import order; eager ``__init__``
    imports fixed one order and could hide one.  A registry holds all its
    entries once its own module is imported, whatever else is."""
    result = run_fresh(FIRST_IMPORTS, json.dumps(REGISTRIES))
    assert result["failed"] == {}
    assert result["n_modules"] > 80
    assert result["alone"] == result["everything"]
    assert sorted(result["alone"]) == sorted(REGISTRIES)
    assert all(result["alone"].values())


def _parse(path: str) -> ast.Module:
    with open(path) as source:
        return ast.parse(source.read())


def _defined(tree: ast.Module) -> Set[str]:
    """The names a module binds at top level other than by importing."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(name.id for target in targets
                         for name in ast.walk(target)
                         if isinstance(name, ast.Name))
    return names


def _tables(tree: ast.Module) -> List[Dict[str, List[str]]]:
    """A package's tables (``_lazy.attach(names=...)``): submodule to
    the public names it defines."""
    return [ast.literal_eval(keyword.value) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "attach"
            for keyword in node.keywords if keyword.arg == "names"]


def _all(tree: ast.Module) -> List[str]:
    """The names of a module's literal top-level ``__all__``."""
    return [name for node in tree.body if isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "__all__"
                    for target in node.targets)
            for name in ast.literal_eval(node.value)]


def _modules():
    """(dotted name, file name, directory, parsed tree) of every module
    of ``repro``."""
    root = os.path.dirname(repro.__file__)
    for directory, _, files in os.walk(root):
        for filename in sorted(files):
            if filename.endswith(".py"):
                path = os.path.join(directory, filename)
                module = os.path.relpath(path[:-3], os.path.dirname(root))
                yield (module.replace(os.sep, ".").replace(".__init__", ""),
                       filename, directory, _parse(path))


def test_no_module_re_exports_what_it_imports():
    """Each name in a module's ``__all__`` is defined in that module, and
    each package table (``_lazy.attach(names=...)``) names the submodule
    that defines each name, so no public name resolves through a module
    that only imports it."""
    problems = []
    for module, filename, directory, tree in _modules():
        if filename == "__init__.py":
            for table in _tables(tree):
                for owner, names in table.items():
                    defined = _defined(
                        _parse(os.path.join(directory, owner + ".py")))
                    problems += [f"{module}: {name} via {owner}"
                                 for name in names if name not in defined]
            continue
        defined = _defined(tree)
        problems += [f"{module}.__all__: {name}" for name in _all(tree)
                     if name not in defined]
    assert not problems, "\n".join(sorted(problems))


def _annotations(tree: ast.Module) -> List[ast.expr]:
    """Every annotation in a module."""
    found = [node.returns if isinstance(node, (ast.FunctionDef,
                                               ast.AsyncFunctionDef))
             else node.annotation for node in ast.walk(tree)
             if isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef,
                                  ast.AsyncFunctionDef))]
    return [annotation for annotation in found if annotation is not None]


def _read(tree: ast.Module) -> Set[str]:
    """The names a module reads: a load anywhere, a name in a quoted
    annotation, or a public name (its ``__all__``, or a package table)."""
    quoted = [ast.parse(leaf.value, mode="eval")
              for annotation in _annotations(tree)
              for leaf in ast.walk(annotation)
              if isinstance(leaf, ast.Constant)
              and isinstance(leaf.value, str)]
    names = {node.id for root in [tree, *quoted] for node in ast.walk(root)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    names.update(_all(tree))
    names.update(name for table in _tables(tree)
                 for table_names in table.values() for name in table_names)
    return names


def _imported(tree: ast.Module) -> Set[str]:
    """The names a module binds by importing (``__future__`` aside)."""
    return {alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names}


def test_no_module_imports_a_name_it_never_reads():
    """An import no code reads is dead weight, and it can load modules a
    run never calls; ``UNREAD_IMPORTS`` lists the only ones kept."""
    problems = sorted(f"{module}: {name}"
                      for module, _, _, tree in _modules()
                      for name in _imported(tree) - _read(tree)
                      if name not in UNREAD_IMPORTS.get(module, ()))
    assert not problems, "\n".join(problems)
