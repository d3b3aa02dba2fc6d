"""Package namespaces that import a public name on its first use (PEP 562).

A package ``__init__`` lists which of its submodules defines each public
name and imports none of them.  The first read of a name imports that
submodule and stores the value in the package's namespace, so every
later read is a plain dictionary lookup and never reaches
``__getattr__`` again.  A run therefore imports only the code it uses.

Two kinds of name are imported by the ``__init__`` itself, as usual,
and still listed in the table:

* a name defined by the submodule of the same name
  (``repro.llm.perplexity``, ``repro.testing.fuzz``): importing that
  submodule later would rebind the package attribute to the module;
* a name that code outside the package reads from the namespace with
  ``vars()`` rather than through attribute access
  (``repro.fleet.run_fleet``, which ``perfbench/layers.py`` wraps).

No registry may depend on an import side effect: each one is complete
once its own module is imported.
"""

from __future__ import annotations

from importlib import import_module
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)


def attach(namespace: Dict[str, Any], submodules: Sequence[str] = (),
           names: Optional[Mapping[str, Sequence[str]]] = None
           ) -> Tuple[List[str], Callable[[str], Any],
                      Callable[[], List[str]]]:
    """Return ``(__all__, __getattr__, __dir__)`` for one package.

    ``namespace`` is the package's ``globals()``.  ``submodules`` are
    submodules that are public names themselves; ``names`` maps each
    submodule to the public names it defines.  ``__all__`` lists every
    public name once.
    """
    package = namespace["__name__"]
    owners = dict.fromkeys(submodules)
    for module, defined in (names or {}).items():
        owners.update(dict.fromkeys(defined, module))

    def __getattr__(name: str) -> Any:
        if name not in owners:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = owners[name]
        value = (import_module(f"{package}.{name}") if module is None
                 else getattr(import_module(f"{package}.{module}"), name))
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | owners.keys())

    return list(owners), __getattr__, __dir__
