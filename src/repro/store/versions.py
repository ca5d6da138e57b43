"""Code-version tokens: hash the source closure behind each subsystem.

A stored result is only reusable while the code that produced it is
unchanged.  Rather than a hand-bumped version constant (easy to forget)
or hashing the whole tree (every edit invalidates everything), each
subsystem's token is the SHA-256 of the **import closure** of its entry
modules: :class:`ModuleGraph` AST-parses every ``repro.*`` module for its
intra-package imports, walks the transitive closure from the subsystem's
roots, and hashes the sorted ``(module, source bytes)`` pairs.  Editing
``repro/simulation/engine.py`` therefore invalidates the simulation and
report cells (both closures reach it) but leaves analytic campaign cells
untouched; editing a docstring still invalidates (bytes changed) — the
store prefers recomputing over ever serving a stale result.

The same tokens key the CI result-store cache (``repro store key``), so
a push that only touches docs restores a fully warm store.
"""

from __future__ import annotations

import ast
import functools
import hashlib
from pathlib import Path
from typing import Iterable

__all__ = ["ModuleGraph", "SUBSYSTEMS", "code_version", "all_code_versions",
           "combined_token", "environment_token"]

#: Entry modules whose import closure defines each subsystem's token.
#: The closures are intentionally overlapping: a report experiment runs
#: campaigns and simulations, so its token must cover both.
#: ``repro.analysis.multihop`` is an explicit root of every subsystem
#: that reaches the ``calculus`` engine: the engine imports it lazily
#: (cycle break) and lazy imports are outside the closure walk, so
#: without it editing the multi-hop analysis would not invalidate stored
#: graph-scenario cells.
_MULTIHOP = "repro.analysis.multihop"
SUBSYSTEMS: dict[str, tuple[str, ...]] = {
    "campaigns": ("repro.campaigns.runner", "repro.campaigns.registry",
                  _MULTIHOP),
    "simulation": ("repro.simulation.campaign", _MULTIHOP),
    "fuzz": ("repro.fuzz.campaign", "repro.fuzz.generator", _MULTIHOP),
    "reports": ("repro.reports.pipeline", "repro.reports.experiments",
                _MULTIHOP),
    "topology": ("repro.topology.graph", "repro.topology.routing"),
    # The serve engine's cached snapshots embed the campaign closed forms
    # and the multi-hop fallback, so its roots cover both.
    "serve": ("repro.serve.engine", _MULTIHOP),
    "engines": ("repro.analysis.engines", _MULTIHOP),
}


def _module_level_nodes(tree: ast.Module):
    """Every AST node outside function bodies.

    Imports inside functions are deliberate *lazy* dependencies (used to
    break import cycles); following them — in particular a lazy ``import
    repro`` — would collapse every subsystem closure into the whole tree
    via the top-level package's convenience re-exports.
    """
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef, ast.Lambda)):
                stack.append(child)


class ModuleGraph:
    """Import graph of one source tree, rooted at a package directory.

    ``src_root`` is the directory *containing* the package (so the module
    ``repro.flows`` lives at ``src_root/repro/flows/__init__.py``).  The
    graph only follows imports inside ``package`` — third-party and
    standard-library modules are versioned by the environment, not the
    store.
    """

    def __init__(self, src_root: str | Path, package: str = "repro") -> None:
        self.src_root = Path(src_root)
        self.package = package
        self._imports_cache: dict[str, frozenset[str]] = {}

    # -- module <-> file -----------------------------------------------------

    def module_file(self, module: str) -> Path | None:
        """The source file of ``module``, or ``None`` if it is not ours."""
        if module != self.package and \
                not module.startswith(self.package + "."):
            return None
        relative = Path(*module.split("."))
        package_init = self.src_root / relative / "__init__.py"
        if package_init.is_file():
            return package_init
        plain = self.src_root / relative.with_suffix(".py")
        return plain if plain.is_file() else None

    # -- imports -------------------------------------------------------------

    def imports_of(self, module: str) -> frozenset[str]:
        """Modules of :attr:`package` that ``module`` imports (direct)."""
        cached = self._imports_cache.get(module)
        if cached is not None:
            return cached
        path = self.module_file(module)
        found: set[str] = set()
        if path is not None:
            tree = ast.parse(path.read_bytes(), filename=str(path))
            for node in _module_level_nodes(tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        self._add(found, alias.name)
                elif isinstance(node, ast.ImportFrom):
                    base = self._resolve_from(module, node)
                    if base is not None:
                        # ``from pkg import name``: when every name is a
                        # submodule, depend on the submodules only — the
                        # top-level ``repro`` __init__ re-imports the whole
                        # tree, and following it would collapse every
                        # subsystem closure into "everything".
                        submodules = [f"{base}.{alias.name}"
                                      for alias in node.names
                                      if self.module_file(
                                          f"{base}.{alias.name}")
                                      is not None]
                        if len(submodules) != len(node.names):
                            self._add(found, base)
                        found.update(submodules)
        result = frozenset(found)
        self._imports_cache[module] = result
        return result

    def _resolve_from(self, module: str,
                      node: ast.ImportFrom) -> str | None:
        """The absolute module a ``from ... import`` statement targets."""
        if node.level == 0:
            return node.module
        # Relative import: climb from the importing module's package.
        parts = module.split(".")
        if self.module_file(module) is not None and \
                self.module_file(module).name != "__init__.py":
            parts = parts[:-1]
        parts = parts[:len(parts) - (node.level - 1)]
        if node.module:
            parts += node.module.split(".")
        return ".".join(parts) if parts else None

    def _add(self, found: set[str], candidate: str | None) -> None:
        """Record ``candidate`` if it names a module of this tree."""
        if candidate and self.module_file(candidate) is not None:
            found.add(candidate)

    # -- closure and token ---------------------------------------------------

    def closure(self, roots: Iterable[str]) -> list[str]:
        """Transitive import closure of ``roots``, sorted by module name."""
        seen: set[str] = set()
        frontier = [root for root in roots
                    if self.module_file(root) is not None]
        while frontier:
            module = frontier.pop()
            if module in seen:
                continue
            seen.add(module)
            frontier.extend(self.imports_of(module) - seen)
        return sorted(seen)

    def token(self, roots: Iterable[str]) -> str:
        """SHA-256 over the sorted (module, source bytes) of the closure."""
        digest = hashlib.sha256()
        for module in self.closure(roots):
            digest.update(module.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(self.module_file(module).read_bytes())
            digest.update(b"\x00")
        return digest.hexdigest()


@functools.lru_cache(maxsize=1)
def _installed_graph() -> ModuleGraph:
    """The graph of the running ``repro`` package's source tree."""
    # This file lives at <src_root>/repro/store/versions.py; deriving the
    # root from __file__ (rather than importing repro) keeps the store
    # itself out of the import-cycle picture.
    return ModuleGraph(Path(__file__).resolve().parents[2], package="repro")


@functools.lru_cache(maxsize=1)
def environment_token() -> str:
    """Digest of the compute environment the results depend on.

    A numpy upgrade can legitimately move floating-point results, so the
    interpreter version and numpy's version are mixed into every
    subsystem token — otherwise a store (or a CI cache) warmed
    under one environment would satisfy lookups under another and mask
    real drift.
    """
    import platform

    import numpy
    parts = [f"python={platform.python_version()}",
             f"numpy={numpy.__version__}"]
    digest = hashlib.sha256("\n".join(parts).encode("utf-8"))
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def code_version(subsystem: str) -> str:
    """The current code-version token of one named subsystem.

    Source closure (``ModuleGraph.token``) plus the environment token —
    either moving invalidates the subsystem's stored results.
    """
    try:
        roots = SUBSYSTEMS[subsystem]
    except KeyError:
        raise KeyError(f"unknown subsystem {subsystem!r}; known: "
                       f"{sorted(SUBSYSTEMS)}") from None
    digest = hashlib.sha256()
    digest.update(_installed_graph().token(roots).encode("utf-8"))
    digest.update(environment_token().encode("utf-8"))
    return digest.hexdigest()


def all_code_versions() -> dict[str, str]:
    """Current token of every subsystem, by name."""
    return {name: code_version(name) for name in sorted(SUBSYSTEMS)}


def combined_token() -> str:
    """One digest over every subsystem token (the CI cache key)."""
    digest = hashlib.sha256()
    for name, token in sorted(all_code_versions().items()):
        digest.update(f"{name}={token}\n".encode("utf-8"))
    return digest.hexdigest()
