"""The whole-program symbol/import/call graph behind the project rules.

Per-file AST rules cannot see that a sim callback calls a helper in
another module that mutates a module-level dict — whether a write is
shared between execution domains depends on the *transitive callers*.
This module builds the project-wide view those rules need:

* one :func:`extract_summary` per file — imports (absolute and
  relative, resolved to dotted module names), module-level constants
  (with enough structure to fold string registries), every function
  with its call sites, module-state writes, set-iteration sites, and
  instrumentation-name call shapes;
* a :class:`ProjectGraph` that indexes summaries by dotted module name
  and resolves names across files — through plain imports,
  from-imports, package ``__init__`` re-exports, and ``self.``/``cls.``
  method references.

Summaries are plain JSON-serializable dicts on purpose: the incremental
cache (:mod:`repro.lint.cache`) persists them keyed by file hash, so a
warm whole-program pass skips parse-and-walk entirely for unchanged
files. Resolution is deliberately name-based and best-effort — an
unresolvable call (a callable parameter, a method on an arbitrary
object) adds no edge. That keeps the graph sound for its purpose:
every edge it *does* draw is real, so findings never rest on invented
reachability.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.lint.astutil import ImportMap, attr_chain
from repro.lint.cache import load_cache, save_cache, source_hash

#: Bump when the summary shape changes; invalidates every cache entry.
GRAPH_FORMAT = 2

#: Container methods that mutate their receiver in place.
MUTATOR_METHODS = frozenset({
    "append", "add", "update", "setdefault", "pop", "popitem", "clear",
    "extend", "remove", "discard", "insert", "appendleft",
})

#: Constant kinds that are module-level *mutable* state when bound at
#: module scope (the shared-state rule keys off these).
MUTABLE_KINDS = frozenset({"set", "dict", "list", "bytearray", "instance"})

#: Constant kinds whose iteration order is the hash order of the run.
SET_KINDS = frozenset({"set", "frozenset"})

#: Instrumentation call shapes (mirrors rules/registry_sync.py).
_METRIC_METHODS = frozenset({"counter", "gauge", "histogram", "series"})
_METRIC_RECEIVERS = frozenset({"metrics", "registry"})

_PRINTF_SPEC = re.compile(r"%[-+ #0-9.]*[srdifxXo%]")


def module_name_for(rel_path: str) -> Optional[str]:
    """Dotted module for a repo-relative path; None outside ``src/``."""
    parts = rel_path.split("/")
    if parts[:1] != ["src"] or not rel_path.endswith(".py"):
        return None
    mod_parts = parts[1:]
    mod_parts[-1] = mod_parts[-1][: -len(".py")]
    if mod_parts[-1] == "__init__":
        mod_parts = mod_parts[:-1]
    return ".".join(mod_parts)


def _package_parts(module: str, rel_path: str) -> List[str]:
    """The package a module's relative imports resolve against."""
    parts = module.split(".")
    if rel_path.endswith("/__init__.py"):
        return parts
    return parts[:-1]


def _resolve_relative(module: str, rel_path: str, node: ast.ImportFrom
                      ) -> Optional[str]:
    """Absolute dotted module for a (possibly relative) from-import."""
    if node.level == 0:
        return node.module
    base = _package_parts(module, rel_path)
    if node.level - 1 > len(base):
        return None
    if node.level > 1:
        base = base[: len(base) - (node.level - 1)]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base) if base else None


# -- module-level constant folding helpers ------------------------------


def _string_elements(node: ast.AST) -> Optional[List[List[Any]]]:
    """``[[value, lineno], ...]`` for a literal container of strings."""
    if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        elements = []
        for element in node.elts:
            if isinstance(element, ast.Constant) \
                    and isinstance(element.value, str):
                elements.append([element.value, element.lineno])
            else:
                return None
        return elements
    return None


def _const_info(value: ast.AST) -> Dict[str, Any]:
    """Classify one module-level assignment's value expression.

    ``kind`` drives mutability and set-detection; ``parts`` (when
    present) is a foldable description of a string collection —
    ``{"elems": [[value, lineno], ...]}`` pieces and ``{"ref": name}``
    links to sibling constants, concatenated in order.
    """
    if isinstance(value, ast.Constant):
        if isinstance(value.value, str):
            return {"kind": "str", "value": value.value}
        return {"kind": "const"}
    if isinstance(value, (ast.Set, ast.SetComp)):
        info: Dict[str, Any] = {"kind": "set"}
        elements = _string_elements(value)
        if elements is not None:
            info["parts"] = [{"elems": elements}]
        return info
    if isinstance(value, ast.Dict) or isinstance(value, ast.DictComp):
        return {"kind": "dict"}
    if isinstance(value, (ast.List, ast.ListComp)):
        return {"kind": "list"}
    if isinstance(value, ast.Tuple):
        elements = _string_elements(value)
        info = {"kind": "tuple"}
        if elements is not None:
            info["parts"] = [{"elems": elements}]
        return info
    if isinstance(value, ast.Name):
        return {"kind": "alias", "parts": [{"ref": value.id}]}
    if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Add):
        left = _const_info(value.left)
        right = _const_info(value.right)
        if left.get("parts") and right.get("parts"):
            return {"kind": "tuple",
                    "parts": left["parts"] + right["parts"]}
        return {"kind": "const"}
    if isinstance(value, ast.Call):
        name = None
        if isinstance(value.func, ast.Name):
            name = value.func.id
        if name in ("set", "bytearray"):
            return {"kind": name if name != "set" else "set"}
        if name in ("dict", "list", "defaultdict", "OrderedDict",
                    "Counter", "deque"):
            return {"kind": "dict" if name in ("dict", "defaultdict",
                                               "OrderedDict", "Counter")
                    else "list"}
        if name == "frozenset":
            info = {"kind": "frozenset"}
            if len(value.args) == 1:
                elements = _string_elements(value.args[0])
                if elements is not None:
                    info["parts"] = [{"elems": elements}]
            return info
        if name == "tuple" and len(value.args) == 1:
            elements = _string_elements(value.args[0])
            info = {"kind": "tuple"}
            if elements is not None:
                info["parts"] = [{"elems": elements}]
            return info
        # Any other call produces an object we treat as mutable module
        # state when bound at module scope (e.g. ``REGISTRY = Registry()``).
        return {"kind": "instance"}
    return {"kind": "const"}


# -- instrumentation-name pattern folding -------------------------------


def _fold_name_expr(node: ast.AST) -> Optional[List[Any]]:
    """Fold a name expression into pattern parts.

    Parts are ``{"lit": str}``, ``{"ref": dotted-name}`` (resolved
    project-wide at rule time), or ``None`` (an unresolvable hole).
    Returns None when the expression is not string-shaped at all.
    """
    if isinstance(node, ast.Constant):
        if isinstance(node.value, str):
            return [{"lit": node.value}]
        return None
    if isinstance(node, ast.Name):
        return [{"ref": node.id}]
    if isinstance(node, ast.Attribute):
        chain = attr_chain(node)
        if chain and chain[0] not in ("self", "cls"):
            return [{"ref": ".".join(chain)}]
        return [None]
    if isinstance(node, ast.JoinedStr):
        parts: List[Any] = []
        for piece in node.values:
            if isinstance(piece, ast.Constant) \
                    and isinstance(piece.value, str):
                parts.append({"lit": piece.value})
            elif isinstance(piece, ast.FormattedValue):
                folded = _fold_name_expr(piece.value)
                if folded is not None and len(folded) == 1 \
                        and piece.format_spec is None:
                    parts.extend(folded)
                else:
                    parts.append(None)
            else:
                parts.append(None)
        return parts
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = _fold_name_expr(node.left)
        right = _fold_name_expr(node.right)
        if left is not None and right is not None:
            return left + right
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        if not (isinstance(node.left, ast.Constant)
                and isinstance(node.left.value, str)):
            return None
        template = node.left.value
        values: List[ast.AST]
        if isinstance(node.right, ast.Tuple):
            values = list(node.right.elts)
        else:
            values = [node.right]
        parts = []
        cursor = 0
        value_index = 0
        for match in _PRINTF_SPEC.finditer(template):
            if match.group(0) == "%%":
                continue
            if match.start() > cursor:
                parts.append({"lit": template[cursor:match.start()]})
            if value_index < len(values):
                folded = _fold_name_expr(values[value_index])
                if folded is not None and len(folded) == 1:
                    parts.extend(folded)
                else:
                    parts.append(None)
            else:
                parts.append(None)
            value_index += 1
            cursor = match.end()
        if cursor < len(template):
            parts.append({"lit": template[cursor:]})
        return parts
    return None


def _receiver_last_name(node: ast.Call) -> Optional[str]:
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    value = func.value
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Attribute):
        return value.attr
    return None


def _name_site_kind(node: ast.Call) -> Optional[str]:
    """Which registry a call shape resolves against, if any."""
    if not isinstance(node.func, ast.Attribute):
        return None
    method = node.func.attr
    if method == "begin":
        return "span"
    if method == "event":
        return "event"
    if method == "hit":
        return "crashpoint"
    if method in _METRIC_METHODS \
            and _receiver_last_name(node) in _METRIC_RECEIVERS:
        return "metric"
    return None


# -- per-function extraction --------------------------------------------


def _binding_names(target: ast.AST, names: set) -> None:
    """Names a store target actually *binds* (``x[k] = v`` binds none)."""
    if isinstance(target, ast.Name):
        names.add(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _binding_names(element, names)
    elif isinstance(target, ast.Starred):
        _binding_names(target.value, names)
    # Subscript/Attribute targets mutate an existing object, they do
    # not create a local binding — that is exactly what the write
    # detector must keep seeing.


def _local_names(func: ast.AST) -> set:
    """Names bound locally in ``func`` (params, assignments, targets)."""
    names = set()
    args = func.args
    for arg in (args.posonlyargs + args.args + args.kwonlyargs):
        names.add(arg.arg)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                _binding_names(target, names)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            _binding_names(node.target, names)
        elif isinstance(node, ast.comprehension):
            _binding_names(node.target, names)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    _binding_names(item.optional_vars, names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.NamedExpr):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".", 1)[0])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)) and node is not func:
            names.add(node.name)
    # global declarations override the local binding rule.
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            names.difference_update(node.names)
    return names


def _own_nodes(func: ast.AST) -> Iterable[ast.AST]:
    """Nodes of ``func``'s body, excluding nested def/class/lambda bodies."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _iteration_candidates(func: ast.AST) -> Iterable[Tuple[ast.AST, int]]:
    """Expressions whose iteration order is observable, with linenos."""
    for node in _own_nodes(func):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter, node.lineno
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for generator in node.generators:
                yield generator.iter, node.lineno
        elif isinstance(node, ast.Call):
            name = node.func.id if isinstance(node.func, ast.Name) else None
            if name in ("list", "tuple", "enumerate") and len(node.args) >= 1:
                yield node.args[0], node.lineno
            elif isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "join" and len(node.args) == 1:
                yield node.args[0], node.lineno


def _classify_iteration(expr: ast.AST) -> Optional[Tuple[str, str]]:
    """("inline"|"name", description-or-dotted-name) for a candidate."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return "inline", "a set literal"
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        if expr.func.id in ("set", "frozenset"):
            return "inline", "%s(...)" % expr.func.id
        if expr.func.id in ("vars", "globals"):
            return "inline", "%s()" % expr.func.id
        return None
    if isinstance(expr, ast.Name):
        return "name", expr.id
    if isinstance(expr, ast.Attribute):
        chain = attr_chain(expr)
        if chain and chain[0] not in ("self", "cls"):
            return "name", ".".join(chain)
    return None


def _extract_function(func: ast.AST, qualname: str, imports: ImportMap,
                      module_bindings: Dict[str, Dict[str, Any]]
                      ) -> Dict[str, Any]:
    locals_ = _local_names(func)
    global_decls = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            global_decls.update(node.names)

    calls: List[List[Any]] = []
    callback_refs: List[List[Any]] = []
    writes: List[List[Any]] = []
    set_iterations: List[List[Any]] = []
    name_sites: List[Dict[str, Any]] = []

    def is_module_mutable(name: str) -> bool:
        info = module_bindings.get(name)
        return info is not None and info["kind"] in MUTABLE_KINDS

    def record_store_target(target: ast.AST, lineno: int) -> None:
        # X = / X[k] = / X.attr = / mod.X = ... reaching module state.
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                record_store_target(element, lineno)
            return
        if isinstance(target, ast.Name):
            if target.id in global_decls:
                writes.append([None, target.id, lineno])
            return
        base = target
        while isinstance(base, ast.Subscript):
            base = base.value
        chain = attr_chain(base) if isinstance(base, (ast.Attribute,
                                                      ast.Name)) else None
        if not chain or chain[0] in ("self", "cls") or chain[0] in locals_:
            return
        head = chain[0]
        if len(chain) == 1:
            # ``X[k] = v`` on a module-level binding.
            if isinstance(target, ast.Subscript) and (
                    is_module_mutable(head) or head in global_decls):
                writes.append([None, head, lineno])
            return
        if head in imports.modules:
            # ``mod.NAME = ...`` / ``mod.NAME[k] = ...``
            writes.append([imports.modules[head], chain[1], lineno])
        elif is_module_mutable(head):
            # ``OBJ.attr = ...`` on a module-level instance/container.
            writes.append([None, head, lineno])

    for node in _own_nodes(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                record_store_target(target, node.lineno)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            record_store_target(node.target, node.lineno)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                record_store_target(target, node.lineno)
        elif isinstance(node, ast.Call):
            chain = None
            if isinstance(node.func, ast.Name):
                chain = [node.func.id]
            elif isinstance(node.func, ast.Attribute):
                chain = attr_chain(node.func)
            if chain:
                calls.append([".".join(chain), node.lineno])
                # Mutator methods on module-level containers.
                if len(chain) == 2 and chain[1] in MUTATOR_METHODS \
                        and chain[0] not in locals_ \
                        and is_module_mutable(chain[0]):
                    writes.append([None, chain[0], node.lineno])
                elif len(chain) == 3 and chain[2] in MUTATOR_METHODS \
                        and chain[0] in imports.modules:
                    writes.append([imports.modules[chain[0]], chain[1],
                                   node.lineno])
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("call_at", "call_in") \
                    and len(node.args) >= 2:
                ref = node.args[1]
                ref_chain = attr_chain(ref) if isinstance(
                    ref, (ast.Attribute, ast.Name)) else None
                if ref_chain:
                    callback_refs.append([".".join(ref_chain), node.lineno])
            site_kind = _name_site_kind(node)
            if site_kind and node.args:
                parts = _fold_name_expr(node.args[0])
                if parts is not None:
                    name_sites.append({"kind": site_kind, "parts": parts,
                                       "lineno": node.lineno})

    for expr, lineno in _iteration_candidates(func):
        classified = _classify_iteration(expr)
        if classified is None:
            continue
        kind, detail = classified
        if kind == "name":
            head = detail.split(".", 1)[0]
            if head in locals_:
                continue
        set_iterations.append([kind, detail, lineno])

    return {
        "qualname": qualname,
        "lineno": func.lineno,
        "calls": calls,
        "callback_refs": callback_refs,
        "writes": writes,
        "set_iterations": set_iterations,
        "name_sites": name_sites,
    }


# -- per-module extraction ----------------------------------------------


def _module_statements(tree: ast.Module) -> Iterable[ast.stmt]:
    """Top-level statements, descending into module-level If/Try arms."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.If, ast.Try)):
            for body in (getattr(node, "body", []),
                         getattr(node, "orelse", []),
                         getattr(node, "finalbody", [])):
                stack.extend(body)
            for handler in getattr(node, "handlers", []):
                stack.extend(handler.body)


def extract_summary(rel_path: str, source: str,
                    tree: ast.Module) -> Dict[str, Any]:
    """One JSON-serializable summary of a file for the project graph."""
    module = module_name_for(rel_path)
    string_literals = sorted({
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and 0 < len(node.value) <= 120
    })
    summary: Dict[str, Any] = {
        "rel_path": rel_path,
        "module": module,
        "string_literals": string_literals,
        "imports": {},
        "from_imports": {},
        "constants": {},
        "functions": {},
        "classes": {},
    }
    if module is None:
        return summary

    imports = ImportMap(tree)
    summary["imports"] = dict(imports.modules)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            resolved = _resolve_relative(module, rel_path, node)
            if resolved is None:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if alias.name == "*":
                    continue
                summary["from_imports"][local] = [resolved, alias.name]

    for stmt in _module_statements(tree):
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    info = _const_info(stmt.value)
                    info["lineno"] = stmt.lineno
                    summary["constants"][target.id] = info
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None \
                and isinstance(stmt.target, ast.Name):
            info = _const_info(stmt.value)
            info["lineno"] = stmt.lineno
            summary["constants"][stmt.target.id] = info

    # Merge relative-import resolution back into the import map
    # (ImportMap skips level>0 imports; summaries must not).
    merged_imports = imports
    for local, pair in summary["from_imports"].items():
        merged_imports.names[local] = (pair[0], pair[1])

    def visit_scope(body: Iterable[ast.stmt], prefix: str,
                    class_name: Optional[str]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + node.name if prefix else node.name
                summary["functions"][qualname] = _extract_function(
                    node, qualname, merged_imports, summary["constants"])
                if class_name is not None:
                    summary["classes"].setdefault(class_name, []).append(
                        node.name)
                visit_scope(node.body, qualname + ".", None)
            elif isinstance(node, ast.ClassDef):
                summary["classes"].setdefault(node.name, [])
                visit_scope(node.body, node.name + ".", node.name)
            elif isinstance(node, (ast.If, ast.Try)):
                for sub in (getattr(node, "body", []),
                            getattr(node, "orelse", []),
                            getattr(node, "finalbody", [])):
                    visit_scope(sub, prefix, class_name)
                for handler in getattr(node, "handlers", []):
                    visit_scope(handler.body, prefix, class_name)

    visit_scope(tree.body, "", None)
    return summary


# -- the graph ----------------------------------------------------------


class ProjectGraph:
    """Indexed module summaries plus cross-file name resolution."""

    def __init__(self, summaries: Dict[str, Dict[str, Any]],
                 sources: Optional[Dict[str, str]] = None):
        #: rel_path -> summary (src and non-src files alike).
        self.summaries = summaries
        #: dotted module -> summary, src files only.
        self.by_module = {
            summary["module"]: summary
            for summary in summaries.values()
            if summary.get("module")
        }
        self._lines = {
            rel_path: source.splitlines()
            for rel_path, source in (sources or {}).items()
        }

    def snippet(self, rel_path: str, lineno: int) -> str:
        lines = self._lines.get(rel_path, [])
        if 1 <= lineno <= len(lines):
            return lines[lineno - 1].strip()
        return ""

    def src_summaries(self) -> List[Dict[str, Any]]:
        return [self.by_module[module] for module in sorted(self.by_module)]

    def iter_functions(self) -> Iterable[Tuple[str, str, Dict[str, Any]]]:
        """(module, qualname, info) over every src function, sorted."""
        for module in sorted(self.by_module):
            functions = self.by_module[module]["functions"]
            for qualname in sorted(functions):
                yield module, qualname, functions[qualname]

    # -- symbol resolution ----------------------------------------------

    def resolve_symbol(self, module: str, name: str, depth: int = 0
                       ) -> Optional[Tuple[str, str, str]]:
        """Resolve ``name`` in ``module`` to ("function"|"class"|
        "constant", defining_module, symbol) — following re-exports."""
        if depth > 12:
            return None
        summary = self.by_module.get(module)
        if summary is None:
            return None
        if name in summary["functions"]:
            return "function", module, name
        if name in summary["classes"]:
            return "class", module, name
        if name in summary["constants"]:
            return "constant", module, name
        pair = summary["from_imports"].get(name)
        if pair is not None:
            target_module, original = pair
            resolved = self.resolve_symbol(target_module, original,
                                           depth + 1)
            if resolved is not None:
                return resolved
            # ``from repro.a import b`` where b is a submodule.
            submodule = "%s.%s" % (target_module, original)
            if submodule in self.by_module:
                return "module", submodule, ""
        return None

    def resolve_call(self, module: str, caller_qualname: str,
                     chain: str) -> Optional[Tuple[str, str]]:
        """Best-effort (module, qualname) for a recorded call chain."""
        summary = self.by_module.get(module)
        if summary is None:
            return None
        parts = chain.split(".")
        head = parts[0]

        if head in ("self", "cls") and len(parts) == 2:
            if "." in caller_qualname:
                class_name = caller_qualname.split(".", 1)[0]
                candidate = "%s.%s" % (class_name, parts[1])
                if candidate in summary["functions"]:
                    return module, candidate
            return None

        if len(parts) == 1:
            resolved = self.resolve_symbol(module, head)
            if resolved is None:
                return None
            kind, target_module, symbol = resolved
            if kind == "function":
                return target_module, symbol
            if kind == "class":
                return self._class_init(target_module, symbol)
            return None

        # ``a.b[...]``: a may be a class in this module, an imported
        # module alias, or a from-imported symbol.
        if head in summary["classes"] and len(parts) == 2:
            candidate = "%s.%s" % (head, parts[1])
            if candidate in summary["functions"]:
                return module, candidate
        target_module = summary["imports"].get(head)
        if target_module is None:
            pair = summary["from_imports"].get(head)
            if pair is not None:
                resolved = self.resolve_symbol(module, head)
                if resolved is not None:
                    kind, res_module, symbol = resolved
                    if kind == "class" and len(parts) == 2:
                        res_summary = self.by_module.get(res_module)
                        if res_summary is not None:
                            candidate = "%s.%s" % (symbol, parts[1])
                            if candidate in res_summary["functions"]:
                                return res_module, candidate
                    if kind == "module":
                        target_module = res_module
        if target_module is None:
            return None
        # Walk the remaining parts: longest module prefix, then symbol.
        remaining = parts[1:]
        while len(remaining) > 1:
            extended = "%s.%s" % (target_module, remaining[0])
            if extended in self.by_module:
                target_module = extended
                remaining = remaining[1:]
            else:
                break
        if len(remaining) == 1:
            resolved = self.resolve_symbol(target_module, remaining[0])
            if resolved is not None:
                kind, res_module, symbol = resolved
                if kind == "function":
                    return res_module, symbol
                if kind == "class":
                    return self._class_init(res_module, symbol)
        elif len(remaining) == 2:
            resolved = self.resolve_symbol(target_module, remaining[0])
            if resolved is not None and resolved[0] == "class":
                res_summary = self.by_module.get(resolved[1])
                if res_summary is not None:
                    candidate = "%s.%s" % (resolved[2], remaining[1])
                    if candidate in res_summary["functions"]:
                        return resolved[1], candidate
        return None

    def _class_init(self, module: str, class_name: str
                    ) -> Optional[Tuple[str, str]]:
        summary = self.by_module.get(module)
        if summary is None:
            return None
        candidate = "%s.__init__" % class_name
        if candidate in summary["functions"]:
            return module, candidate
        return None

    def resolve_constant(self, module: str, dotted: str
                         ) -> Optional[Tuple[str, str, Dict[str, Any]]]:
        """Resolve a dotted reference to a module-level constant."""
        parts = dotted.split(".")
        summary = self.by_module.get(module)
        if summary is None:
            return None
        if len(parts) == 1:
            resolved = self.resolve_symbol(module, parts[0])
            if resolved is not None and resolved[0] == "constant":
                kind, res_module, symbol = resolved
                info = self.by_module[res_module]["constants"][symbol]
                return res_module, symbol, info
            return None
        target_module = summary["imports"].get(parts[0])
        if target_module is None:
            return None
        remaining = parts[1:]
        while len(remaining) > 1:
            extended = "%s.%s" % (target_module, remaining[0])
            if extended in self.by_module:
                target_module = extended
                remaining = remaining[1:]
            else:
                return None
        resolved = self.resolve_symbol(target_module, remaining[0])
        if resolved is not None and resolved[0] == "constant":
            kind, res_module, symbol = resolved
            info = self.by_module[res_module]["constants"][symbol]
            return res_module, symbol, info
        return None

    def fold_string_collection(self, module: str, name: str,
                               depth: int = 0) -> Optional[List[List[Any]]]:
        """``[[value, lineno], ...]`` for a foldable string collection
        constant, following ``{"ref": ...}`` links project-wide."""
        if depth > 6:
            return None
        summary = self.by_module.get(module)
        if summary is None:
            return None
        info = summary["constants"].get(name)
        if info is None:
            resolved = self.resolve_symbol(module, name)
            if resolved is None or resolved[0] != "constant":
                return None
            return self.fold_string_collection(resolved[1], resolved[2],
                                               depth + 1)
        parts = info.get("parts")
        if parts is None:
            return None
        elements: List[List[Any]] = []
        for part in parts:
            if "elems" in part:
                elements.extend(part["elems"])
            elif "ref" in part:
                nested = self.fold_string_collection(module, part["ref"],
                                                     depth + 1)
                if nested is None:
                    return None
                elements.extend(nested)
            else:
                return None
        return elements


# -- builders -----------------------------------------------------------


def build_graph_from_sources(sources: Dict[str, str],
                             trees: Optional[Dict[str, ast.Module]] = None,
                             cache_path: Optional[str] = None
                             ) -> ProjectGraph:
    """Build a graph from ``rel_path -> source`` (trees optional).

    With a cache, unchanged files load their summary straight from disk
    — no parse, no walk. Parse failures contribute an empty summary (a
    broken file already fails lint via ``parse-error``).
    """
    cached = load_cache(cache_path, GRAPH_FORMAT)
    summaries: Dict[str, Dict[str, Any]] = {}
    new_entries: Dict[str, Any] = {}
    for rel_path in sorted(sources):
        source = sources[rel_path]
        digest = source_hash(source)
        entry = cached.get(rel_path)
        if entry is not None and entry.get("hash") == digest:
            summaries[rel_path] = entry["summary"]
            new_entries[rel_path] = entry
            continue
        tree = (trees or {}).get(rel_path)
        if tree is None:
            try:
                tree = ast.parse(source, filename=rel_path)
            except SyntaxError:
                tree = ast.Module(body=[], type_ignores=[])
        summary = extract_summary(rel_path, source, tree)
        summaries[rel_path] = summary
        new_entries[rel_path] = {"hash": digest, "summary": summary}
    if cache_path is not None:
        save_cache(cache_path, new_entries, GRAPH_FORMAT)
    return ProjectGraph(summaries, sources=sources)


def build_graph(paths, root=None, cache_path: Optional[str] = None
                ) -> ProjectGraph:
    """Build a graph for ``paths`` (files or directories) under ``root``."""
    from repro.lint.engine import find_root, iter_python_files

    root = root or find_root()
    sources: Dict[str, str] = {}
    for path in iter_python_files(paths, root=root):
        rel = os.path.relpath(os.path.abspath(path), root).replace(
            os.sep, "/")
        with open(path, encoding="utf-8") as handle:
            sources[rel] = handle.read()
    return build_graph_from_sources(sources, cache_path=cache_path)
