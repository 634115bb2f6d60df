"""Resource-pairing analysis (LEAK001-003).

May-analysis over the per-function CFG: an *acquire* creates a tracked
resource item; the item must be gone -- released, refined away, or
ownership-transferred -- on every path reaching the function's normal or
exceptional exit.  Exception edges carry the state holding *before* the
raising statement, so an acquire interrupted mid-wait does not hold, and
a statement that can raise between acquire and ``try`` leaks whatever
was held on entry to it (the class of bug PRs 1-3 each fixed once).

Rules
-----
LEAK001   connection/CPU/NIC lease (``acquire``/``try_acquire``/
          ``request``/``lease``/``acquire_backend``) without a paired
          ``release`` (or, for one given up mid-wait, ``withdraw``) on
          some path.
LEAK002   mapping-table entry (``create``) neither aborted/deleted nor
          handed off on some path.
LEAK003   admission slot (``admission.admit``) without a paired
          ``admission.release`` on some path.

Tracking discipline (kept deliberately first-order):

* Releases match on the receiver expression text and, for var-carrying
  resources, the lease variable appearing in the call arguments.
* Release-type calls and ``try_acquire`` are treated as non-raising, so
  a cleanup sequence does not generate bogus exception paths.
* Truthiness refinement: on the false edge of ``if token`` (or the true
  edge of ``token is None``) the item is dropped -- a failed conditional
  acquire holds nothing.  Same for a boolean admit result.
* Membership refinement (mapping entries): ``entry.client in
  self.mapping`` drops the item on the not-present edge.
* Ownership transfer ends tracking: returning/yielding the lease,
  storing it into an attribute or container, capturing it in a lambda,
  or passing it to a call on a *different* receiver than the resource's
  (e.g. ``self._finish(entry, ...)`` hands the entry to the finisher).
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Optional

from ..violations import Violation
from .cfg import Edge, Node, build_cfg, conditions, solve, walk_scoped

__all__ = ["ResourceSpec", "RESOURCES", "analyze_leaks"]


@dataclasses.dataclass(frozen=True)
class ResourceSpec:
    rule: str
    label: str
    acquires: tuple[str, ...]
    releases: tuple[str, ...]
    #: substring the acquire receiver text must contain (None = any)
    recv_contains: Optional[str] = None
    #: a matching release must mention the lease variable
    release_needs_var: bool = True
    #: ``var... in <receiver>`` tests refine the not-present edge
    membership_refines: bool = False


RESOURCES: tuple[ResourceSpec, ...] = (
    ResourceSpec("LEAK001", "lease",
                 acquires=("acquire", "try_acquire", "request", "lease",
                           "acquire_backend"),
                 releases=("release", "release_backend", "withdraw")),
    ResourceSpec("LEAK002", "mapping entry",
                 acquires=("create",),
                 releases=("abort", "delete"),
                 recv_contains="mapping",
                 membership_refines=True),
    ResourceSpec("LEAK003", "admission slot",
                 acquires=("admit",),
                 releases=("release",),
                 recv_contains="admission",
                 release_needs_var=False),
)

#: method names whose calls cannot raise for pairing purposes: cleanup
#: calls and conditional acquires must not spawn phantom exception paths
NONRAISING = frozenset(
    {m for spec in RESOURCES for m in spec.releases} | {"try_acquire"})


@dataclasses.dataclass(frozen=True)
class _Item:
    spec_index: int
    var: str  # "" when the acquire result is not bound to a name
    recv: str
    line: int

    @property
    def spec(self) -> ResourceSpec:
        return RESOURCES[self.spec_index]


_State = frozenset


def _recv_text(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Attribute):
        return ast.unparse(call.func.value)
    return None


def _mentions(tree: ast.AST, name: str) -> bool:
    return any(isinstance(sub, ast.Name) and sub.id == name
               for sub in walk_scoped(tree))


def _calls(tree: ast.AST) -> list[ast.Call]:
    return [sub for sub in walk_scoped(tree)
            if isinstance(sub, ast.Call)]


def _find_acquires(stmt: ast.AST) -> list[tuple[int, str, str, int]]:
    """(spec index, bound var, receiver, line) for acquires in ``stmt``."""
    var = ""
    value: Optional[ast.AST] = stmt
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
            isinstance(stmt.targets[0], ast.Name):
        var = stmt.targets[0].id
        value = stmt.value
    elif isinstance(stmt, ast.AnnAssign) and \
            isinstance(stmt.target, ast.Name):
        var = stmt.target.id
        value = stmt.value
    elif isinstance(stmt, ast.Expr):
        value = stmt.value
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        value = getattr(stmt, "value", None)
    if value is None:
        return []
    # the generic ``request`` name only counts when yielded -- the raw
    # Resource protocol is ``req = yield r.request()`` (process code
    # uses ``yield from r.lease()``); plain calls named "request"
    # elsewhere (HTTP factories) are unrelated
    yielded: set[int] = set()
    for sub in walk_scoped(value):
        if isinstance(sub, (ast.Yield, ast.YieldFrom, ast.Await)) and \
                isinstance(sub.value, ast.Call):
            yielded.add(id(sub.value))
    out = []
    for call in _calls(value):
        if not isinstance(call.func, ast.Attribute):
            continue
        recv = _recv_text(call)
        if recv is None:
            continue
        for idx, spec in enumerate(RESOURCES):
            if call.func.attr not in spec.acquires:
                continue
            if call.func.attr == "request" and id(call) not in yielded:
                continue
            if spec.recv_contains is not None and \
                    spec.recv_contains not in recv:
                continue
            out.append((idx, var, recv, call.lineno))
    return out


def _node_is_nonraising(node: Node) -> bool:
    """True when every raise-capable construct in the node is one of the
    non-raising pairing methods (cleanup sequences)."""
    roots = node.scan_roots()
    if not roots:
        return True
    for root in roots:
        for sub in walk_scoped(root):
            if isinstance(sub, (ast.Yield, ast.YieldFrom, ast.Await,
                                ast.Raise)):
                return False
            if isinstance(sub, ast.Call):
                if not (isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in NONRAISING):
                    return False
    return True


def _release_matches(item: _Item, call: ast.Call) -> bool:
    if not isinstance(call.func, ast.Attribute):
        return False
    spec = item.spec
    if call.func.attr not in spec.releases:
        return False
    arg_trees = list(call.args) + [kw.value for kw in call.keywords]
    if spec.release_needs_var and item.var:
        return any(_mentions(a, item.var) for a in arg_trees)
    return _recv_text(call) == item.recv


def _escapes(item: _Item, stmt: ast.AST) -> bool:
    """Ownership leaves this function's hands at ``stmt``."""
    if not item.var:
        return False
    if isinstance(stmt, (ast.Return, ast.Expr)) and \
            isinstance(getattr(stmt, "value", None), (ast.Yield,
                                                      ast.YieldFrom)):
        value = stmt.value.value  # type: ignore[union-attr]
        if value is not None and _mentions(value, item.var):
            return True
    if isinstance(stmt, ast.Return) and stmt.value is not None and \
            not any(True for _ in _calls(stmt.value)) and \
            _mentions(stmt.value, item.var):
        return True  # plain ``return lease``: caller owns it now
    for sub in walk_scoped(stmt):
        if isinstance(sub, ast.Lambda) and _mentions(sub.body, item.var):
            return True  # deferred release closure
        if isinstance(sub, (ast.Assign, ast.AugAssign)):
            targets = sub.targets if isinstance(sub, ast.Assign) \
                else [sub.target]
            stored = any(isinstance(t, (ast.Attribute, ast.Subscript))
                         for t in targets)
            value = sub.value
            if stored and value is not None and \
                    _mentions(value, item.var):
                return True
        if isinstance(sub, ast.Call) and \
                any(_mentions(a, item.var)
                    for a in list(sub.args)
                    + [kw.value for kw in sub.keywords]):
            if _release_matches(item, sub):
                continue
            recv = _recv_text(sub)
            if recv != item.recv:
                return True  # handed to another component
    return False


def _dispose(node: Node, state: _State) -> _State:
    """Apply releases and ownership transfers (not acquires)."""
    roots = node.scan_roots()
    if not roots or not state:
        return state
    items = set(state)
    for root in roots:
        # releases first: the release call must not read as an escape
        for call in _calls(root):
            for item in list(items):
                if _release_matches(item, call):
                    items.discard(item)
        for item in list(items):
            if _escapes(item, root):
                items.discard(item)
    return frozenset(items)


def _transfer(node: Node, state: _State) -> _State:
    roots = node.scan_roots()
    if not roots:
        return state
    items = set(_dispose(node, state))
    for root in roots:
        for spec_idx, var, recv, line in _find_acquires(root):
            if var:
                items = {i for i in items if i.var != var}
            items.add(_Item(spec_index=spec_idx, var=var, recv=recv,
                            line=line))
    # rebinding a tracked variable ends the old item
    for root in roots:
        if isinstance(root, ast.Assign):
            for t in root.targets:
                for name in ([t] if isinstance(t, ast.Name)
                             else list(ast.walk(t))):
                    if isinstance(name, ast.Name):
                        items = {i for i in items
                                 if i.var != name.id
                                 or i.line == getattr(root, "lineno", -1)}
    return frozenset(items)


def _edge_transfer(edge: Edge, state: _State) -> Optional[_State]:
    if edge.test is None or not state:
        return state
    items = set(state)
    for expr, pol in conditions(edge.test, edge.polarity or False):
        # truthiness / None-ness of the lease variable
        target: Optional[ast.expr] = None
        truthy = pol
        if isinstance(expr, ast.Compare) and len(expr.ops) == 1 and \
                isinstance(expr.ops[0], (ast.Is, ast.IsNot)) and \
                isinstance(expr.comparators[0], ast.Constant) and \
                expr.comparators[0].value is None:
            target = expr.left
            is_none = isinstance(expr.ops[0], ast.Is)
            truthy = (not pol) if is_none else pol
        elif isinstance(expr, ast.Name):
            target = expr
        if isinstance(target, ast.Name):
            if not truthy:
                items = {i for i in items if i.var != target.id}
        # membership refinement: ``entry.client in self.mapping``
        if isinstance(expr, ast.Compare) and len(expr.ops) == 1 and \
                isinstance(expr.ops[0], (ast.In, ast.NotIn)):
            present = pol if isinstance(expr.ops[0], ast.In) else not pol
            if not present:
                recv = ast.unparse(expr.comparators[0])
                items = {
                    i for i in items
                    if not (i.spec.membership_refines
                            and i.recv == recv and i.var
                            and _mentions(expr.left, i.var))}
    return frozenset(items)


def _exc_transfer(edge: Edge, in_state: _State,
                  node: Node) -> Optional[_State]:
    if _node_is_nonraising(node):
        return None
    # a raise mid-statement still counts the statement's own releases
    # and hand-offs (the receiving side owns cleanup once called); an
    # acquire in the same statement has NOT happened on this edge
    return _dispose(node, in_state)


def analyze_leaks(tree: ast.Module, path: str) -> list[Violation]:
    """Run the resource-pairing pass over one module."""
    out: set[Violation] = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not any(isinstance(sub, (ast.Yield, ast.YieldFrom))
                   for sub in walk_scoped(func)):
            # pairing is checked in process code, where Interrupt makes
            # every exception edge live; synchronous event handlers hand
            # resources off across functions by design
            continue
        cfg = build_cfg(func)
        ins = solve(cfg, frozenset(), transfer=_transfer,
                    edge_transfer=_edge_transfer,
                    meet=lambda a, b: a | b,
                    exc_transfer=_exc_transfer)
        leaked: set[_Item] = set()
        for exit_index in (cfg.exit, cfg.exc_exit):
            for item in ins.get(exit_index, frozenset()):
                leaked.add(item)
        for item in sorted(leaked, key=lambda i: (i.line, i.var)):
            spec = item.spec
            handle = f"'{item.var}' " if item.var else ""
            out.add(Violation(
                rule=spec.rule, path=path, line=item.line,
                message=(f"{spec.label} {handle}acquired via "
                         f"'{item.recv}.{spec.acquires[0]}(...)'-family "
                         f"call may not be released on every path; pair "
                         f"it in a 'finally' or refine the failing "
                         f"branch"),
                pass_name="deep"))
    return sorted(out, key=lambda v: (v.line, v.rule, v.message))
