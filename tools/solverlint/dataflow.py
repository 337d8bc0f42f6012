"""Shared-state model + lockset analysis for the threaded factorization.

The pull-mode schedulers promise bit-identical threaded factorizations; the
ownership discipline behind that promise ("only task *k* mutates column
block *k*'s storage, everything else goes through a lock") lives in
convention.  This module turns the convention into a checkable model:

1. **Worker roots.**  Functions passed as ``target=`` to
   ``threading.Thread(...)`` anywhere in the fileset are worker entry
   points.
2. **Call graph.**  A name-based intra-fileset call graph (direct calls
   resolve to module-level functions, attribute calls to any fileset class
   method of that name) closes the worker-reachable set — a worker closure
   in ``scheduler.py`` reaches ``factor_column_block`` in
   ``factorization.py`` and ``MemoryTracker.resize`` in ``runtime/``.
3. **Shared-state model.**  Inside worker-reachable functions, mutation
   sites are assignments/augmented assignments to attribute chains and
   calls of known mutator methods (``append``/``add``/``setdefault``/…)
   whose chain roots at a *shared* name: a parameter or a closure variable.
   Task-owned handles are exempt: locals bound from an indexed read
   (``nc = fac.cblks[k]``), any chain that itself passes through a
   subscript (per-element storage accessed by task index), parameters that
   every worker-reachable call site feeds an owned handle, thread-local
   attributes (``self.X`` with ``X = threading.local()``), queues and
   locks themselves, and ``self`` inside ``__init__``.
4. **Lockset inference.**  The set of locks held at each site combines the
   lexical ``with`` nesting (tracking ``threading.Lock/RLock/Condition``
   bindings, ``self._lock``-style attributes and aliases through locals)
   with an *ambient* lockset propagated through the call graph: the
   intersection, over every worker-reachable call path, of the locks held
   at the call site — so the ``_record_peak_locked``-style "caller holds
   the lock" idiom is understood, and a helper called both with and
   without the lock gets the empty ambient set.

A shared mutation with an empty lockset is reported as *unguarded*; a
group of sites mutating the same attribute under non-empty but disjoint
locksets is reported as *inconsistent*.  Lock identity is name-based
(``state`` for locals/closures, ``._lock`` for attributes), which trades
a little soundness across classes for near-zero false positives; the
dynamic sanitizer (:mod:`repro.runtime.sanitizer`) covers what the
static model cannot see.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from tools.solverlint.core import FileContext, ProjectRule, register

#: constructors whose bindings are treated as locks (lockset members)
LOCK_CONSTRUCTORS = (
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
)

#: constructors whose bindings are exempt shared structures (internally
#: synchronized by the stdlib)
QUEUE_CONSTRUCTORS = ("Queue", "LifoQueue", "PriorityQueue", "SimpleQueue")

#: method calls that mutate their receiver in place
MUTATOR_METHODS = (
    "append", "appendleft", "extend", "insert", "add", "update",
    "setdefault", "pop", "popitem", "remove", "discard", "clear",
)


def _call_name(node: ast.Call) -> Tuple[Optional[str], bool]:
    """(simple callee name, is_attribute_call) of a call, if nameable."""
    fn = node.func
    if isinstance(fn, ast.Name):
        return fn.id, False
    if isinstance(fn, ast.Attribute):
        return fn.attr, True
    return None, False


def _chain(node: ast.expr) -> Optional[Tuple[str, List[str], bool]]:
    """Decompose an attribute/subscript chain.

    Returns ``(root_name, attr_parts, has_subscript)`` for chains rooted at
    a plain name (``fac.cblks[k].diag`` → ``("fac", ["cblks", "diag"],
    True)``), or ``None`` when the root is a call or other expression.
    """
    parts: List[str] = []
    has_sub = False
    cur = node
    while True:
        if isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        elif isinstance(cur, ast.Subscript):
            has_sub = True
            cur = cur.value
        elif isinstance(cur, ast.Name):
            parts.reverse()
            return cur.id, parts, has_sub
        else:
            return None


def _contains_subscript(node: ast.expr) -> bool:
    return any(isinstance(n, ast.Subscript) for n in ast.walk(node))


_FRESH_LITERALS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                   ast.SetComp)


def _is_fresh_value(node: ast.expr) -> bool:
    """A freshly-constructed container literal (or None): no other thread
    can hold a reference, so a local bound to it is task-owned."""
    if isinstance(node, _FRESH_LITERALS):
        return True
    if isinstance(node, ast.Constant) and node.value is None:
        return True
    if isinstance(node, ast.IfExp):
        return _is_fresh_value(node.body) and _is_fresh_value(node.orelse)
    return False


def _is_constructor_call(node: ast.expr, names: Sequence[str]) -> bool:
    """True for ``threading.X()`` / ``X()`` with X in ``names``."""
    if not isinstance(node, ast.Call):
        return False
    fn = node.func
    if isinstance(fn, ast.Attribute):
        return fn.attr in names
    if isinstance(fn, ast.Name):
        return fn.id in names
    return False


@dataclass
class MutationSite:
    """One shared-state mutation found inside a function body."""

    line: int
    col: int
    root: str                 # root name of the target chain
    attrs: Tuple[str, ...]    # attribute path from the root
    lexical: frozenset        # locks held lexically at the site
    kind: str                 # "assign" | "augassign" | "call:<method>"

    @property
    def chain(self) -> str:
        return ".".join((self.root,) + self.attrs)


@dataclass
class CallSite:
    """One intra-fileset call found inside a function body."""

    line: int
    callee: str
    is_attr: bool
    lexical: frozenset        # locks held lexically at the call
    #: positional arguments (0-based, after any receiver) as
    #: ``(root_name, statically_owned)`` — the root name lets the fixpoint
    #: recognise an argument that is owned *via the caller's own params*
    pos_args: Tuple[Tuple[Optional[str], bool], ...]
    #: keyword arguments as ``(kwarg_name, root_name, statically_owned)``
    kw_args: Tuple[Tuple[str, Optional[str], bool], ...]
    receiver_owned: bool      # attribute calls: is the receiver task-owned?
    receiver_root: Optional[str] = None  # receiver root name, if a plain name


@dataclass
class FunctionInfo:
    """Static summary of one function/method/closure."""

    key: str                  # "<path>::<qualname>"
    path: str
    name: str                 # simple name
    qualname: str
    node: ast.AST
    params: Tuple[str, ...] = ()
    cls: Optional[str] = None  # enclosing class name for methods
    is_init: bool = False
    mutations: List[MutationSite] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    #: names that are task-owned handles within the body (locals assigned
    #: from subscript reads or from other owned roots)
    owned_locals: Set[str] = field(default_factory=set)
    #: names bound to locks / queues inside the body
    lock_locals: Set[str] = field(default_factory=set)
    queue_locals: Set[str] = field(default_factory=set)
    #: params whose default is a fresh literal (``acc: dict = None``) —
    #: owned at any call site that does not supply them
    fresh_default_params: Set[str] = field(default_factory=set)
    #: locals of the lexically enclosing functions — closure resolution
    enclosing_locals: Set[str] = field(default_factory=set)
    #: locals (incl. params) of this function — closure resolution
    locals: Set[str] = field(default_factory=set)


class SharedStateModel:
    """The fileset-wide model: functions, worker roots, lock attributes."""

    def __init__(self, ctxs: Sequence[FileContext]) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.by_simple_name: Dict[str, List[str]] = {}
        self.methods_by_name: Dict[str, List[str]] = {}
        self.worker_roots: List[str] = []
        #: attribute names ever assigned a lock / queue / threading.local()
        self.lock_attrs: Set[str] = set()
        self.queue_attrs: Set[str] = set()
        self.threadlocal_attrs: Set[str] = set()
        for ctx in ctxs:
            self._scan_attr_classes(ctx)
        for ctx in ctxs:
            self._index_module(ctx)

    # -- pass 1: classify self.X attribute bindings --------------------
    def _scan_attr_classes(self, ctx: FileContext) -> None:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                # annotated bindings (`self._lock: Any = threading.Lock()`)
                # classify the same way as plain assignments
                targets, value = [node.target], node.value
            else:
                continue
            for tgt in targets:
                ch = _chain(tgt)
                if ch is None or len(ch[1]) != 1:
                    continue
                attr = ch[1][0]
                if _is_constructor_call(value, LOCK_CONSTRUCTORS):
                    self.lock_attrs.add(attr)
                elif _is_constructor_call(value, QUEUE_CONSTRUCTORS):
                    self.queue_attrs.add(attr)
                elif _is_constructor_call(value, ("local",)):
                    self.threadlocal_attrs.add(attr)

    # -- pass 2: per-function summaries ---------------------------------
    def _index_module(self, ctx: FileContext) -> None:
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(ctx, node, qual=node.name, cls=None,
                                     enclosing=set())
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        self._index_function(
                            ctx, item, qual=f"{node.name}.{item.name}",
                            cls=node.name, enclosing=set())

    def _index_function(self, ctx: FileContext, node: ast.AST, qual: str,
                        cls: Optional[str], enclosing: Set[str]) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        params = tuple(a.arg for a in (node.args.posonlyargs + node.args.args
                                       + node.args.kwonlyargs))
        fresh_defaults: Set[str] = set()
        pos_params = node.args.posonlyargs + node.args.args
        for a, default in zip(pos_params[len(pos_params)
                                         - len(node.args.defaults):],
                              node.args.defaults):
            if default is not None and _is_fresh_value(default):
                fresh_defaults.add(a.arg)
        for a, kw_default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if kw_default is not None and _is_fresh_value(kw_default):
                fresh_defaults.add(a.arg)
        info = FunctionInfo(
            key=f"{ctx.path}::{qual}", path=ctx.path, name=node.name,
            qualname=qual, node=node, params=params, cls=cls,
            is_init=(node.name == "__init__"),
            fresh_default_params=fresh_defaults,
            enclosing_locals=set(enclosing))
        self.functions[info.key] = info
        if cls is None:
            self.by_simple_name.setdefault(node.name, []).append(info.key)
        else:
            self.methods_by_name.setdefault(node.name, []).append(info.key)
        info.locals = set(params) | _collect_locals(node)
        walker = _BodyWalker(self, ctx, info, enclosing)
        for stmt in node.body:
            walker.visit_stmt(stmt, frozenset())
        # nested defs become their own summaries; their enclosing-locals
        # set is this function's locals plus whatever this one closed over
        for nested in walker.nested:
            self._index_function(
                ctx, nested, qual=f"{qual}.{nested.name}", cls=None,
                enclosing=enclosing | info.locals)


class _BodyWalker:
    """Single-function statement walker maintaining the lexical lockset."""

    def __init__(self, model: SharedStateModel, ctx: FileContext,
                 info: FunctionInfo, enclosing: Set[str]) -> None:
        self.model = model
        self.ctx = ctx
        self.info = info
        self.enclosing = enclosing
        self.nested: List[ast.AST] = []
        #: local name → lock fingerprint (aliases: ``lk = self._lock``)
        self.lock_aliases: Dict[str, str] = {}

    # -- lock expression resolution -------------------------------------
    def lock_fingerprint(self, expr: ast.expr) -> Optional[str]:
        """Fingerprint of a lock-valued expression, if recognisable."""
        if isinstance(expr, ast.Name):
            name = expr.id
            if name in self.lock_aliases:
                return self.lock_aliases[name]
            if name in self.info.lock_locals:
                return name
            # a closure variable bound to a lock in the enclosing scope:
            # recognised by name when the enclosing function declared it
            if name in self.enclosing and name not in self.info.locals:
                return name
            return None
        ch = _chain(expr)
        if ch is not None and ch[1] and ch[1][-1] in self.model.lock_attrs:
            return "." + ch[1][-1]
        return None

    def _is_queue(self, root: str, attrs: Tuple[str, ...]) -> bool:
        if root in self.info.queue_locals:
            return True
        return any(a in self.model.queue_attrs for a in attrs)

    def _is_threadlocal(self, attrs: Tuple[str, ...]) -> bool:
        return any(a in self.model.threadlocal_attrs for a in attrs)

    def _expr_owned(self, expr: ast.expr) -> bool:
        """Is this argument expression statically a task-owned handle?"""
        if isinstance(expr, ast.Name):
            return expr.id in self.info.owned_locals
        return _contains_subscript(expr) or _is_fresh_value(expr)

    def _arg_root(self, expr: ast.expr) -> Optional[str]:
        """Root name of an argument, for dynamic ownership resolution."""
        if isinstance(expr, ast.Name):
            return expr.id
        ch = _chain(expr)
        return ch[0] if ch is not None else None

    # -- statement walk ---------------------------------------------------
    def visit_stmt(self, stmt: ast.stmt, held: frozenset) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.nested.append(stmt)
            return
        if isinstance(stmt, ast.ClassDef):
            return
        if isinstance(stmt, ast.With):
            inner = held
            for item in stmt.items:
                fp = self.lock_fingerprint(item.context_expr)
                if fp is not None:
                    inner = inner | {fp}
                else:
                    self._scan_exprs(item.context_expr, held)
            for s in stmt.body:
                self.visit_stmt(s, inner)
            return
        if isinstance(stmt, ast.Assign):
            self._record_bindings(stmt)
            for tgt in stmt.targets:
                self._record_mutation(tgt, held, "assign")
            self._scan_exprs(stmt.value, held)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._record_bindings_one(stmt.target, stmt.value)
                self._scan_exprs(stmt.value, held)
            self._record_mutation(stmt.target, held, "assign")
            return
        if isinstance(stmt, ast.AugAssign):
            self._record_mutation(stmt.target, held, "augassign")
            self._scan_exprs(stmt.value, held)
            return
        if isinstance(stmt, ast.Expr):
            self._scan_exprs(stmt.value, held)
            return
        # compound statements: walk nested bodies with the same lockset
        for fname in ("body", "orelse", "finalbody"):
            for s in getattr(stmt, fname, []) or []:
                self.visit_stmt(s, held)
        for handler in getattr(stmt, "handlers", []) or []:
            for s in handler.body:
                self.visit_stmt(s, held)
        for fname in ("test", "iter", "value", "exc"):
            sub = getattr(stmt, fname, None)
            if isinstance(sub, ast.expr):
                self._scan_exprs(sub, held)

    # -- bindings ---------------------------------------------------------
    def _record_bindings(self, stmt: ast.Assign) -> None:
        if len(stmt.targets) == 1:
            self._record_bindings_one(stmt.targets[0], stmt.value)

    def _record_bindings_one(self, tgt: ast.expr, value: ast.expr) -> None:
        if not isinstance(tgt, ast.Name):
            return
        name = tgt.id
        if _is_constructor_call(value, LOCK_CONSTRUCTORS):
            self.info.lock_locals.add(name)
            return
        if _is_constructor_call(value, QUEUE_CONSTRUCTORS):
            self.info.queue_locals.add(name)
            return
        fp = self.lock_fingerprint(value)
        if fp is not None:
            self.lock_aliases[name] = fp
            return
        # task-owned handle: an indexed read (nc = fac.cblks[k]), a value
        # derived from an already-owned handle, or a freshly-constructed
        # container (acc = {}) that no other thread can have a reference to
        if isinstance(value, ast.Subscript) or _is_fresh_value(value):
            self.info.owned_locals.add(name)
            return
        ch = _chain(value)
        if ch is not None and (ch[0] in self.info.owned_locals or ch[2]):
            self.info.owned_locals.add(name)
        elif ch is not None:
            # rebound to a possibly-shared handle: drop any earlier mark
            self.info.owned_locals.discard(name)

    # -- mutations --------------------------------------------------------
    def _record_mutation(self, tgt: ast.expr, held: frozenset,
                         kind: str) -> None:
        if isinstance(tgt, (ast.Tuple, ast.List)):
            for elt in tgt.elts:
                self._record_mutation(elt, held, kind)
            return
        if isinstance(tgt, ast.Name):
            return  # plain local rebind, never shared
        ch = _chain(tgt)
        if ch is None:
            return
        root, attrs, has_sub = ch
        if has_sub:
            return  # per-element storage accessed by task index: owned
        self.info.mutations.append(
            MutationSite(line=tgt.lineno, col=tgt.col_offset, root=root,
                         attrs=tuple(attrs), lexical=held, kind=kind))

    # -- expressions (calls, mutator methods, thread targets) -------------
    def _scan_exprs(self, expr: ast.expr, held: frozenset) -> None:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            self._record_thread_target(node)
            name, is_attr = _call_name(node)
            if name is None:
                continue
            receiver_owned = False
            receiver_root: Optional[str] = None
            if is_attr:
                assert isinstance(node.func, ast.Attribute)
                recv = node.func.value
                receiver_owned = self._expr_owned(recv)
                receiver_root = self._arg_root(recv)
                if name in MUTATOR_METHODS:
                    self._record_mutator_call(recv, name, node, held)
            pos = tuple((self._arg_root(a), self._expr_owned(a))
                        for a in node.args)
            kws = tuple((kw.arg, self._arg_root(kw.value),
                         self._expr_owned(kw.value))
                        for kw in node.keywords if kw.arg is not None)
            self.info.calls.append(
                CallSite(line=node.lineno, callee=name, is_attr=is_attr,
                         lexical=held, pos_args=pos, kw_args=kws,
                         receiver_owned=receiver_owned,
                         receiver_root=receiver_root))

    def _record_mutator_call(self, recv: ast.expr, method: str,
                             node: ast.Call, held: frozenset) -> None:
        ch = _chain(recv)
        if ch is None:
            return  # receiver rooted at a call: not a trackable chain
        root, attrs, has_sub = ch
        if has_sub:
            return
        if self._is_queue(root, tuple(attrs)):
            return
        self.info.mutations.append(
            MutationSite(line=node.lineno, col=node.col_offset, root=root,
                         attrs=tuple(attrs), lexical=held,
                         kind=f"call:{method}"))

    def _record_thread_target(self, node: ast.Call) -> None:
        if not _is_constructor_call(node, ("Thread",)):
            return
        for kw in node.keywords:
            if kw.arg == "target" and isinstance(kw.value, ast.Name):
                self.model.worker_roots.append(kw.value.id)


def _collect_locals(fn: ast.AST) -> Set[str]:
    """Names assigned anywhere in a function body (excluding nested defs)."""
    out: Set[str] = set()

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda, ast.ClassDef)):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out.add(child.name)
                continue
            if isinstance(child, ast.Name) and isinstance(
                    child.ctx, (ast.Store, ast.Del)):
                out.add(child.id)
            if isinstance(child, ast.ExceptHandler) and child.name:
                out.add(child.name)
            if isinstance(child, (ast.Global, ast.Nonlocal)):
                out.difference_update(child.names)
            visit(child)

    visit(fn)
    return out


@dataclass
class _State:
    """Propagated per-function analysis state (shrinks monotonically)."""

    ambient: frozenset           # locks held on every worker-reachable path
    owned_params: frozenset      # params fed an owned handle at every site


class LocksetAnalysis:
    """Worker-reachability + ambient-lockset fixpoint over the model."""

    def __init__(self, model: SharedStateModel) -> None:
        self.model = model
        self.states: Dict[str, _State] = {}
        self._run()

    def _resolve(self, call: CallSite) -> List[str]:
        if call.is_attr:
            return self.model.methods_by_name.get(call.callee, [])
        return self.model.by_simple_name.get(call.callee, [])

    def _run(self) -> None:
        work: List[str] = []
        for root_name in self.model.worker_roots:
            for key in self.model.by_simple_name.get(root_name, []):
                self.states[key] = _State(ambient=frozenset(),
                                          owned_params=frozenset())
                work.append(key)
        steps = 0
        limit = 20000  # generous fixpoint bound; sets only shrink
        while work and steps < limit:
            steps += 1
            key = work.pop()
            info = self.model.functions[key]
            st = self.states[key]
            for call in info.calls:
                at_call = st.ambient | call.lexical
                for callee_key in self._resolve(call):
                    callee = self.model.functions[callee_key]
                    if callee.is_init:
                        continue  # fresh objects: constructor state is owned
                    owned = self._owned_params(callee, call, st)
                    prev = self.states.get(callee_key)
                    if prev is None:
                        self.states[callee_key] = _State(
                            ambient=frozenset(at_call), owned_params=owned)
                        work.append(callee_key)
                        continue
                    new_amb = prev.ambient & at_call
                    new_owned = prev.owned_params & owned
                    if (new_amb != prev.ambient
                            or new_owned != prev.owned_params):
                        self.states[callee_key] = _State(new_amb, new_owned)
                        work.append(callee_key)

    def _owned_params(self, callee: FunctionInfo, call: CallSite,
                      caller_state: _State) -> frozenset:
        """Which callee params receive a task-owned handle at this call.

        An argument is owned statically (owned local / subscript read /
        fresh literal) or dynamically, when its root is one of the caller's
        own owned params — that is how ownership flows through call chains
        (``factor_column_block`` → ``_compress_panels`` →
        ``compress_column_block``)."""
        def arg_owned(root: Optional[str], static: bool) -> bool:
            return static or (root is not None
                              and root in caller_state.owned_params)

        owned: Set[str] = set()
        params = list(callee.params)
        if call.is_attr and params and params[0] == "self":
            if arg_owned(call.receiver_root, call.receiver_owned):
                owned.add("self")
            params = params[1:]
        for i, (root, static) in enumerate(call.pos_args):
            if i < len(params) and arg_owned(root, static):
                owned.add(params[i])
        for kwarg, root, static in call.kw_args:
            if kwarg in params and arg_owned(root, static):
                owned.add(kwarg)
        # params left to their (fresh-literal) defaults are owned here
        supplied = set(params[:len(call.pos_args)])
        supplied.update(k for k, _, _ in call.kw_args)
        for p in params:
            if p not in supplied and p in callee.fresh_default_params:
                owned.add(p)
        return frozenset(owned)

    # -- findings ---------------------------------------------------------
    def findings(self) -> Iterator[Tuple[str, int, int, str]]:
        sites: List[Tuple[FunctionInfo, MutationSite, frozenset]] = []
        for key, st in self.states.items():
            info = self.model.functions[key]
            if info.is_init:
                continue
            for mut in info.mutations:
                if not self._is_shared(info, st, mut):
                    continue
                sites.append((info, mut, st.ambient | mut.lexical))

        # empty locksets: unguarded shared mutation
        for info, mut, lockset in sites:
            if not lockset:
                yield (info.path, mut.line, mut.col,
                       f"worker-reachable mutation of shared "
                       f"{mut.chain!r} in {info.qualname}() holds no lock "
                       f"(reached from a threading.Thread target)")

        # disjoint locksets across sites of the same attribute
        groups: Dict[Tuple[str, ...], List[Tuple[FunctionInfo, MutationSite,
                                                 frozenset]]] = {}
        for info, mut, lockset in sites:
            if lockset and mut.attrs:
                groups.setdefault(mut.attrs, []).append((info, mut, lockset))
        for attrs, group in groups.items():
            if len(group) < 2:
                continue
            common = frozenset.intersection(*(ls for _, _, ls in group))
            if common:
                continue
            held = sorted({", ".join(sorted(ls)) for _, _, ls in group})
            for info, mut, lockset in group:
                yield (info.path, mut.line, mut.col,
                       f"shared {'.'.join(attrs)!r} is mutated under "
                       f"inconsistent locksets across sites "
                       f"({' / '.join(held)}): no common lock orders "
                       f"the accesses")

    def _is_shared(self, info: FunctionInfo, st: _State,
                   mut: MutationSite) -> bool:
        root = mut.root
        if root in info.owned_locals or root in st.owned_params:
            return False
        if root in info.lock_locals or root in info.queue_locals:
            return False
        if self._threadlocal(mut.attrs) or self._queue_attr(mut.attrs):
            return False
        if root in info.params:
            return True
        # closure variable: a name that is not local here but is a local of
        # an enclosing function (recorded during indexing)
        if root not in info.locals and root in info.enclosing_locals:
            return True
        return False

    def _threadlocal(self, attrs: Tuple[str, ...]) -> bool:
        return any(a in self.model.threadlocal_attrs for a in attrs)

    def _queue_attr(self, attrs: Tuple[str, ...]) -> bool:
        return any(a in self.model.queue_attrs for a in attrs)


def analyze(ctxs: Sequence[FileContext]) -> List[Tuple[str, int, int, str]]:
    """Run the full shared-state + lockset analysis over a fileset."""
    model = SharedStateModel(ctxs)
    analysis = LocksetAnalysis(model)
    return sorted(set(analysis.findings()))


@register
class SharedMutationLocksetRule(ProjectRule):
    """Worker-reachable shared mutations must hold a consistent lock."""

    name = "shared-mutation-lockset"
    description = (
        "dataflow engine: every mutation of shared state reachable from a "
        "threading.Thread worker must hold a non-empty, consistent lockset "
        "(with-scope tracking, lock aliasing, cross-function ambient "
        "propagation, task-ownership exemptions)")
    invariant = (
        "threaded factorization stays bit-identical to sequential: shared "
        "scheduler/factor state is only mutated under its designated lock; "
        "per-column-block storage is only touched by its owning task")
    scope_dirs = ("core", "runtime")

    def check_project(
        self, ctxs: Sequence[FileContext]
    ) -> Iterator[Tuple[str, int, int, str]]:
        yield from analyze(ctxs)
