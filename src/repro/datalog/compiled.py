"""Plan-closure compilation: joins as specialized Python functions.

The interpreted executor in :mod:`repro.datalog.plan` walks a
:class:`~repro.datalog.plan.JoinPlan` step list with recursive
generators, copying a register list per candidate row and building a
substitution dict per result.  This module lowers the *same* step list,
once per cached plan, into one straight-line nested-loop closure over
**interned codes**:

* registers are local variables (no list copies, no ``UNBOUND``
  sentinels — boundness is static, decided at compile time exactly as
  the scheduler decided it);
* bound-column probes read the relation's per-column ``{code: rid-set}``
  index and filter further bound columns by direct ``array`` access —
  integer equality, no tuple allocation on interior steps;
* ``=`` / ``!=`` comparisons compare codes (the symbol table conflates
  ``==``-equal values exactly like the previous set storage did), while
  ordering comparisons decode through the shared table and reuse
  :func:`~repro.datalog.builtins.compare_values`;
* query constants are **soft-resolved** per execution — a constant the
  store never interned gets the :data:`~repro.datalog.symbols.MISSING`
  code, which matches no bucket, no row key, and no register, so a
  cached closure can never go stale when a constant is interned later.

A closure yields raw register tuples (codes).  Decoding happens only at
the boundary: substitutions for callers of ``query``, and head atoms
plus body-ordered support atoms for the provenance-recording engine
paths.  Support atoms need nothing recorded during the join — every
scanned row position is a fixed constant, a bound register, or an out
register, so the supports are reconstructed from the final registers
and per-step metadata alone.

Seeded runs — one per delta fact in the incremental checker and in
view maintenance — bind straight from the fact: a per-pattern *seed
spec* (cached on the :class:`CompiledPlan`, like the head specs)
compares the pattern's constants and repeated variables against the
fact and interns its arguments into a fresh register list, with no
substitution dict in between (:class:`Seeder`).

Entry points return ``None`` when a call cannot be compiled faithfully
(currently: a seed grounding variables the plan was not compiled as
bound for); callers then fall back to the interpreted executor, which
remains the behavioural reference — see
``tests/datalog/test_executor_equivalence.py``.  Each such run on a warm
plan counts in ``EngineStats.compiled_fallbacks``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.datalog.builtins import compare_values
from repro.datalog.plan import _BIND, _CMP, _NEG, _SCAN, JoinPlan
from repro.datalog.terms import (
    Atom,
    Substitution,
    Variable,
    match,
    substitute_term,
)

__all__ = [
    "Seeder",
    "bind_seed",
    "compiled_for",
    "derive_rows",
    "head_spec",
    "probe",
    "run_derivations",
    "run_rule_derivations",
    "run_substitutions",
    "seed_spec",
]

#: Missing-entry sentinel distinguishable from every legitimate value
#: (thetas may bind ``None``; head-spec caches store ``None`` to mean
#: "this head cannot be decoded from registers").
_ABSENT = object()


class CompiledPlan:
    """One plan's lowered closure plus the static decode metadata."""

    __slots__ = ("runner", "bound_slots", "var_items", "pos_spec",
                 "neg_spec", "source", "head_specs", "seed_specs",
                 "conclusions", "__weakref__")

    def __init__(self, runner, bound_slots, var_items, pos_spec, neg_spec,
                 source) -> None:
        #: ``runner(database, init, limit, stats) -> list[tuple[int, ...]]``
        self.runner = runner
        #: Slots the closure expects pre-seeded (the plan's bound vars).
        self.bound_slots = bound_slots
        #: ``(variable, slot)`` pairs for decoding substitutions.
        self.var_items = var_items
        #: Positive-support spec, body order: ``(body_index, pred, argspec)``
        #: where argspec entries are ``(True, slot)`` or ``(False, value)``.
        self.pos_spec = pos_spec
        #: Negative-support spec, same shape.
        self.neg_spec = neg_spec
        #: The generated Python source (debugging / ``explain``).
        self.source = source
        #: Per-head decode spec cache for :func:`run_rule_derivations`
        #: (a plan serves one rule, but the seeded maintenance paths
        #: call it thousands of times per saturation).
        self.head_specs: dict = {}
        #: Per-pattern seed spec cache for :func:`bind_seed` (``None``:
        #: the pattern does not bind exactly the plan's bound slots).
        self.seed_specs: dict = {}
        #: Constraint conclusions prepared against this plan's registers
        #: by the checker (equality tests, existence probes); they die
        #: with the plan, like the closure itself.
        self.conclusions: dict = {}


def compiled_for(plan: JoinPlan, database) -> CompiledPlan:
    """The (cached) compiled form of *plan*; compiles on first use."""
    compiled = plan._cc
    if compiled is None:
        compiled = plan._cc = _compile(plan)
        database.stats.compiled_plans += 1
    return compiled


# -- code generation --------------------------------------------------------

#: Generated source -> code object.  Process-wide: closure *sources*
#: depend only on plan structure, so they repeat across engines, test
#: cases, and planner-cache invalidations.
_CODE_CACHE: Dict[str, object] = {}
_CODE_CACHE_LIMIT = 4096


def _tuple_expr(items: Sequence[str]) -> str:
    if len(items) == 1:
        return f"({items[0]},)"
    return "(" + ", ".join(items) + ")"


def _compile(plan: JoinPlan) -> CompiledPlan:
    steps = plan.steps
    nslots = plan.nslots
    consts: List[object] = []
    const_names: Dict[int, str] = {}

    def raw_const(value) -> str:
        """The global name holding *value* itself."""
        key = len(consts)
        consts.append(value)
        return f"K{key}"

    soft_cache: Dict[object, str] = {}
    soft_lines: List[str] = []

    def soft_const(value) -> str:
        """A local holding the soft-resolved code of *value*."""
        try:
            name = soft_cache.get(value)
        except TypeError:  # pragma: no cover - constants are hashable
            name = None
        if name is None:
            name = f"c{len(soft_lines)}"
            soft_lines.append(f"{name} = code_of({raw_const(value)})")
            soft_cache[value] = name
        return name

    intern_lines: List[str] = []

    def intern_const(value) -> str:
        """A local holding the hard-interned code of *value*."""
        name = f"ic{len(intern_lines)}"
        intern_lines.append(f"{name} = intern({raw_const(value)})")
        return name

    rel_names: Dict[str, str] = {}
    for step in steps:
        if step.kind in (_SCAN, _NEG) and step.pred not in rel_names:
            rel_names[step.pred] = f"rel{len(rel_names)}"
    #: (relation local, accessor) pairs actually referenced by the body.
    accessor_lines: Dict[str, str] = {}

    def rows_local(pred: str) -> str:
        name = f"{rel_names[pred]}_rows"
        accessor_lines[name] = f"{name} = {rel_names[pred]}._row_ids"
        return name

    def index_local(pred: str, position: int) -> str:
        name = f"{rel_names[pred]}_idx{position}"
        accessor_lines[name] = \
            f"{name} = {rel_names[pred]}._indexes[{position}]"
        return name

    def column_local(pred: str, position: int) -> str:
        name = f"{rel_names[pred]}_col{position}"
        accessor_lines[name] = \
            f"{name} = {rel_names[pred]}._columns[{position}]"
        return name

    uses_values = False
    body: List[str] = []
    bound_slots = sorted(
        slot for var, slot in plan.var_slots.items()
        if var in plan.bound_vars
    )
    bound: Set[int] = set(bound_slots)

    def pad(depth: int) -> str:
        return "    " * depth

    def emit(index: int, depth: int) -> None:
        nonlocal uses_values
        if index == len(steps):
            regs = _tuple_expr([f"r{slot}" for slot in range(nslots)]) \
                if nslots else "()"
            body.append(pad(depth) + "jt += 1")
            body.append(pad(depth) + f"append({regs})")
            body.append(pad(depth) + "if limit and len(out) >= limit:")
            body.append(pad(depth + 1) + "stats.join_tuples += jt")
            body.append(pad(depth + 1) + "return out")
            return
        step = steps[index]
        kind = step.kind
        if kind == _SCAN:
            pred = step.pred
            probes: List[Tuple[int, str]] = \
                [(position, soft_const(value))
                 for position, value in step.fixed] + \
                [(position, f"r{slot}") for position, slot in step.bound]
            probes.sort(key=lambda item: item[0])
            if len(probes) == step.arity:
                # Fully bound: one membership probe on the row-key dict.
                exprs = [expr for _position, expr in probes]
                body.append(pad(depth) + "stats.index_lookups += 1")
                body.append(pad(depth) +
                            f"if {_tuple_expr(exprs)} in {rows_local(pred)}:")
                body.append(pad(depth + 1) + "stats.facts_scanned += 1")
                emit(index + 1, depth + 1)
                return
            if not probes:
                # Unbound: walk the row-key dict, codes come for free.
                rows = rows_local(pred)
                row = f"row{index}"
                body.append(pad(depth) +
                            f"stats.facts_scanned += len({rows})")
                body.append(pad(depth) + f"for {row} in {rows}:")
                depth += 1
                for position, slot in step.outs:
                    if slot in bound:
                        body.append(pad(depth) +
                                    f"if {row}[{position}] != r{slot}:")
                        body.append(pad(depth + 1) + "continue")
                    else:
                        body.append(pad(depth) +
                                    f"r{slot} = {row}[{position}]")
                        bound.add(slot)
                emit(index + 1, depth)
                return
            # Partially bound: fetch every probed bucket, keep the
            # smallest, and re-check the other probed columns by direct
            # column access per candidate rid (cheaper than building
            # intersection sets row-for-row).
            bucket = f"b{index}"
            body.append(pad(depth) + "stats.index_lookups += 1")
            position, expr = probes[0]
            body.append(pad(depth) +
                        f"{bucket} = {index_local(pred, position)}"
                        f".get({expr})")
            body.append(pad(depth) + f"if {bucket}:")
            depth += 1
            for extra, (position, expr) in enumerate(probes[1:]):
                other = f"{bucket}_{extra}"
                body.append(pad(depth) +
                            f"{other} = {index_local(pred, position)}"
                            f".get({expr})")
                body.append(pad(depth) + f"if {other}:")
                depth += 1
                body.append(pad(depth) +
                            f"if len({other}) < len({bucket}):")
                body.append(pad(depth + 1) + f"{bucket} = {other}")
            if len(probes) > 1:
                body.append(pad(depth) + "stats.index_intersections += 1")
            body.append(pad(depth) + f"stats.facts_scanned += len({bucket})")
            rid = f"rid{index}"
            body.append(pad(depth) + f"for {rid} in {bucket}:")
            depth += 1
            if len(probes) > 1:
                for position, expr in probes:
                    column = column_local(pred, position)
                    body.append(pad(depth) +
                                f"if {column}[{rid}] != {expr}:")
                    body.append(pad(depth + 1) + "continue")
            for position, slot in step.outs:
                column = column_local(pred, position)
                if slot in bound:
                    body.append(pad(depth) +
                                f"if {column}[{rid}] != r{slot}:")
                    body.append(pad(depth + 1) + "continue")
                else:
                    body.append(pad(depth) + f"r{slot} = {column}[{rid}]")
                    bound.add(slot)
            emit(index + 1, depth)
        elif kind == _NEG:
            exprs = [f"r{value}" if is_slot else soft_const(value)
                     for is_slot, value in step.args]
            body.append(pad(depth) + "stats.negation_checks += 1")
            body.append(pad(depth) + f"if {_tuple_expr(exprs)} not in "
                        f"{rows_local(step.pred)}:")
            emit(index + 1, depth + 1)
        elif kind == _CMP:
            (left_slot, left), (right_slot, right) = step.args
            body.append(pad(depth) + "stats.comparisons_evaluated += 1")
            if step.op in ("=", "!="):
                if not left_slot and not right_slot:
                    # Two constants: decided here, at compile time.
                    if compare_values(step.op, left, right):
                        emit(index + 1, depth)
                    return
                lhs = f"r{left}" if left_slot else soft_const(left)
                rhs = f"r{right}" if right_slot else soft_const(right)
                operator = "==" if step.op == "=" else "!="
                body.append(pad(depth) + f"if {lhs} {operator} {rhs}:")
                emit(index + 1, depth + 1)
            else:
                # Ordering needs the original values back.
                uses_values = True
                lhs = f"values[r{left}]" if left_slot else raw_const(left)
                rhs = f"values[r{right}]" if right_slot else raw_const(right)
                body.append(pad(depth) +
                            f"if compare_values({step.op!r}, {lhs}, {rhs}):")
                emit(index + 1, depth + 1)
        else:  # _BIND
            is_slot, source = step.source
            value = f"r{source}" if is_slot else intern_const(source)
            body.append(pad(depth) + f"r{step.slot} = {value}")
            bound.add(step.slot)
            emit(index + 1, depth)

    emit(0, 1)

    prologue = [
        "def _run(database, init, limit, stats):",
        "    out = []",
        "    append = out.append",
        "    sym = database.symbols",
    ]
    if uses_values:
        prologue.append("    values = sym.values")
    if soft_lines:
        prologue.append("    code_of = sym.code")
    if intern_lines:
        prologue.append("    intern = sym.intern")
    for pred, name in rel_names.items():
        prologue.append(f"    {name} = database.relation({pred!r})")
    for line in accessor_lines.values():
        prologue.append("    " + line)
    for line in soft_lines:
        prologue.append("    " + line)
    for line in intern_lines:
        prologue.append("    " + line)
    for slot in bound_slots:
        prologue.append(f"    r{slot} = init[{slot}]")
    prologue.append("    jt = 0")
    epilogue = [
        "    stats.join_tuples += jt",
        "    return out",
    ]
    source = "\n".join(prologue + body + epilogue) + "\n"

    # Structurally identical plans generate byte-identical source (the
    # constants live in the namespace as K0..Kn, not in the text), and
    # the planner rebuilds the same structures over and over — every
    # constraint added invalidates its cache, and cardinality-signature
    # growth replaces plans wholesale.  Caching the code object makes a
    # re-lowering cost one exec of a def statement instead of a parse.
    code = _CODE_CACHE.get(source)
    if code is None:
        if len(_CODE_CACHE) >= _CODE_CACHE_LIMIT:
            _CODE_CACHE.clear()
        code = compile(source, "<compiled-plan>", "exec")
        _CODE_CACHE[source] = code
    namespace: Dict[str, object] = {"compare_values": compare_values}
    for key, value in enumerate(consts):
        namespace[f"K{key}"] = value
    exec(code, namespace)
    runner = namespace["_run"]

    pos_spec: List[Tuple[int, str, Tuple[Tuple[bool, object], ...]]] = []
    neg_spec: List[Tuple[int, str, Tuple[Tuple[bool, object], ...]]] = []
    for step in steps:
        if step.kind == _SCAN:
            argspec: List[Tuple[bool, object]] = [(False, None)] * step.arity
            for position, value in step.fixed:
                argspec[position] = (False, value)
            for position, slot in step.bound:
                argspec[position] = (True, slot)
            for position, slot in step.outs:
                argspec[position] = (True, slot)
            pos_spec.append((step.body_index, step.pred, tuple(argspec)))
        elif step.kind == _NEG:
            neg_spec.append((step.body_index, step.pred, step.args))
    pos_spec.sort(key=lambda item: item[0])
    neg_spec.sort(key=lambda item: item[0])

    return CompiledPlan(
        runner=runner,
        bound_slots=frozenset(bound_slots),
        var_items=tuple(plan.var_slots.items()),
        pos_spec=tuple(pos_spec),
        neg_spec=tuple(neg_spec),
        source=source,
    )


# -- execution wrappers ------------------------------------------------------


def _initial_codes(plan: JoinPlan, database,
                   theta: Optional[Substitution],
                   bound_slots) -> Optional[List[Optional[int]]]:
    """Seed registers (codes) from *theta*, or None to force fallback.

    Fallback triggers when *theta* grounds a variable the plan was not
    compiled as bound for (the closure would overwrite instead of
    filter), or fails to ground a promised one.  Seed values are
    hard-interned: a brand-new constant simply probes empty buckets.
    """
    init: List[Optional[int]] = [None] * plan.nslots
    if theta:
        intern = database.symbols.intern
        get = theta.get
        for var, slot in plan.var_slots.items():
            value = get(var, _ABSENT)
            if value is _ABSENT:
                continue
            if isinstance(value, Variable):
                # Follow chained bindings ({X: Y, Y: 1}) the slow way.
                value = substitute_term(value, theta)
                if isinstance(value, Variable):
                    continue
            if slot not in bound_slots:
                return None
            init[slot] = intern(value)
    for slot in bound_slots:
        if init[slot] is None:
            return None
    return init


def run_substitutions(plan: JoinPlan, database,
                      theta: Optional[Substitution] = None
                      ) -> Optional[List[Substitution]]:
    """Decoded substitutions, or None when the call must fall back."""
    compiled = compiled_for(plan, database)
    init = _initial_codes(plan, database, theta, compiled.bound_slots)
    if init is None:
        database.stats.compiled_fallbacks += 1
        return None
    rows = compiled.runner(database, init, 0, database.stats)
    values = database.symbols.values
    var_items = compiled.var_items
    out: List[Substitution] = []
    for regs in rows:
        result: Substitution = dict(theta) if theta else {}
        for var, slot in var_items:
            result[var] = values[regs[slot]]
        out.append(result)
    return out


def probe(plan: JoinPlan, database,
          theta: Optional[Substitution] = None) -> Optional[bool]:
    """Does at least one row satisfy the body?  None = fall back."""
    compiled = compiled_for(plan, database)
    init = _initial_codes(plan, database, theta, compiled.bound_slots)
    if init is None:
        database.stats.compiled_fallbacks += 1
        return None
    return bool(compiled.runner(database, init, 1, database.stats))


def _decode_atoms(spec, regs, values) -> Tuple[Atom, ...]:
    return tuple(
        Atom(pred, tuple(values[regs[arg]] if is_slot else arg
                         for is_slot, arg in argspec))
        for _body_index, pred, argspec in spec
    )


def run_derivations(plan: JoinPlan, database,
                    theta: Optional[Substitution] = None
                    ) -> Optional[List[Tuple[Substitution, Tuple[Atom, ...],
                                             Tuple[Atom, ...]]]]:
    """Substitutions plus body-ordered supports, or None to fall back."""
    compiled = compiled_for(plan, database)
    init = _initial_codes(plan, database, theta, compiled.bound_slots)
    if init is None:
        database.stats.compiled_fallbacks += 1
        return None
    rows = compiled.runner(database, init, 0, database.stats)
    values = database.symbols.values
    var_items = compiled.var_items
    pos_spec = compiled.pos_spec
    neg_spec = compiled.neg_spec
    out = []
    for regs in rows:
        result: Substitution = dict(theta) if theta else {}
        for var, slot in var_items:
            result[var] = values[regs[slot]]
        out.append((result,
                    _decode_atoms(pos_spec, regs, values),
                    _decode_atoms(neg_spec, regs, values)))
    return out


def head_spec(compiled: CompiledPlan, plan: JoinPlan, head: Atom
              ) -> Optional[Tuple[Tuple[bool, object], ...]]:
    """The (cached) register decode spec of a rule *head*, or None when
    the body never binds one of its variables."""
    spec = compiled.head_specs.get(head, _ABSENT)
    if spec is _ABSENT:
        var_slots = plan.var_slots
        items: Optional[List[Tuple[bool, object]]] = []
        for arg in head.args:
            if isinstance(arg, Variable):
                slot = var_slots.get(arg)
                if slot is None:
                    items = None  # head variable the body never binds
                    break
                items.append((True, slot))
            else:
                items.append((False, arg))
        spec = compiled.head_specs[head] = \
            tuple(items) if items is not None else None
    return spec


def derive_rows(compiled: CompiledPlan, database, pred: str, spec,
                init: Sequence[Optional[int]]
                ) -> List[Tuple[Atom, Tuple[Atom, ...], Tuple[Atom, ...]]]:
    """Run *compiled* from *init*; one (head fact, positive supports,
    negative supports) triple per row, the head decoded through *spec*
    (see :func:`head_spec`)."""
    rows = compiled.runner(database, init, 0, database.stats)
    values = database.symbols.values
    pos_spec = compiled.pos_spec
    neg_spec = compiled.neg_spec
    out = []
    for regs in rows:
        fact = Atom(pred, tuple(values[regs[arg]] if is_slot else arg
                                for is_slot, arg in spec))
        out.append((fact,
                    _decode_atoms(pos_spec, regs, values),
                    _decode_atoms(neg_spec, regs, values)))
    return out


def run_rule_derivations(plan: JoinPlan, database, head: Atom,
                         theta: Optional[Substitution] = None
                         ) -> Optional[List[Tuple[Atom, Tuple[Atom, ...],
                                                  Tuple[Atom, ...]]]]:
    """(head fact, positive supports, negative supports) triples.

    The saturation fast path: the head atom is decoded straight from
    the registers — no substitution dict is ever built.
    """
    compiled = compiled_for(plan, database)
    init = _initial_codes(plan, database, theta, compiled.bound_slots)
    spec = head_spec(compiled, plan, head) if init is not None else None
    if spec is None:
        database.stats.compiled_fallbacks += 1
        return None
    return derive_rows(compiled, database, head.pred, spec, init)


# -- seeding from ground facts ----------------------------------------------


class SeedSpec:
    """How one pattern binds a plan's registers from a ground fact."""

    __slots__ = ("pred", "arity", "consts", "repeats", "binds", "nslots")

    def __init__(self, pred, arity, consts, repeats, binds, nslots) -> None:
        self.pred = pred
        self.arity = arity
        #: ``(position, value)``: the fact must carry *value* there.
        self.consts = consts
        #: ``(position, first_position)``: a repeated variable.
        self.repeats = repeats
        #: ``(position, slot)``: intern the argument into *slot*, in
        #: slot order (the order :func:`_initial_codes` interns in).
        self.binds = binds
        self.nslots = nslots


def seed_spec(compiled: CompiledPlan, plan: JoinPlan,
              pattern: Atom) -> Optional[SeedSpec]:
    """The (cached) seed spec of *pattern* against *plan*.

    None when the pattern's variables do not bind exactly the plan's
    bound slots — a seed from it would make :func:`_initial_codes`
    return None for every fact, so such runs take the interpreter.
    """
    spec = compiled.seed_specs.get(pattern, _ABSENT)
    if spec is _ABSENT:
        var_slots = plan.var_slots
        consts: List[Tuple[int, object]] = []
        repeats: List[Tuple[int, int]] = []
        binds: List[Tuple[int, int]] = []
        first: Dict[Variable, int] = {}
        for position, arg in enumerate(pattern.args):
            if not isinstance(arg, Variable):
                consts.append((position, arg))
            elif arg in first:
                repeats.append((position, first[arg]))
            else:
                first[arg] = position
                slot = var_slots.get(arg)
                if slot is not None:
                    binds.append((position, slot))
        binds.sort(key=lambda item: item[1])
        if {slot for _position, slot in binds} == compiled.bound_slots:
            spec = SeedSpec(pattern.pred, pattern.arity, tuple(consts),
                            tuple(repeats), tuple(binds), plan.nslots)
        else:
            spec = None
        compiled.seed_specs[pattern] = spec
    return spec


def bind_seed(spec: SeedSpec, fact: Atom,
              intern) -> Optional[List[Optional[int]]]:
    """Registers seeded from the ground *fact*, or None when it does not
    match the spec's pattern (exactly when :func:`match` returns None)."""
    args = fact.args
    if fact.pred != spec.pred or len(args) != spec.arity:
        return None
    for position, value in spec.consts:
        if value != args[position]:
            return None
    for position, first in spec.repeats:
        if args[first] != args[position]:
            return None
    init: List[Optional[int]] = [None] * spec.nslots
    for position, slot in spec.binds:
        init[slot] = intern(args[position])
    return init


class Seeder:
    """Runs of one plan, each seeded by a ground fact matching *pattern*.

    :meth:`seed` takes the tiering decision once per run.  A warm plan
    binds the fact straight into registers through the pattern's seed
    spec; a cold plan (or the interpreted executor) gets the
    :func:`match` substitution instead, for the interpreter.
    """

    __slots__ = ("plan", "database", "pattern", "compiled", "spec",
                 "intern")

    def __init__(self, plan: JoinPlan, database, pattern: Atom) -> None:
        self.plan = plan
        self.database = database
        self.pattern = pattern
        self.compiled: Optional[CompiledPlan] = None
        self.spec: Optional[SeedSpec] = None
        self.intern = database.symbols.intern

    def seed(self, fact: Atom):
        """``(compiled, registers)`` for a compiled run, ``(None,
        substitution)`` for an interpreted one, or None when *fact* does
        not match the pattern (no run)."""
        spec = self.spec
        if spec is not None:
            init = bind_seed(spec, fact, self.intern)
            return None if init is None else (self.compiled, init)
        theta = match(self.pattern, fact)
        if theta is None:
            return None
        plan = self.plan
        if plan.use_compiled(self.database):
            compiled = compiled_for(plan, self.database)
            spec = seed_spec(compiled, plan, self.pattern)
            if spec is not None:
                self.compiled, self.spec = compiled, spec
                return compiled, bind_seed(spec, fact, self.intern)
            self.database.stats.compiled_fallbacks += 1
        return None, theta
