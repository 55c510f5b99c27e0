"""The interpreter for GOM operation bodies.

The paper "assume[s] that the source code is interpreted by the runtime
system".  :class:`Interpreter` evaluates the code AST of
:mod:`repro.analyzer.ast_nodes` directly:

* dynamic binding: a call resolves against the receiver's *runtime* type
  through ``Decl_i`` — the rule set already respects refinement, so a
  ``distance`` call on a City binds to City's refinement;
* ``super.op(...)`` binds statically against the supertypes of the type
  owning the currently executing declaration;
* objects of *other type versions* fall back to **fashion**: a call not
  visible at the receiver's type is looked up through ``FashionDecl``.

Builtin helper functions (``sqrt``, ``date_from_age``, …) are a
registry the embedding application may extend.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import InterpreterError, MethodLookupError
from repro.datalog.terms import Atom
from repro.gom.ids import Id
from repro.analyzer import ast_nodes as ast
from repro.analyzer.parser import parse_code_text
from repro.runtime.masking import fashion_decl_code

#: The fixed "now" of the date helpers, for deterministic examples: the
#: paper appeared in 1993.
CURRENT_YEAR = 1993

DEFAULT_FUNCTIONS: Dict[str, Callable] = {
    "sqrt": lambda x: math.sqrt(x),
    "abs": lambda x: abs(x),
    "min": lambda a, b: min(a, b),
    "max": lambda a, b: max(a, b),
    "length": lambda s: len(s),
    "concat": lambda a, b: a + b,
    "current_year": lambda: CURRENT_YEAR,
    "date_from_age": lambda age: CURRENT_YEAR - age,
    "age_from_date": lambda year: CURRENT_YEAR - year,
}


class _Return(Exception):
    """Internal control flow for ``return``."""

    def __init__(self, value: object) -> None:
        self.value = value


@dataclass
class _Frame:
    """One activation: the receiver, its static home type, and locals."""

    self_obj: object  # a GomObject
    home_type: Optional[Id]  # the type owning the running declaration
    env: Dict[str, object]
    runtime: object  # the RuntimeSystem, held for the activation only


class Interpreter:
    """Evaluates stored code texts against the object store."""

    def __init__(self, runtime) -> None:
        # Weak: the runtime owns this interpreter, and a strong
        # back-reference would keep a dropped runtime (and its object
        # base) alive until a full collection.  Each entry point takes
        # one strong reference for its activation, in the frame.
        self._runtime = weakref.ref(runtime)
        self.functions: Dict[str, Callable] = dict(DEFAULT_FUNCTIONS)
        self._code_cache: Dict[str, Tuple[str, Tuple[str, ...], ast.Block]] = {}

    @property
    def runtime(self):
        """The runtime system this interpreter evaluates against."""
        return self._runtime()

    def register_function(self, name: str, func: Callable) -> None:
        """Extend the builtin helper functions."""
        self.functions[name] = func

    # -- entry points -----------------------------------------------------------

    def call(self, obj, opname: str, args: List[object]) -> object:
        """Dynamically bound call of *opname* on *obj*.

        Resolution is arity-aware so overloaded declarations (the
        ``overloading`` feature) dispatch on argument count.
        """
        runtime = self._runtime()
        binding = runtime.lookup(_binding, obj.tid, opname, len(args))
        if binding is None:
            handled, result = runtime.handlers.call(obj, opname, args)
            if handled:
                return result
            return self._fashion_call(runtime, obj, opname, args)
        code_text, home = binding
        if code_text is None:
            raise MethodLookupError(
                f"operation {opname!r} of "
                f"{runtime.model.type_name(obj.tid)!r} has no code")
        return self._run(runtime, code_text, obj, args, home)

    def _fashion_call(self, runtime, obj, opname: str,
                      args: List[object]) -> object:
        """Resolve a call through fashion substitutability (§4.1)."""
        code_text = runtime.lookup(fashion_decl_code, obj.tid, opname)
        if code_text is None:
            raise MethodLookupError(
                f"operation {opname!r} is not visible at type "
                f"{runtime.model.type_name(obj.tid)!r} and no fashion "
                f"imitates it")
        return self._run(runtime, code_text, obj, args, obj.tid)

    def call_super(self, frame: _Frame, opname: str,
                   args: List[object]) -> object:
        """Statically bound super call from within *frame*."""
        if frame.home_type is None:
            raise InterpreterError("super call outside an operation body")
        runtime = frame.runtime
        binding = runtime.lookup(_super_binding, frame.home_type,
                                 opname, len(args))
        if binding is None:
            raise MethodLookupError(
                f"no super operation {opname!r} above "
                f"{runtime.model.type_name(frame.home_type)!r}")
        code_text, home = binding
        if code_text is None:
            raise MethodLookupError(
                f"super operation {opname!r} has no code")
        return self._run(runtime, code_text, frame.self_obj, args, home)

    def run_code(self, code_text: str, self_obj, args: Sequence[object],
                 home_type: Optional[Id] = None) -> object:
        """Execute stored canonical code text ``name(params) is <body>``."""
        return self._run(self._runtime(), code_text, self_obj, args,
                         home_type)

    def _run(self, runtime, code_text: str, self_obj,
             args: Sequence[object], home_type: Optional[Id]) -> object:
        name, params, body = self._parse(code_text)
        if len(params) != len(args):
            raise InterpreterError(
                f"operation {name!r} expects {len(params)} argument(s), "
                f"got {len(args)}")
        frame = _Frame(self_obj=self_obj,
                       home_type=home_type if home_type is not None
                       else getattr(self_obj, "tid", None),
                       env=dict(zip(params, args)),
                       runtime=runtime)
        try:
            self._exec_block(body, frame)
        except _Return as result:
            return result.value
        return None

    def run_accessor(self, code_text: str, self_obj,
                     args: Sequence[object]) -> object:
        """Execute a fashion read/write accessor body."""
        return self._run(self._runtime(), code_text, self_obj, args,
                         getattr(self_obj, "tid", None))

    def _parse(self, code_text: str):
        cached = self._code_cache.get(code_text)
        if cached is None:
            cached = parse_code_text(code_text)
            self._code_cache[code_text] = cached
        return cached

    # -- statements -----------------------------------------------------------------

    def _exec_block(self, block: ast.Block, frame: _Frame) -> None:
        for statement in block.statements:
            self._exec_stmt(statement, frame)

    def _exec_stmt(self, statement: ast.Stmt, frame: _Frame) -> None:
        if isinstance(statement, ast.Block):
            self._exec_block(statement, frame)
        elif isinstance(statement, ast.Return):
            value = (self._eval(statement.value, frame)
                     if statement.value is not None else None)
            raise _Return(value)
        elif isinstance(statement, ast.Assign):
            value = self._eval(statement.value, frame)
            target = statement.target
            if isinstance(target, ast.Name):
                frame.env[target.name] = value
            elif isinstance(target, ast.AttrAccess):
                receiver = self._eval(target.receiver, frame)
                obj = self._as_object(receiver, frame)
                frame.runtime.set_attr(obj, target.attr, value)
            else:
                raise InterpreterError("invalid assignment target")
        elif isinstance(statement, ast.If):
            if self._truthy(self._eval(statement.condition, frame)):
                self._exec_block(statement.then_block, frame)
            elif statement.else_block is not None:
                self._exec_block(statement.else_block, frame)
        elif isinstance(statement, ast.ExprStmt):
            self._eval(statement.expr, frame)
        else:
            raise InterpreterError(
                f"unknown statement {type(statement).__name__}")

    # -- expressions --------------------------------------------------------------------

    def _eval(self, expr: ast.Expr, frame: _Frame) -> object:
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.SelfRef):
            return frame.self_obj
        if isinstance(expr, ast.Name):
            if expr.name in frame.env:
                return frame.env[expr.name]
            if frame.runtime.lookup(_is_enum_value, expr.name):
                return expr.name
            raise InterpreterError(f"unbound name {expr.name!r}")
        if isinstance(expr, ast.AttrAccess):
            receiver = self._eval(expr.receiver, frame)
            obj = self._as_object(receiver, frame)
            return frame.runtime.get_attr(obj, expr.attr)
        if isinstance(expr, ast.MethodCall):
            receiver = self._eval(expr.receiver, frame)
            obj = self._as_object(receiver, frame)
            args = [self._eval(arg, frame) for arg in expr.args]
            return self.call(obj, expr.op, args)
        if isinstance(expr, ast.SuperCall):
            args = [self._eval(arg, frame) for arg in expr.args]
            return self.call_super(frame, expr.op, args)
        if isinstance(expr, ast.FuncCall):
            func = self.functions.get(expr.func)
            if func is None:
                raise InterpreterError(
                    f"unknown builtin function {expr.func!r}")
            args = [self._eval(arg, frame) for arg in expr.args]
            return func(*args)
        if isinstance(expr, ast.BinOp):
            return self._binop(expr, frame)
        if isinstance(expr, ast.UnaryOp):
            value = self._eval(expr.operand, frame)
            if expr.op == "-":
                return -value  # type: ignore[operator]
            if expr.op == "not":
                return not self._truthy(value)
            raise InterpreterError(f"unknown unary operator {expr.op!r}")
        raise InterpreterError(f"unknown expression {type(expr).__name__}")

    def _binop(self, expr: ast.BinOp, frame: _Frame) -> object:
        if expr.op == "and":
            return (self._truthy(self._eval(expr.left, frame))
                    and self._truthy(self._eval(expr.right, frame)))
        if expr.op == "or":
            return (self._truthy(self._eval(expr.left, frame))
                    or self._truthy(self._eval(expr.right, frame)))
        left = self._eval(expr.left, frame)
        right = self._eval(expr.right, frame)
        if expr.op in ("==", "!="):
            equal = self._identity(left) == self._identity(right)
            return equal if expr.op == "==" else not equal
        try:
            if expr.op == "+":
                return left + right  # type: ignore[operator]
            if expr.op == "-":
                return left - right  # type: ignore[operator]
            if expr.op == "*":
                return left * right  # type: ignore[operator]
            if expr.op == "/":
                return left / right  # type: ignore[operator]
            if expr.op == "<":
                return left < right  # type: ignore[operator]
            if expr.op == "<=":
                return left <= right  # type: ignore[operator]
            if expr.op == ">":
                return left > right  # type: ignore[operator]
            if expr.op == ">=":
                return left >= right  # type: ignore[operator]
        except TypeError as error:
            raise InterpreterError(
                f"operator {expr.op!r} on incompatible values "
                f"{left!r} and {right!r}") from error
        raise InterpreterError(f"unknown operator {expr.op!r}")

    # -- helpers --------------------------------------------------------------------------

    @staticmethod
    def _as_object(value: object, frame: _Frame):
        from repro.runtime.objects import GomObject
        if isinstance(value, GomObject):
            return value
        if isinstance(value, Id) and value.kind == "oid":
            return frame.runtime.get(value)
        raise InterpreterError(
            f"value {value!r} is not an object (attribute access / call "
            f"on a non-object)")

    @staticmethod
    def _identity(value: object) -> object:
        from repro.runtime.objects import GomObject
        if isinstance(value, GomObject):
            return value.oid
        return value

    @staticmethod
    def _truthy(value: object) -> bool:
        if isinstance(value, bool):
            return value
        raise InterpreterError(
            f"condition evaluated to non-boolean value {value!r}")


# -- schema answers, memoized by RuntimeSystem.lookup -----------------------------


def _binding(model, tid: Id, opname: str,
             nargs: int) -> Optional[Tuple[Optional[str], Optional[Id]]]:
    """(code text or None, home type) of the declaration a call of
    *opname* with *nargs* arguments on *tid* binds to; None if none is
    visible at *tid*."""
    did = model.resolve_operation(tid, opname, nargs)
    if did is None:
        return None
    code = model.code_for(did)
    return (None if code is None else code[1]), _decl_home(model, did)


def _super_binding(model, home: Id, opname: str, nargs: int
                   ) -> Optional[Tuple[Optional[str], Optional[Id]]]:
    """The binding of ``super.opname`` in a body declared at *home*:
    the first direct supertype at which the call binds."""
    for super_tid in model.supertypes(home):
        binding = _binding(model, super_tid, opname, nargs)
        if binding is not None:
            return binding
    return None


def _decl_home(model, did: Id) -> Optional[Id]:
    for fact in model.db.matching(Atom("Decl", (did, None, None, None))):
        return fact.args[1]
    return None


def _is_enum_value(model, name: str) -> bool:
    return next(iter(model.db.matching(
        Atom("EnumValue", (None, name)))), None) is not None
