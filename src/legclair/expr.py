"""Scalar expression language with exact first and second derivatives.

Grammar (recursive descent, one token of lookahead):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' factor)?
    base   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')' | '-' base

Functions: sin cos tan exp ln sqrt.  Constants: pi, e.  Numbers are decimal
with an optional exponent.  ``abs`` is recognized and rejected at parse time
(it breaks the smoothness every downstream consumer relies on).  Exponents
must be constant subexpressions; they are folded to a number during parsing.
Non-integer exponents additionally require a positive base at evaluation.

Derivatives are forward-mode (value, gradient, Hessian) triples -- no nested
first-order passes and no finite differences -- computed by straight-line
Python generated once per (expression, active-index tuple) on first use and
cached on the :class:`Expression` (see the Evaluation section).  A value or
derivative that overflows to inf/NaN raises ``EvalDomainError``.
"""

from __future__ import annotations

import builtins
import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "ExprError",
    "ParseError",
    "EvalDomainError",
    "Expression",
    "Dual2",
    "parse",
    "evaluate",
    "evaluate_many",
    "eval_dual2",
    "eval_dual2_many",
    "to_source",
    "with_variables",
]

FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt")
CONSTANTS = {"pi": math.pi, "e": math.e}
_RESERVED = set(FUNCTIONS) | set(CONSTANTS) | {"abs"}


class ExprError(Exception):
    """Base class for expression-language errors."""


class ParseError(ExprError):
    """Syntax, unknown-identifier, or arity error; ``column`` is 1-based."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


class EvalDomainError(ExprError):
    """A function or operator was evaluated outside its domain."""

    def __init__(self, message: str, fragment: str):
        super().__init__(f"{message} in '{fragment}'")
        self.fragment = fragment


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Div:
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: float  # always a folded constant


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


@dataclass(frozen=True)
class Expression:
    """An immutable parsed expression over an ordered variable table."""

    root: object
    variables: tuple[str, ...]
    source: str = field(compare=False, default="")
    # compiled kernels: scalar ones keyed by _active_key's tuple or
    # _VALUE_ONLY, stacked ones by (_STACKED, that key) (see Evaluation)
    _kernels: dict = field(default_factory=dict, init=False, compare=False,
                           repr=False)

    def __str__(self) -> str:
        return to_source(self.root)


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            col = len(source) - len(stripped) + 1
            raise ParseError(f"unexpected character {stripped[0]!r}", col)
        col = m.start(m.lastgroup) + 1
        tokens.append((m.lastgroup, m.group(m.lastgroup), col))
        pos = m.end()
    tokens.append(("end", "", len(source) + 1))
    return tokens


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.i = 0
        self.variables = variables
        self.var_index = {name: k for k, name in enumerate(variables)}

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, text, col = self.peek()
        if kind != "op" or text != op:
            got = repr(text) if kind != "end" else "end of input"
            raise ParseError(f"expected '{op}', got {got}", col)
        return self.next()

    def parse(self):
        kind, _, col = self.peek()
        if kind == "end":
            raise ParseError("empty expression", col)
        node = self.expr()
        kind, text, col = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", col)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                rhs = self.term()
                node = Add(node, rhs) if text == "+" else Sub(node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                rhs = self.factor()
                node = Mul(node, rhs) if text == "*" else Div(node, rhs)
            else:
                return node

    def factor(self):
        node = self.base()
        kind, text, col = self.peek()
        if kind == "op" and text == "^":
            self.next()
            expo_col = self.peek()[2]
            expo = self.factor()
            node = Pow(node, self._fold_exponent(expo, expo_col))
        return node

    def base(self):
        kind, text, col = self.next()
        if kind == "number":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"number {text} overflows", col)
            return Num(value)
        if kind == "ident":
            return self._ident(text, col)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "op" and text == "-":
            return Neg(self.base())
        got = repr(text) if kind != "end" else "end of input"
        raise ParseError(f"expected a number, identifier, or '(', got {got}", col)

    def _ident(self, name, col):
        if name == "abs":
            raise ParseError("'abs' is not supported: it is not smooth at 0", col)
        if name in FUNCTIONS:
            kind, text, ncol = self.peek()
            if kind != "op" or text != "(":
                raise ParseError(f"function '{name}' must be called with '('", ncol)
            self.next()
            arg = self.expr()
            kind, text, acol = self.peek()
            if kind == "op" and text == ",":
                raise ParseError(f"function '{name}' takes exactly one argument", acol)
            self.expect_op(")")
            return Call(name, arg)
        if name in CONSTANTS:
            return Num(CONSTANTS[name])
        if name in self.var_index:
            return Var(self.var_index[name], name)
        raise ParseError(f"unknown identifier '{name}'", col)

    def _fold_exponent(self, node, col):
        if isinstance(node, Num):
            return node.value
        if any(isinstance(x, Var) for x in _nodes(node)):
            raise ParseError("exponent must be a constant expression", col)
        try:
            return _compile(node, 0, None, checked=True)([])
        except EvalDomainError as err:
            raise ParseError(f"invalid constant exponent: {err}", col) from None


_CHILDREN = ("arg", "left", "right", "base")  # the subtree fields of a node


def _nodes(node):
    """Every node of an expression tree, parents before their children."""
    yield node
    for name in _CHILDREN:
        if hasattr(node, name):
            yield from _nodes(getattr(node, name))


def parse(source: str, variables) -> Expression:
    """Parse ``source`` over an ordered variable table.

    Any identifier that is not a declared variable, a function, or one of the
    constants pi/e is an unknown-identifier error carrying its 1-based column.
    """
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise ValueError(f"duplicate variable names in {variables!r}")
    clash = _RESERVED.intersection(variables)
    if clash:
        raise ValueError(f"variable names shadow built-ins: {sorted(clash)}")
    root = _Parser(_tokenize(source), variables).parse()
    return Expression(root, variables, source)


# --------------------------------------------------------------------------
# Printing
# --------------------------------------------------------------------------

_PREC_ATOM = 10
_PREC_NEG = 4
_PREC_POW = 3
_PREC_TERM = 2
_PREC_EXPR = 1


def _fmt_number(v: float) -> str:
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _render(node, ctx: int) -> str:
    if isinstance(node, Num):
        return _fmt_number(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({_render(node.arg, 0)})"
    if isinstance(node, Neg):
        text, prec = "-" + _render(node.arg, _PREC_NEG), _PREC_NEG
    elif isinstance(node, Pow):
        text = f"{_render(node.base, _PREC_NEG)}^{_fmt_number(node.exponent)}"
        prec = _PREC_POW
    elif isinstance(node, Mul):
        text = f"{_render(node.left, _PREC_TERM)}*{_render(node.right, _PREC_TERM + 1)}"
        prec = _PREC_TERM
    elif isinstance(node, Div):
        text = f"{_render(node.left, _PREC_TERM)}/{_render(node.right, _PREC_TERM + 1)}"
        prec = _PREC_TERM
    elif isinstance(node, Add):
        text = f"{_render(node.left, _PREC_EXPR)}+{_render(node.right, _PREC_EXPR + 1)}"
        prec = _PREC_EXPR
    elif isinstance(node, Sub):
        text = f"{_render(node.left, _PREC_EXPR)}-{_render(node.right, _PREC_EXPR + 1)}"
        prec = _PREC_EXPR
    else:
        raise TypeError(f"unknown node {node!r}")
    return f"({text})" if prec < ctx else text


def to_source(node_or_expr) -> str:
    """Render a tree back to grammar-conformant source.

    Re-parsing the result yields a structurally identical tree (parentheses
    are inserted wherever associativity or precedence would regroup).
    """
    node = node_or_expr.root if isinstance(node_or_expr, Expression) else node_or_expr
    return _render(node, 0)


def _remap(node, variables, index_map):
    if isinstance(node, Var):
        j = index_map[node.index]
        return Var(j, variables[j])
    return replace(node, **{
        name: _remap(getattr(node, name), variables, index_map)
        for name in _CHILDREN if hasattr(node, name)})


def with_variables(e: Expression, variables, index_map: dict) -> Expression:
    """Rebuild ``e`` over a new variable table.

    ``index_map`` sends each old variable index to its slot in the new
    table.  Used to lift coordinate-free functions onto the canonical
    (q1..qn, v1..vn) table.
    """
    variables = tuple(variables)
    root = _remap(e.root, variables, index_map)
    return Expression(root, variables, to_source(root))


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------
#
# Each expression is compiled on first use into one Python function per
# active-index tuple, plus one value-only function for ``evaluate``.  One
# node emitter writes them all: the value-only function is the forward pass
# with no active variable, whose derivative rules emit nothing.  Two rules
# hold for it alone: ``sqrt(0)`` is legal, and a quotient's divisor is
# tested before its numerator is visited, so ``ln(q1)/q2`` at (-1, 0) is a
# division by zero to ``evaluate`` and an ln domain error to ``eval_dual2``.
# A constant exponent is folded while parsing by the checked value-only
# function of its subtree (a plain number is taken as it is), so it meets
# ``evaluate``'s domain and overflow checks, and a failing one is a
# ``ParseError`` that quotes the ``EvalDomainError``.  The function takes
# the point as plain floats and returns the value, or for a dual kernel the
# tuple of flat outputs that a stacked kernel's row holds (the value, the
# gradient, then the Hessian row by row).  It runs straight-line code, one
# statement per operation: every value, gradient and Hessian entry goes
# through the operations a forward pass over (value, gradient, Hessian)
# triples performs, in its order, except that a quotient's value is num /
# den, x^1 is x and x^2 is x * x (one correctly rounded multiplication,
# where ``x ** 2`` calls libm's ``pow``), in every function.  Operations
# on constants are done while generating: the generator calls the Python
# operator or ``math`` function that the operation's text calls, on the
# same floats (no ``eval()`` of the text), so nothing changes.  Derivative
# terms known to be zero are dropped, which can flip the sign of a zero
# entry and nothing else.  A slope-free factor (gradient and Hessian all
# known zeros: a constant, or a subtree of inactive variables only) skips
# the per-slot product and chain rules, which would emit the same
# operations in the same order.
#
# Overflow: the function computes unchecked, then tests the sum of its
# outputs for finiteness.  If that fails, or an operation raised (``x ** n``
# for n other than 2 and ``exp`` raise ``OverflowError``, where a square,
# like any product, gives inf; dividing by an underflowed square raises
# ``ZeroDivisionError``), it reruns a checked variant that tests every node
# and raises ``EvalDomainError`` quoting the first one that overflowed.  A
# square that overflows but leaves every output finite (1/x^2 = 0.0) is
# not an error, as 1/(x*x) is not.
#
# Stacked kernels (``eval_dual2_many``/``evaluate_many`` and the lane
# solves of ``clairaut``) run the same operations in the same order on numpy
# columns, one entry per point.  ``+ - * /`` and ``sqrt`` are correctly
# rounded in numpy as in Python, so they run as array operations, squares
# included; other powers, ``exp``, ``ln``, ``tan``, ``sin`` and ``cos`` are
# applied entry by entry with the Python operator or ``math`` function the
# scalar kernel calls, because numpy's versions differ in the last ulp.
# Every row therefore equals the scalar kernel's result bit for bit.  Domain
# guards only mark their rows, and so does a non-finite output sum; a marked
# row, or every row if a Python operation raised, is rerun through the
# scalar kernel, which returns its value or raises its exact error (the
# lowest row first).  Every division also marks the rows where its divisor
# is zero, an underflowed square or cube included: Python's ``/`` raises
# there and sends the scalar kernel down its checked path, while numpy
# returns an inf that a constant factor of 0 can drop from every output.
# A stacked kernel returns its flat outputs as a tuple of columns, in which
# an output known at generation stays a Python float, the entry of every
# point.  Lane callers take the columns as they are (``_columns``); the row
# functions assemble the columns of their request into one row per point
# (``_run_many``).  A request whose own stacked kernel is not compiled runs
# on a compiled one whose active tuple holds its slots in the same order
# (any dual kernel, for the value alone) and takes its own columns: no
# entry depends on the active set, and the wider kernel marks every row the
# narrow one would, since its guards are the same or stricter (``sqrt``'s
# ``<= 0`` against the value's ``< 0``) and it tests more divisors and more
# outputs.
#
# Stage mode (``dynamics``' stage kernels) writes several trees into one
# body with a slot per variable of L: each tree's triple takes the
# operations of its own kernel (the extra slots are known zeros and emit
# nothing).  ``guarded`` tests the evaluations of scalar, Newton and stage
# kernels alike: a fault, a guard or a non-finite output sends a stage or
# Newton evaluation down the caller's slow path, and so does a finite sum
# that overflows where ``eval_dual2`` raises (a node overflowed on the
# way).  The float algebra after them runs on ``_Term`` locals: ``exact``
# folds only identities exact for every float, and ``contract`` emits
# ``clairaut.contract``'s sum as one expression.  The Hamiltonian stage's
# L and its envelope Newton's evaluation share one memo
# (``clairaut.emit_newton``), so each operation text is emitted once.

class Dual2:
    """Value, gradient, and Hessian of one scalar quantity.

    The gradient has one slot per *active* variable, in the order the active
    index list was given; the Hessian is square over the same slots.  From
    :func:`eval_dual2_many` each field carries one more leading axis, one
    entry per point.
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess):
        self.value, self.grad, self.hess = value, grad, hess

    def __repr__(self):
        return f"Dual2(value={self.value!r}, grad={self.grad!r}, hess={self.hess!r})"


_FAULTS = (OverflowError, ZeroDivisionError, ValueError)
_NONFINITE = "overflow to a non-finite value or derivative"
_VALUE_ONLY = object()  # cache key of the kernel behind ``evaluate``
_MATH = {"sin": math.sin, "cos": math.cos, "tan": math.tan,
         "exp": math.exp, "log": math.log, "sqrt": math.sqrt}
# the binary operators of operation and guard templates
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "**": operator.pow, "==": operator.eq,
           "<=": operator.le, "<": operator.lt}


def _zero(q) -> bool:
    return q == 0.0


def _all_finite(*xs) -> bool:
    return all(map(math.isfinite, xs))


def _evaluates(calls, *args) -> bool:
    """Whether ``calls(*args)`` returns rather than raise EvalDomainError."""
    try:
        calls(*args)
    except EvalDomainError:
        return False
    return True


class _Codegen:
    """Emit the straight-line body of one kernel.

    A quantity is either a float known at generation time or the name of a
    local of the generated function, and a node's output is its (value,
    gradient, Hessian) triple.  ``active`` is the tuple of variable indices
    to differentiate against, or None for a value-only kernel: no slot, so
    the triples are (value, [], []), under the two value-only rules of the
    Evaluation section (``sqrt(0)`` allowed, divisor first).  In ``checked``
    mode every operation is guarded and every node's outputs are tested, so
    the first node that overflows raises with its own fragment.  In
    ``stacked`` mode the locals are numpy columns: each operation takes its
    stacked form and a guard marks its rows in ``_bad`` instead of raising.
    Stage mode writes several trees and float algebra into one body
    (``guarded``, ``exact`` and ``contract``).
    """

    temp = "t"  # the locals that hold operations are t0, t1, ...

    def __init__(self, active, checked, stacked=False):
        self.value_only = active is None
        self.m = 0 if self.value_only else len(active)
        self.slot = {a: k for k, a in enumerate(active or ())}
        self.checked = checked
        self.stacked = stacked
        self.lines = []
        self.memo = {}      # operation text -> local holding its result
        self.count = 0      # locals made, which number the next one
        self.divisors = set()  # stacked mode: locals whose zero rows are marked
        self.frags = []     # checked mode: fragment of the node being emitted
        self.tested = set()    # conditions of the run-time guards emitted
        self.read = set()      # locals that the emitted operations and guards read
        self.passed = frozenset()  # conditions known false where this runs
        self.ns = dict(_MATH, _E=EvalDomainError, _FAULTS=_FAULTS,
                       _NONFINITE=_NONFINITE, _finite=_all_finite,
                       _isfinite=math.isfinite)

    def const(self, obj) -> str:
        name = f"_k{len(self.ns)}"
        self.ns[name] = obj
        return name

    def lit(self, q) -> str:
        if isinstance(q, str):
            return q
        if not math.isfinite(q):
            return self.const(q)
        text = repr(q)
        return f"({text})" if text[0] == "-" else text

    # -- operations ---------------------------------------------------------

    def op(self, template: str, *args, fold=None):
        """Emit ``template`` over quantities, or fold it if all are known:
        ``fold`` on the floats, by default the operation the template
        writes (:meth:`compute`).  The text is formatted once, after the
        fold and in the form the kernel runs, except where an operand is a
        non-finite float: each :meth:`lit` of one makes a ``_kN`` constant,
        so its text is also formatted before the fold, which keeps the
        numbers of the constants made after it."""
        floats = [a for a in args if isinstance(a, float)]
        text = (None if _all_finite(*floats)
                else template.format(*map(self.lit, args)))
        known = len(floats) == len(args)
        if known:
            self.folding()
            try:
                q = fold(*args) if fold else self.compute(template, args)
            except _FAULTS:
                q = None
            if isinstance(q, float) and math.isfinite(q):
                return q
        if self.stacked:
            text = _stacked_form(template, not known).format(
                *map(self.lit, args))
        elif text is None:
            text = template.format(*map(self.lit, args))
        name = self.memo.get(text)
        if name is None:
            name = self.memo[text] = f"{self.temp}{self.count}"
            self.count += 1
            self.read.update(a for a in args if isinstance(a, str))
            if self.checked:
                self.lines += ["try:", f"    {name} = {text}",
                               "except _FAULTS:",
                               f"    raise _E(_NONFINITE, {self.frags[-1]}) from None"]
            else:
                self.lines.append(f"{name} = {text}")
            divisor = args[-1] if template.endswith("/ {}") else None
            if (self.stacked and isinstance(divisor, str)
                    and divisor not in self.divisors):
                # the rows where Python's / raises (see Evaluation)
                self.divisors.add(divisor)
                self.lines.append(f"_bad |= {divisor} == 0.0")
        return name

    def guard(self, test: str, x, message: str, node, show_value=True):
        """Raise EvalDomainError quoting ``node`` where ``test`` holds for x;
        a run-time condition in ``passed``, known false where this body
        runs, is not emitted again.  Every emitted one joins ``tested``."""
        cond = test.format(self.lit(x))
        if isinstance(x, float):
            self.folding()
            if not self.compute(test, (x,)):
                return
            cond = "True"
        elif cond in self.passed:
            return
        else:
            self.read.add(x)
        self.tested.add(cond)
        if self.stacked:
            self.lines.append(f"_bad |= {cond}")
            return
        msg = repr(message) + (f" + repr({self.lit(x)})" if show_value else "")
        frag = self.const(to_source(node))
        self.lines.append(f"if {cond}: raise _E({msg}, {frag})")

    def folding(self):
        """Hold the ``__builtins__`` slot from the first fold on, so the
        ``_kN`` names of the constants made after it keep their numbers
        (folds once evaluated their text, which added that slot)."""
        self.ns.setdefault("__builtins__", builtins.__dict__)

    def compute(self, template: str, args):
        """The value of ``template`` (``-{}``, ``f({})``, or ``a SYM b``
        whose a and b are each ``{}`` or a literal) at the floats ``args``,
        with the Python operator or ``math`` function its text calls."""
        if template == "-{}":
            return -args[0]
        call = _CALL.fullmatch(template)
        if call:
            return _MATH[call.group(1)](args[0])
        parts = template.split(" ")
        if len(parts) != 3 or parts[1] not in _BINARY:
            raise TypeError(f"no fold for {template!r}")
        left, sym, right = parts
        it = iter(args)
        a = next(it) if left == "{}" else self.literal(left)
        b = next(it) if right == "{}" else self.literal(right)
        return _BINARY[sym](a, b)

    def literal(self, text: str):
        """The number a template's literal stands for: an int or a float as
        ``_int_lit`` or :meth:`lit` writes it, or a constant's ``_kN``."""
        text = text.strip("()")
        if text.startswith("_k"):
            return self.ns[text]
        return int(text) if text.lstrip("-").isdigit() else float(text)

    # Derivative arithmetic: known zeros drop out, factors of 1.0 vanish, and
    # commutative operands are ordered so that equal products are shared.

    def dneg(self, a):
        return self.op("-{}", a)

    def dadd(self, a, b):
        if _zero(a):
            return b
        if _zero(b):
            return a
        a, b = sorted((a, b), key=self.lit)
        return self.op("{} + {}", a, b)

    def dsub(self, a, b):
        if _zero(b):
            return a
        if _zero(a):
            return self.dneg(b)
        return self.op("{} - {}", a, b)

    def dmul(self, a, b):
        if _zero(a) or _zero(b):
            return 0.0
        for u, w in ((a, b), (b, a)):
            if u == 1.0:
                return w
            if u == -1.0:
                return self.dneg(w)
        a, b = sorted((a, b), key=self.lit)
        return self.op("{} * {}", a, b)

    # -- nodes ----------------------------------------------------------------

    def visit(self, node):
        """Emit ``node`` after its subtree; checked mode tests its outputs."""
        if not self.checked:
            return self._dual(node)
        self.frags.append(self.const(to_source(node)))
        out = self._dual(node)
        every = ", ".join(map(self.lit, self.flat(out)))
        self.lines.append(
            f"if not _finite({every}): raise _E(_NONFINITE, {self.frags.pop()})"
        )
        return out

    @staticmethod
    def flat(out) -> list:
        v, g, h = out
        return [v, *g, *(x for row in h for x in row)]

    # -- value, gradient and Hessian ------------------------------------------

    def zeros(self):
        m = self.m
        return [0.0] * m, [[0.0] * m for _ in range(m)]

    def chain(self, u, f0, f1, f2):
        """Compose u with a scalar map; f1 and f2 are emitted only if used."""
        if _slope_free(u):  # every term below is a known zero
            return (f0, *self.zeros())
        _, g, h = u
        r = range(self.m)
        grad = [0.0 if _zero(g[i]) else self.dmul(f1(), g[i]) for i in r]
        hess = [[self.dadd(
                    0.0 if _zero(h[i][j]) else self.dmul(f1(), h[i][j]),
                    0.0 if _zero(g[i]) or _zero(g[j])
                    else self.dmul(f2(), self.dmul(g[i], g[j])))
                 for j in r] for i in r]
        return f0, grad, hess

    def ipow(self, x, n: int):
        """x ** n for an integer n: 1.0 for n = 0 and x for n = 1, as
        Python's ``**`` gives them for every float x, and x * x for n = 2
        (see Evaluation), a plain array multiply in a stacked kernel."""
        if n == 2:
            return self.op("{} * {}", x, x)
        return 1.0 if n == 0 else x if n == 1 else self.op(
            f"{{}} ** {_int_lit(n)}", x)

    def mul(self, a, b, value=None):
        """The product of two triples; ``value`` replaces its value."""
        av, ga, ha = a
        bv, gb, hb = b
        dmul = self.dmul
        # with a slope-free factor, one product per entry is left; the dadd
        # sums of the full rule pass it on as it is in the gradient when a
        # is that factor, and elsewhere turn a zero of either sign to +0.0
        if _slope_free(a):
            grad = [dmul(x, av) for x in gb]
            hess = [[dmul(x, av) or 0.0 for x in row] for row in hb]
        elif _slope_free(b):
            grad = [dmul(x, bv) or 0.0 for x in ga]
            hess = [[dmul(x, bv) or 0.0 for x in row] for row in ha]
        else:
            r = range(self.m)
            grad = [self.dadd(dmul(ga[i], bv), dmul(gb[i], av)) for i in r]
            hess = [[self.dadd(self.dadd(self.dadd(
                        dmul(ha[i][j], bv), dmul(hb[i][j], av)),
                        dmul(ga[i], gb[j])), dmul(ga[j], gb[i]))
                     for j in r] for i in r]
        if value is None:
            value = self.op("{} * {}", av, bv)
        return value, grad, hess

    def _dual(self, node):
        if isinstance(node, Num):
            return (float(node.value), *self.zeros())
        if isinstance(node, Var):
            grad, hess = self.zeros()
            k = self.slot.get(node.index)
            if k is not None:
                grad[k] = 1.0
            return f"x{node.index}", grad, hess
        if isinstance(node, Neg):
            v, g, h = self.visit(node.arg)
            return (self.op("-{}", v), [self.dneg(x) for x in g],
                    [[self.dneg(x) for x in row] for row in h])
        if isinstance(node, (Add, Sub)):
            a = self.visit(node.left)
            b = self.visit(node.right)
            sym, f = ("+", self.dadd) if isinstance(node, Add) else ("-", self.dsub)
            return (self.op(f"{{}} {sym} {{}}", a[0], b[0]),
                    [f(x, y) for x, y in zip(a[1], b[1])],
                    [[f(x, y) for x, y in zip(p, q)] for p, q in zip(a[2], b[2])])
        if isinstance(node, Mul):
            return self.mul(self.visit(node.left), self.visit(node.right))
        if isinstance(node, Div):
            # a value kernel tests the divisor before it visits the numerator
            num = None if self.value_only else self.visit(node.left)
            den = self.visit(node.right)
            x = den[0]
            self.guard("{} == 0.0", x, "division by zero", node, False)
            if self.value_only:
                return self.op("{} / {}", self.visit(node.left)[0], x), [], []
            xx = lambda: self.op("{} * {}", x, x)  # noqa: E731
            inv = self.chain(
                den, self.op("1.0 / {}", x),
                lambda: self.op("-1.0 / {}", xx()),
                lambda: self.op("2.0 / {}", self.op("{} * {}", xx(), x)),
            )
            # the derivatives are num * (1/x)'s, the value num / x
            return self.mul(num, inv, self.op("{} / {}", num[0], x))
        if isinstance(node, Pow):
            return self._pow(self.visit(node.base), node.exponent, node)
        if isinstance(node, Call):
            return self._call(self.visit(node.arg), node.func, node)
        raise TypeError(f"unknown node {node!r}")

    def _pow(self, u, b, node):
        x = u[0]
        n = round(b)
        if b != n:
            self.guard("{} <= 0.0", x,
                       "non-integer power of non-positive base ", node)
            return self.chain(
                u, self.op(f"{{}} ** {self.lit(b)}", x),
                lambda: self.op(f"{self.lit(b)} * {{}}",
                                self.op(f"{{}} ** {self.lit(b - 1.0)}", x)),
                lambda: self.op(f"{self.lit(b * (b - 1.0))} * {{}}",
                                self.op(f"{{}} ** {self.lit(b - 2.0)}", x)),
            )
        n = int(n)
        if n == 0:  # x^0 = 1 for every x, including the 0 limit
            return self.chain(u, 1.0, lambda: 0.0, lambda: 0.0)
        if n == 1:
            return self.chain(u, x, lambda: 1.0, lambda: 0.0)
        if n < 0:
            self.guard("{} == 0.0", x, "zero raised to a negative power",
                       node, False)
        return self.chain(
            u, self.ipow(x, n),
            lambda: self.op(f"{_int_lit(n)} * {{}}", self.ipow(x, n - 1)),
            lambda: self.op(f"{n * (n - 1)} * {{}}", self.ipow(x, n - 2)),
        )

    def _call(self, u, func, node):
        x = u[0]
        op = self.op
        if func == "sin":
            s = op("sin({})", x)
            return self.chain(u, s, lambda: op("cos({})", x), lambda: op("-{}", s))
        if func == "cos":
            c = op("cos({})", x)
            return self.chain(u, c, lambda: op("-{}", op("sin({})", x)),
                              lambda: op("-{}", c))
        if func == "tan":
            t = op("tan({})", x)
            d = lambda: op("1.0 + {}", op("{} * {}", t, t))  # noqa: E731
            return self.chain(u, t, d,
                              lambda: op("{} * {}", op("2.0 * {}", t), d()))
        if func == "exp":
            ex = op("exp({})", x)
            return self.chain(u, ex, lambda: ex, lambda: ex)
        if func == "ln":
            self.guard("{} <= 0.0", x, "ln of non-positive value ", node)
            return self.chain(u, op("log({})", x), lambda: op("1.0 / {}", x),
                              lambda: op("-1.0 / {}", op("{} * {}", x, x)))
        if func == "sqrt":
            if self.value_only:
                self.guard("{} < 0.0", x, "sqrt of negative value ", node)
            else:
                self.guard(
                    "{} <= 0.0", x,
                    "sqrt needs a positive argument for derivatives, got ", node)
            s = op("sqrt({})", x)
            return self.chain(u, s, lambda: op("0.5 / {}", s),
                              lambda: op("-0.25 / {}", op("{} * {}", x, s)))
        raise TypeError(f"unknown function {func!r}")  # pragma: no cover

    # -- the evaluation test and stage mode (see Evaluation) ------------------

    def guarded(self, start, outputs, fail: str, rerun=None):
        """Run ``fail`` where the lines from ``start`` fault or the outputs'
        sum is not finite.  An inline evaluation gives ``rerun``, true where
        its ``eval_dual2`` calls return: a guard fails too, and a finite sum
        that overflows fails only where ``rerun`` is false."""
        body = self.lines[start:]
        if body:
            faults = "_FAULTS" if rerun is None else "(*_FAULTS, _E)"
            self.lines[start:] = ["try:", *("    " + x for x in body),
                                  f"except {faults}:", "    " + fail]
        live = self.live(outputs)
        if live:
            test = f"not _isfinite({' + '.join(live)})"
            if rerun is not None:
                test += f" and not (_finite({', '.join(live)}) and {rerun})"
            self.lines.append(f"if {test}: {fail}")

    def exact(self, template, a, b=None):
        """One operation on terms, where only identities exact for every
        float fold: x + -0.0, x - 0.0, and x * ±1.0 and x / ±1.0."""
        if template == "{} + {}" and (_minus_zero(a) or _minus_zero(b)):
            return b if _minus_zero(a) else a
        if template == "{} - {}" and _zero(b) and not _minus_zero(b):
            return a
        if template == "{} * {}" and a in (1.0, -1.0):
            a, b = b, a
        if template in ("{} * {}", "{} / {}") and b in (1.0, -1.0):
            return a if b == 1.0 else -a
        return _Term(self.op(template, *(a,) if b is None else (a, b)), self)

    def contract(self, a, b):
        """:func:`~legclair.clairaut.contract`'s 0.0 + a1*b1 + ... as one
        operation.  A known 0.0 times a finite factor is ±0.0, which leaves
        a sum from +0.0 (never -0.0) as it is, so its term is dropped.  A
        known ±1.0 factor is dropped too: s + 1.0*y is s + y and s +
        (-1.0)*y is s - y for every float, NaN payloads included."""
        known, text, args = 0.0, "{}", []
        for x, y in zip(a, b):
            if (_zero(x) and _finite_term(y)) or (_zero(y) and _finite_term(x)):
                continue
            if isinstance(x, float) and isinstance(y, float) and not args:
                known = known + x * y
                continue
            if x in (1.0, -1.0):
                x, y = y, x
            if y in (1.0, -1.0):
                sign = " + " if y > 0.0 else " - "
                text, args = text + sign + "{}", args + [x]
            else:
                text, args = text + " + {} * {}", args + [x, y]
        return _Term(self.op(text, known, *args), self) if args else known

    # -- compiling ----------------------------------------------------------------

    def list_source(self, xs) -> str:
        """A list display of the quantities ``xs``."""
        return f"[{', '.join(map(self.lit, xs))}]"

    def live(self, outputs) -> list:
        """The outputs a finiteness test covers: locals and non-finite floats."""
        return list(dict.fromkeys(self.lit(q) for q in outputs
                                  if isinstance(q, str) or not math.isfinite(q)))

    def build(self, src, filename):
        """Compile the source lines ``src``, which define ``kernel``."""
        exec(compile("\n".join(src), filename, "exec"), self.ns)
        return self.ns.pop("kernel")  # no cycle through its own globals


class _Term(str):
    """A local of a stage body, ``finite`` where it has been tested.  Its
    arithmetic emits through :meth:`_Codegen.exact`, so float code written
    for numbers (``clairaut.gepp``) runs on terms unchanged."""

    def __new__(cls, name, cg, finite=False):
        term = super().__new__(cls, name)
        term.cg, term.finite = cg, finite
        return term

    def __neg__(self):
        return self.cg.exact("-{}", self)


for _op, _sym in (("add", "+"), ("sub", "-"), ("mul", "*"), ("truediv", "/")):
    setattr(_Term, f"__{_op}__", lambda a, b, t=f"{{}} {_sym} {{}}":
            a.cg.exact(t, a, b))
    setattr(_Term, f"__r{_op}__", lambda a, b, t=f"{{}} {_sym} {{}}":
            a.cg.exact(t, b, a))


def _slope_free(triple) -> bool:
    """Whether a triple's gradient and Hessian are all known zeros (a
    local's name, like a nonzero or NaN float, is truthy)."""
    _, g, h = triple
    return not (any(g) or any(map(any, h)))


def _minus_zero(q) -> bool:
    return isinstance(q, float) and q == 0.0 and math.copysign(1.0, q) < 0.0


def _finite_term(q) -> bool:
    return math.isfinite(q) if isinstance(q, float) else q.finite


def _int_lit(n: int) -> str:
    return str(n) if n >= 0 else f"({n})"


_INT_EXPONENT = re.compile(r"\(?-?\d+\)?")
_CALL = re.compile(r"(\w+)\(\{\}\)")


def _stacked_form(template: str, column: bool) -> str:
    """The stacked form of one scalar operation template (see Evaluation).

    ``column`` is False for an operation on constants that did not fold: it
    stays a Python float operation, except that a non-integer power raises
    (``math.pow``) where ``**`` would return a complex number.
    """
    if template.startswith("{} ** "):
        expo = template[len("{} ** "):]
        if _INT_EXPONENT.fullmatch(expo):
            return f"_each(_ipow, {{}}, {expo})" if column else template
        return f"_each(_fpow, {{}}, {expo})" if column else f"_fpow({{}}, {expo})"
    if not column:
        return template
    call = _CALL.fullmatch(template)
    if call:
        func = call.group(1)
        return "_sqrt({})" if func == "sqrt" else f"_each({func}, {{}})"
    return template


def _each(func, column, *args) -> np.ndarray:
    """``func(x, *args)`` for every entry x of ``column``, as Python floats."""
    return np.fromiter(
        map(func, column.tolist(), *map(itertools.repeat, args)),
        float, len(column),
    )


def _compile(root, nvars: int, active, checked=False):
    """Generate, compile and return the kernel for one active tuple.

    ``active`` None gives the value-only kernel.  The kernel takes the point
    as a list of floats and returns the value, or a dual kernel's flat
    outputs as a tuple, the row a stacked kernel gives (see :func:`_dual2`).
    """
    cg = _Codegen(active, checked)
    outputs = cg.flat(cg.visit(root))
    result = (cg.lit(outputs[0]) if cg.value_only
              else "".join(f"{cg.lit(q)}, " for q in outputs))
    src = ["def kernel(p):"]
    if nvars:
        src.append("    " + "".join(f"x{i}, " for i in range(nvars)) + "= p")
    if not checked:
        cg.ns["_slow"] = functools.partial(_run_checked, root, nvars, active, [])
        cg.guarded(0, outputs, "return _slow(p)")
    src += ["    " + line for line in cg.lines]
    src.append(f"    return {result}")
    return cg.build(src, "<legclair kernel>")


def _run_checked(root, nvars, active, cell, p):
    """Slow path: rerun with every node checked; raises at the first overflow."""
    if not cell:
        cell.append(_compile(root, nvars, active, checked=True))
    return cell[0](p)


def _compile_many(root, nvars: int, active):
    """Generate and compile the stacked kernel for one active tuple.

    The kernel takes the points as an (nvars, count) array of columns and
    returns the tuple of flat outputs ((value, gradient, Hessian row by
    row), or the value alone when ``active`` is None), each a column with
    one entry per point or, for an output known at generation, that Python
    float, and a mask of the rows that must be rerun through the scalar
    kernel.
    """
    cg = _Codegen(active, checked=False, stacked=True)
    outputs = cg.flat(cg.visit(root))
    src = ["def kernel(p, _n):", "    _bad = _zeros(_n, bool)"]
    if nvars:
        src.append("    " + "".join(f"x{i}, " for i in range(nvars)) + "= p")
    src += ["    " + line for line in cg.lines]
    live = cg.live(outputs)
    if live:
        src.append(f"    _bad |= ~_isfinite({' + '.join(live)})")
    result = "".join(f"{cg.lit(q)}, " for q in outputs)
    src.append(f"    return ({result}), _bad")
    cg.ns.update(_zeros=np.zeros, _isfinite=np.isfinite, _each=_each,
                 _ipow=operator.pow, _fpow=math.pow, _sqrt=np.sqrt)
    return cg.build(src, "<legclair stacked kernel>")


def _point(e: Expression, point) -> list:
    point = np.asarray(point, dtype=float)
    nv = len(e.variables)
    if point.shape != (nv,):
        raise ValueError(f"point has shape {point.shape}, expected ({nv},)")
    return point.tolist()


def _active_key(e: Expression, active) -> tuple:
    nv = len(e.variables)
    key = tuple(range(nv)) if active is None else tuple(int(a) for a in active)
    if len(set(key)) != len(key):
        raise ValueError(f"duplicate active indices {key!r}")
    for a in key:
        if not 0 <= a < nv:
            raise ValueError(f"active index {a} out of range for {nv} variables")
    return key


def _kernel(e: Expression, key):
    """The scalar kernel for an active tuple or ``_VALUE_ONLY``."""
    kernel = e._kernels.get(key)
    if kernel is None:
        kernel = e._kernels[key] = _compile(
            e.root, len(e.variables), None if key is _VALUE_ONLY else key)
    return kernel


def _dual2(flat, m: int) -> Dual2:
    """The :class:`Dual2` of flat outputs over m slots: a scalar kernel's
    tuple, whose value stays a Python float, or a stacked kernel's (count,
    1 + m + m*m) array of rows (value, gradient, Hessian row by row)."""
    out = np.asarray(flat, dtype=float)
    value = flat[0] if type(flat) is tuple else out[:, 0]
    lead = out.shape[:-1]
    return Dual2(value, out[..., 1:m + 1], out[..., m + 1:].reshape(*lead, m, m))


def eval_dual2(e: Expression, point, active=None) -> Dual2:
    """Evaluate ``e`` with exact gradient and Hessian in the active variables.

    Parameters
    ----------
    e : Expression
    point : full coordinate vector, one entry per variable in ``e.variables``.
    active : iterable of variable indices to differentiate against, in slot
        order; ``None`` means all variables.

    Raises ``EvalDomainError`` outside a function's domain and where the
    value, gradient or Hessian overflows to a non-finite number.
    """
    p = _point(e, point)
    key = _active_key(e, active)
    return _dual2(_kernel(e, key)(p), len(key))


def evaluate(e: Expression, point) -> float:
    """Evaluate ``e`` at ``point``.

    Value-only twin of :func:`eval_dual2`: plain floats, and the slightly
    wider domains that come with them (``sqrt(0)`` is legal here, while the
    derivative pass must reject it).  A non-finite result raises
    ``EvalDomainError``.
    """
    p = _point(e, point)
    return _kernel(e, _VALUE_ONLY)(p)


_STACKED = object()  # first half of the cache key of every stacked kernel


def _stacked(e: Expression, key):
    """The stacked kernel that serves ``key`` and ``key``'s columns of its
    flat outputs (None for all): a compiled wider kernel if there is one
    (see Evaluation), else ``key``'s own; cached under ``key``."""
    served = e._kernels.get((_STACKED, key))
    if served is None:
        served = e._kernels[_STACKED, key] = _wide_kernel(e, key) or (
            _compile_many(e.root, len(e.variables),
                          None if key is _VALUE_ONLY else key), None)
    return served


def _wide_kernel(e: Expression, key):
    """(kernel, columns) of a compiled kernel that serves ``key``, or None."""
    for cached in e._kernels:
        if type(cached) is not tuple or cached[:1] != (_STACKED,):
            continue
        kernel, cols = e._kernels[cached]
        wide = cached[1]
        if cols is not None or wide is _VALUE_ONLY:
            continue  # itself served, or value-only
        if key is _VALUE_ONLY:
            return kernel, np.zeros(1, dtype=int)
        pos = [wide.index(a) for a in key if a in wide]
        if len(pos) == len(key) and pos == sorted(pos):
            m = len(wide)
            return kernel, np.array(
                [0, *(1 + i for i in pos),
                 *(1 + m + i * m + j for i in pos for j in pos)], dtype=int)
    return None


def _columns(e: Expression, p, key):
    """The flat outputs of ``key``'s kernel at the points ``p``, an
    (nvars, count) array of columns, as a list of columns, and ``{row:
    error}`` for the rows that raise.

    The stacked kernel that serves ``key`` runs on every row.  An output it
    knows at generation stays its Python float, the entry of every row that
    does not raise.  The rows the kernel marks (every row, if a Python
    operation raised) are rerun into a copy of each other output through
    ``key``'s scalar kernel, which is compiled only then, and a row that
    raises there is left NaN.
    """
    kernel, cols = _stacked(e, key)
    count = p.shape[1]
    try:
        with np.errstate(all="ignore"):
            out, bad = kernel(p, count)
    except _FAULTS:  # a Python operation overflowed or left its domain
        width = 1 if key is _VALUE_ONLY else 1 + len(key) * (len(key) + 1)
        out = [np.empty(count) for _ in range(width)]
        bad = np.ones(count, dtype=bool)
    else:
        out = list(out) if cols is None else [out[j] for j in cols.tolist()]
        if not bad.any():
            return out, {}
        out = [c if isinstance(c, float) else c.copy() for c in out]
    failed = {}
    for i in np.flatnonzero(bad).tolist():
        try:
            row = _kernel(e, key)(p[:, i].tolist())
        except EvalDomainError as err:
            row, failed[i] = [np.nan] * len(out), err
        else:
            row = (row,) if key is _VALUE_ONLY else row
        for c, x in zip(out, row):
            if not isinstance(c, float):
                c[i] = x
    return out, failed


def _run_many(e: Expression, points, key):
    """:func:`_columns` at every row of ``points`` (shape (count, nvars)),
    assembled as one (count, width) array, NaN in the rows that raise."""
    points = np.asarray(points, dtype=float)
    nv = len(e.variables)
    if points.ndim != 2 or points.shape[1] != nv:
        raise ValueError(
            f"points have shape {points.shape}, expected (count, {nv})"
        )
    cols, failed = _columns(e, points.T.copy(), key)
    out = np.empty((len(points), len(cols)))
    for j, c in enumerate(cols):
        out[:, j] = c
    if failed:
        out[list(failed)] = np.nan
    return out, failed


def eval_dual2_rows(e: Expression, points, active=None):
    """:func:`eval_dual2` at every row of ``points`` (shape (count, nvars)),
    and ``{row: error}`` for the rows where it raises.

    Returns a :class:`Dual2` of arrays, value (count,), grad (count, m) and
    hess (count, m, m), and the dict.  Row i equals
    ``eval_dual2(e, points[i], active)`` bit for bit, or is NaN where that
    raises the error filed under i.
    """
    key = _active_key(e, active)
    out, failed = _run_many(e, points, key)
    return _dual2(out, len(key)), failed


def eval_dual2_many(e: Expression, points, active=None) -> Dual2:
    """:func:`eval_dual2` at every row of ``points`` (shape (count, nvars)).

    Returns :func:`eval_dual2_rows`'s arrays; if any row raises, the lowest
    such row's error is raised here.
    """
    d, failed = eval_dual2_rows(e, points, active)
    if failed:
        raise failed[min(failed)]
    return d


def evaluate_many(e: Expression, points) -> np.ndarray:
    """:func:`evaluate` at every row of ``points`` (shape (count, nvars)).

    Entry i equals ``evaluate(e, points[i])`` bit for bit; if any row raises
    there, the lowest such row's error is raised here.
    """
    out, failed = _run_many(e, points, _VALUE_ONLY)
    if failed:
        raise failed[min(failed)]
    return out[:, 0]
