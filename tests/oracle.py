"""The forward-mode tree walker, kept as the reference for the kernels.

This is the evaluator ``legclair.expr`` used before expressions were
compiled to straight-line code: it walks the tree once per call and carries
(value, gradient, Hessian) triples as small numpy arrays.  The property
tests compare :func:`legclair.expr.eval_dual2` and
:func:`legclair.expr.evaluate` against :func:`oracle_eval_dual2` and
:func:`oracle_evaluate` here.  Being numpy-based, it overflows silently to
inf/NaN (or raises the stdlib ``OverflowError``) where the kernels raise
``EvalDomainError``; the tests account for that.  A quotient's value is
num / x and a power 1's value is x itself, the bits of ``evaluate``; their
derivatives are those of the forward pass.
"""

from __future__ import annotations

import math

import numpy as np

from legclair.expr import (
    Add,
    Call,
    Div,
    EvalDomainError,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Var,
    to_source,
)


class Dual2:
    """Value, gradient, and symmetric Hessian of one scalar quantity.

    The gradient has one slot per *active* variable, in the order the active
    index list was given; the Hessian is square over the same slots.
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value: float, grad: np.ndarray, hess: np.ndarray):
        self.value = value
        self.grad = grad
        self.hess = hess

    @staticmethod
    def constant(value: float, m: int) -> "Dual2":
        return Dual2(float(value), np.zeros(m), np.zeros((m, m)))

    def __repr__(self):
        return f"Dual2(value={self.value!r}, grad={self.grad!r}, hess={self.hess!r})"

    def __add__(self, o):
        return Dual2(self.value + o.value, self.grad + o.grad, self.hess + o.hess)

    def __sub__(self, o):
        return Dual2(self.value - o.value, self.grad - o.grad, self.hess - o.hess)

    def __neg__(self):
        return Dual2(-self.value, -self.grad, -self.hess)

    def __mul__(self, o):
        cross = np.outer(self.grad, o.grad)
        return Dual2(
            self.value * o.value,
            self.grad * o.value + o.grad * self.value,
            self.hess * o.value + o.hess * self.value + cross + cross.T,
        )

    def chain(self, f0: float, f1: float, f2: float) -> "Dual2":
        """Compose with a scalar map given f(x), f'(x), f''(x) at self.value."""
        return Dual2(
            f0,
            f1 * self.grad,
            f1 * self.hess + f2 * np.outer(self.grad, self.grad),
        )


def _call_value(func: str, x: float, node) -> float:
    if func == "sin":
        return math.sin(x)
    if func == "cos":
        return math.cos(x)
    if func == "tan":
        return math.tan(x)
    if func == "exp":
        return math.exp(x)
    if func == "ln":
        if x <= 0.0:
            raise EvalDomainError(f"ln of non-positive value {x!r}", to_source(node))
        return math.log(x)
    if func == "sqrt":
        if x < 0.0:
            raise EvalDomainError(f"sqrt of negative value {x!r}", to_source(node))
        return math.sqrt(x)
    raise TypeError(f"unknown function {func!r}")  # pragma: no cover


def _call_dual(func: str, u: Dual2, node) -> Dual2:
    x = u.value
    if func == "sin":
        s = math.sin(x)
        return u.chain(s, math.cos(x), -s)
    if func == "cos":
        c = math.cos(x)
        return u.chain(c, -math.sin(x), -c)
    if func == "tan":
        t = math.tan(x)
        d = 1.0 + t * t
        return u.chain(t, d, 2.0 * t * d)
    if func == "exp":
        ex = math.exp(x)
        return u.chain(ex, ex, ex)
    if func == "ln":
        if x <= 0.0:
            raise EvalDomainError(f"ln of non-positive value {x!r}", to_source(node))
        return u.chain(math.log(x), 1.0 / x, -1.0 / (x * x))
    if func == "sqrt":
        if x <= 0.0:
            raise EvalDomainError(
                f"sqrt needs a positive argument for derivatives, got {x!r}",
                to_source(node),
            )
        s = math.sqrt(x)
        return u.chain(s, 0.5 / s, -0.25 / (x * s))
    raise TypeError(f"unknown function {func!r}")  # pragma: no cover


def _ipow(x: float, n: int) -> float:
    """x ** n, and x * x for n = 2 (one correctly rounded multiplication)."""
    return float(x * x if n == 2 else x ** n)


def _pow_value(x: float, b: float, node) -> float:
    n = round(b)
    if b == n:  # integer exponent: any base, except 0 with n < 0
        if x == 0.0 and n < 0:
            raise EvalDomainError("zero raised to a negative power", to_source(node))
        return _ipow(x, int(n))
    if x <= 0.0:
        raise EvalDomainError(
            f"non-integer power of non-positive base {x!r}", to_source(node)
        )
    return x ** b


def _pow_dual(u: Dual2, b: float, node) -> Dual2:
    x = u.value
    n = round(b)
    if b == n:
        n = int(n)
        if x == 0.0 and n < 3:
            # keep the limits finite where they exist
            if n < 0:
                raise EvalDomainError(
                    "zero raised to a negative power", to_source(node)
                )
            table = {0: (1.0, 0.0, 0.0), 1: (x, 1.0, 0.0), 2: (0.0, 0.0, 2.0)}
            return u.chain(*table[n])
        f0 = _ipow(x, n)
        f1 = n * _ipow(x, n - 1) if n != 0 else 0.0
        f2 = n * (n - 1) * _ipow(x, n - 2) if n not in (0, 1) else 0.0
        return u.chain(f0, f1, f2)
    if x <= 0.0:
        raise EvalDomainError(
            f"non-integer power of non-positive base {x!r}", to_source(node)
        )
    f0 = x ** b
    return u.chain(f0, b * x ** (b - 1.0), b * (b - 1.0) * x ** (b - 2.0))


def _d2(node, point, slot, m) -> Dual2:
    if isinstance(node, Num):
        return Dual2.constant(node.value, m)
    if isinstance(node, Var):
        x = point[node.index]
        grad = np.zeros(m)
        k = slot.get(node.index)
        if k is not None:
            grad[k] = 1.0
        return Dual2(x, grad, np.zeros((m, m)))
    if isinstance(node, Neg):
        return -_d2(node.arg, point, slot, m)
    if isinstance(node, Add):
        return _d2(node.left, point, slot, m) + _d2(node.right, point, slot, m)
    if isinstance(node, Sub):
        return _d2(node.left, point, slot, m) - _d2(node.right, point, slot, m)
    if isinstance(node, Mul):
        return _d2(node.left, point, slot, m) * _d2(node.right, point, slot, m)
    if isinstance(node, Div):
        num = _d2(node.left, point, slot, m)
        den = _d2(node.right, point, slot, m)
        if den.value == 0.0:
            raise EvalDomainError("division by zero", to_source(node))
        x = den.value
        prod = num * den.chain(1.0 / x, -1.0 / (x * x), 2.0 / (x * x * x))
        return Dual2(num.value / x, prod.grad, prod.hess)
    if isinstance(node, Pow):
        return _pow_dual(_d2(node.base, point, slot, m), node.exponent, node)
    if isinstance(node, Call):
        return _call_dual(node.func, _d2(node.arg, point, slot, m), node)
    raise TypeError(f"unknown node {node!r}")


def oracle_eval_dual2(e, point, active=None) -> Dual2:
    point = np.asarray(point, dtype=float)
    nv = len(e.variables)
    if point.shape != (nv,):
        raise ValueError(f"point has shape {point.shape}, expected ({nv},)")
    if active is None:
        active = range(nv)
    active = tuple(int(a) for a in active)
    if len(set(active)) != len(active):
        raise ValueError(f"duplicate active indices {active!r}")
    for a in active:
        if not 0 <= a < nv:
            raise ValueError(f"active index {a} out of range for {nv} variables")
    slot = {a: k for k, a in enumerate(active)}
    return _d2(e.root, point, slot, len(active))


def _ev(node, point) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return point[node.index]
    if isinstance(node, Neg):
        return -_ev(node.arg, point)
    if isinstance(node, Add):
        return _ev(node.left, point) + _ev(node.right, point)
    if isinstance(node, Sub):
        return _ev(node.left, point) - _ev(node.right, point)
    if isinstance(node, Mul):
        return _ev(node.left, point) * _ev(node.right, point)
    if isinstance(node, Div):
        den = _ev(node.right, point)
        if den == 0.0:
            raise EvalDomainError("division by zero", to_source(node))
        return _ev(node.left, point) / den
    if isinstance(node, Pow):
        return _pow_value(_ev(node.base, point), node.exponent, node)
    if isinstance(node, Call):
        return _call_value(node.func, _ev(node.arg, point), node)
    raise TypeError(f"unknown node {node!r}")


def oracle_evaluate(e, point) -> float:
    point = np.asarray(point, dtype=float)
    nv = len(e.variables)
    if point.shape != (nv,):
        raise ValueError(f"point has shape {point.shape}, expected ({nv},)")
    return float(_ev(e.root, point))
