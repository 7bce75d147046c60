"""The closure-tree evaluator, kept as a reference for differential tests.

This is the evaluator ``utxo110.interp`` used before it generated Python
source per script: each node compiles to a closure that charges its cost
through ``_Runtime.charge`` and calls its children's closures.  Tests
run it next to ``interp.evaluate`` and require the same value and
``CostReceipt``, or the same exception type and message.
"""

from __future__ import annotations

import functools

from utxo110.interp import (
    ArithmeticDomainError, CostLimitExceeded, CostReceipt, EvalContext,
    EvalTypeError, IndexOutOfBounds, MissingField, UnboundVariable,
    WidthExceeded, _as_bool, _as_int, _int_text, _kind, _payload_value,
    _values_equal,
)
from utxo110.lang import (
    Arith, Bits, BoolOp, Cmp, CopyEq, CtxRef, Expr, FieldAccess, If, Index,
    Let, ListConcat, Lit, MapIndices, Not, PowMod, ScriptOf, ScriptRef,
    Size, SyntheticOutput, Var,
)
from utxo110.model import ChainParams, Output, Payload


class _Runtime:
    __slots__ = ("ctx", "env", "spent", "limit", "max_width")

    def __init__(self, ctx, limit, max_width):
        self.ctx = ctx
        self.env = {}
        self.spent = 0
        self.limit = limit
        self.max_width = max_width

    def charge(self, amount):
        self.spent += amount
        if self.spent > self.limit:
            raise CostLimitExceeded(
                f"cost limit {self.limit} exceeded")


def _compile(e: Expr):
    if isinstance(e, Lit):
        value = e.value

        def run(rt):
            rt.charge(1)
            return value
        return run

    if isinstance(e, Var):
        name = e.name

        def run(rt):
            rt.charge(1)
            try:
                return rt.env[name]
            except KeyError:
                raise UnboundVariable(f"unbound variable {name!r}") from None
        return run

    if isinstance(e, CtxRef):
        kind = e.kind

        def run(rt):
            rt.charge(1)
            if kind == "self":
                return rt.ctx.self_input
            if kind == "in":
                return rt.ctx.inputs
            return rt.ctx.outputs
        return run

    if isinstance(e, FieldAccess):
        obj = _compile(e.obj)
        name = e.field

        def run(rt):
            rt.charge(1)
            target = obj(rt)
            if not isinstance(target, Output):
                raise EvalTypeError(
                    f"field access needs an output, got {_kind(target)}")
            try:
                return target.payload.get(name)
            except KeyError:
                raise MissingField(f"payload has no field {name!r}") from None
        return run

    if isinstance(e, ScriptOf):
        obj = _compile(e.obj)

        def run(rt):
            rt.charge(1)
            target = obj(rt)
            if not isinstance(target, Output):
                raise EvalTypeError(
                    f".script needs an output, got {_kind(target)}")
            return target.script_ref
        return run

    if isinstance(e, Index):
        obj = _compile(e.obj)
        index = _compile(e.index)

        def run(rt):
            rt.charge(1)
            target = obj(rt)
            i = _as_int(index(rt), "index")
            if isinstance(target, Bits):
                if not 0 <= i < len(target):
                    raise IndexOutOfBounds(f"bit index {_int_text(i)} out of range")
                return bool(target[i])
            if isinstance(target, tuple):
                if not 0 <= i < len(target):
                    raise IndexOutOfBounds(
                        f"list index {_int_text(i)} out of range")
                return target[i]
            raise EvalTypeError(f"cannot index into {_kind(target)}")
        return run

    if isinstance(e, Size):
        obj = _compile(e.obj)

        def run(rt):
            rt.charge(1)
            target = obj(rt)
            if isinstance(target, (Bits, tuple)):
                return len(target)
            raise EvalTypeError(f"{_kind(target)} has no size")
        return run

    if isinstance(e, Arith):
        left = _compile(e.left)
        right = _compile(e.right)
        op = e.op

        def run(rt):
            rt.charge(1)
            a = _as_int(left(rt), "arithmetic operand")
            b = _as_int(right(rt), "arithmetic operand")
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if b <= 0:
                raise ArithmeticDomainError("modulus must be positive")
            return a % b
        return run

    if isinstance(e, PowMod):
        base = _compile(e.base)
        exponent = _compile(e.exponent)
        modulus = _compile(e.modulus)

        def run(rt):
            b = _as_int(base(rt), "pow base")
            x = _as_int(exponent(rt), "pow exponent")
            m = _as_int(modulus(rt), "pow modulus")
            if x < 0:
                raise ArithmeticDomainError("exponent must be nonnegative")
            if m <= 0:
                raise ArithmeticDomainError("modulus must be positive")
            rt.charge(1 + x.bit_length())
            return pow(b, x, m)
        return run

    if isinstance(e, Cmp):
        left = _compile(e.left)
        right = _compile(e.right)
        op = e.op

        def run(rt):
            rt.charge(1)
            a = left(rt)
            b = right(rt)
            if op == "=":
                return _values_equal(a, b)
            return _as_int(a, "comparison operand") < _as_int(b, "comparison operand")
        return run

    if isinstance(e, BoolOp):
        left = _compile(e.left)
        right = _compile(e.right)
        op = e.op

        def run(rt):
            rt.charge(1)
            a = _as_bool(left(rt), "boolean operand")
            b = _as_bool(right(rt), "boolean operand")
            if op == "&":
                return a and b
            if op == "|":
                return a or b
            return a != b
        return run

    if isinstance(e, Not):
        operand = _compile(e.operand)

        def run(rt):
            rt.charge(1)
            return not _as_bool(operand(rt), "'!' operand")
        return run

    if isinstance(e, MapIndices):
        length = _compile(e.length)
        body = _compile(e.body)
        var = e.var

        def run(rt):
            rt.charge(1)
            n = _as_int(length(rt), "map length")
            if n < 0:
                raise EvalTypeError("map length must be nonnegative")
            if n > rt.max_width:
                raise WidthExceeded(
                    f"map length {_int_text(n)} exceeds width cap {rt.max_width}")
            env = rt.env
            had = var in env
            saved = env.get(var)
            bits = []
            try:
                for i in range(n):
                    env[var] = i
                    bits.append(1 if _as_bool(body(rt), "map body") else 0)
            finally:
                if had:
                    env[var] = saved
                else:
                    env.pop(var, None)
            return Bits(bits)
        return run

    if isinstance(e, Let):
        value = _compile(e.value)
        body = _compile(e.body)
        name = e.name

        def run(rt):
            rt.charge(1)
            v = value(rt)
            env = rt.env
            had = name in env
            saved = env.get(name)
            env[name] = v
            try:
                return body(rt)
            finally:
                if had:
                    env[name] = saved
                else:
                    env.pop(name, None)
        return run

    if isinstance(e, If):
        cond = _compile(e.cond)
        then = _compile(e.then)
        orelse = _compile(e.orelse)

        def run(rt):
            rt.charge(1)
            return then(rt) if _as_bool(cond(rt), "if condition") else orelse(rt)
        return run

    if isinstance(e, CopyEq):
        target = _compile(e.target)
        source = _compile(e.source)
        overrides = tuple((name, _compile(x)) for name, x in e.overrides)

        def run(rt):
            rt.charge(1)
            a = target(rt)
            b = source(rt)
            if not isinstance(a, Output) or not isinstance(b, Output):
                raise EvalTypeError("copyEq compares outputs")
            payload = b.payload
            for name, x in overrides:
                v = _payload_value(x(rt), f"override {name!r}")
                try:
                    payload = payload.replace(name, v)
                except KeyError:
                    raise MissingField(
                        f"override of missing field {name!r}") from None
            return a.payload == payload and a.script_ref is b.script_ref
        return run

    if isinstance(e, ListConcat):
        left = _compile(e.left)
        right = _compile(e.right)

        def coerce(v):
            if isinstance(v, Output):
                return (v,)
            if isinstance(v, tuple):
                return v
            raise EvalTypeError(f"'++' needs outputs, got {_kind(v)}")

        def run(rt):
            rt.charge(1)
            a = coerce(left(rt))
            b = coerce(right(rt))
            if len(a) + len(b) > 64:
                rt.charge(len(a) + len(b) - 64)
            return a + b
        return run

    if isinstance(e, SyntheticOutput):
        fields = tuple((name, _compile(x)) for name, x in e.fields)
        script = _compile(e.script)

        def run(rt):
            rt.charge(1)
            pairs = []
            for name, x in fields:
                pairs.append((name, _payload_value(x(rt), f"field {name!r}")))
            ref = script(rt)
            if not isinstance(ref, ScriptRef):
                raise EvalTypeError(
                    f"output script must be a script, got {_kind(ref)}")
            try:
                return Output(ref, Payload(pairs))
            except ValueError as exc:
                raise EvalTypeError(str(exc)) from None
        return run

    raise TypeError(f"not a script expression: {type(e).__name__}")


@functools.cache
def compiled(script: ScriptRef):
    """The closure tree for a script, built once per interned ref."""
    return _compile(script.expr)


def evaluate(script: Expr | ScriptRef, ctx: EvalContext, limit: int,
             max_width: int = ChainParams.max_width):
    """``interp.evaluate``, by the closure tree."""
    if limit <= 0:
        raise ValueError("cost limit must be positive")
    rt = _Runtime(ctx, limit, max_width)
    value = compiled(ScriptRef(script))(rt)
    return value, CostReceipt(total_cost=rt.spent, limit=limit)
