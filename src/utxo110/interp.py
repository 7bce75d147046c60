"""Cost-metered evaluator for guarding scripts.

Each script is generated into Python source once per ``ScriptRef`` and
compiled with ``exec``, the way ``lang.record`` builds record methods;
the resulting function then runs against an ``EvalContext``.  Every node
visit charges its weight against the caller-supplied limit, so
evaluation time is bounded a priori:

* plain nodes cost 1, charged before their children run,
* ``pow .. mod`` costs 1 plus the bit length of the exponent, charged
  after its operands and before the power is taken,
* ``++`` also costs 1 per entry of the list it builds past the first
  ``FREE_ENTRIES``, charged after its operands and before the list is
  built, so that no list outgrows the limit,
* ``map`` runs its body once per index, each run metered normally.  A
  body made only of bool literals, ``!``, ``&``, ``|``, ``^``, ``=``,
  ``let`` and reads of a value bound before the map at ``i + c`` or
  ``(i + c) mod m`` has a word form: it reads each target's int, each
  read is a shift of it (or of its first m bits repeated) and each
  operator one bitwise operation on all n bits at once.  Such a
  body charges the same c on every run, and the word form charges
  c × n up front.  It runs only when that fits in what is left of the
  limit and a test before it shows that no operation can fail (every
  target Bits, every m a positive int, every read in range); otherwise
  the metered loop runs.  Nothing could then fail, so the value, cost
  or error is the one of the run-by-run walk.

A ``pow`` whose modulus is an int literal of at most 64 bits runs as
builtin ``pow``.  Any other ``pow`` calls ``_pow_mod``, which takes the
power in OpenSSL's bignum kernel (``bignum``) once the modulus is wider
than one 64-bit limb and the kernel can be reached, and in builtin
``pow`` otherwise.  Both give the same value, so where the power is
taken changes its wall time only: no charge, receipt or verdict.

Boolean operators are strict (both operands always evaluated); only
``if`` is lazy.  Costs, receipts and errors are those of a node-by-node
walk of the tree: the generated code adds up charges that no failing
operation separates, which changes no outcome.  Evaluation is
deterministic and side-effect free, so compiled scripts are safe to
share across threads.
"""

from __future__ import annotations

import functools
import re

from .lang import (
    Arith, Bits, BoolOp, Cmp, CopyEq, CtxRef, Expr, FieldAccess, If, Index,
    Let, ListConcat, Lit, MapIndices, Not, PowMod, ScriptOf, ScriptRef,
    Size, SyntheticOutput, Var, record,
)
from .model import ChainParams, Output, Payload


# Entries a list built by '++' holds for its one unit, far more than
# the shipped validators' lists hold.
FREE_ENTRIES = 64


class EvalError(Exception):
    """Base for script runtime failures; any of these invalidates the tx."""


class CostLimitExceeded(EvalError):
    pass


class WidthExceeded(EvalError):
    pass


class EvalTypeError(EvalError):
    pass


class IndexOutOfBounds(EvalError):
    pass


class MissingField(EvalError):
    pass


class UnboundVariable(EvalError):
    pass


class ArithmeticDomainError(EvalError):
    """Nonpositive modulus or negative exponent."""


@record
class CostReceipt:
    total_cost: int
    limit: int


class EvalContext:
    """Read-only view of the spending transaction, as one input sees it."""

    __slots__ = ("self_input", "inputs", "outputs")

    def __init__(self, self_input: Output, inputs, outputs):
        inputs = tuple(inputs)
        if self_input not in inputs:  # identity first, then equality
            raise ValueError("self_input must be one of the inputs")
        object.__setattr__(self, "self_input", self_input)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", tuple(outputs))

    def __setattr__(self, name, value):
        raise AttributeError("EvalContext is immutable")


def _as_bool(v, what):
    if isinstance(v, bool):
        return v
    raise EvalTypeError(f"{what} must be a bool, got {_kind(v)}")


def _as_int(v, what):
    if isinstance(v, bool) or not isinstance(v, int):
        raise EvalTypeError(f"{what} must be an int, got {_kind(v)}")
    return v


def _int_text(n: int) -> str:
    """An int for an error message: its digits up to 64 bits, its bit
    length above that (``str`` refuses ints past 4,300 digits)."""
    if n.bit_length() <= 64:
        return str(n)
    return f"{'-' if n < 0 else ''}<{n.bit_length()}-bit int>"


def _kind(v):
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, int):
        return "int"
    if isinstance(v, Bits):
        return "bits"
    if isinstance(v, ScriptRef):
        return "scriptref"
    if isinstance(v, Output):
        return "output"
    if isinstance(v, tuple):
        return "output list"
    return type(v).__name__


def _values_equal(a, b):
    ka, kb = _kind(a), _kind(b)
    if ka != kb:
        raise EvalTypeError(f"cannot compare {ka} with {kb}")
    if ka == "output list":
        if len(a) != len(b):
            return False
        return all(_values_equal(x, y) for x, y in zip(a, b))
    return a == b


def _payload_value(v, what):
    if isinstance(v, (Output, tuple)):
        raise EvalTypeError(f"{what} must be a payload value, got {_kind(v)}")
    return v


def _copy_eq(a, b, overrides):
    """copyEq once each override names a field of ``b``: the same script,
    the same field names in the same order, and each field of ``a`` of
    the same kind and value as ``b``'s or as its override."""
    mine, theirs = a.payload._map, {**b.payload._map, **overrides}
    return (a.script_ref is b.script_ref and list(mine) == list(theirs)
            and all(type(x) is type(y) and x == y
                    for x, y in zip(mine.values(), theirs.values())))


# ---------------------------------------------------------------------------
# Failure paths of the generated code.  The fast path of each node is
# inlined; these run only when it does not apply, and raise what the
# node raises.

def _over(limit):
    raise CostLimitExceeded(f"cost limit {limit} exceeded")


def _unbound(name):
    raise UnboundVariable(f"unbound variable {name!r}")


def _field(target, name):
    if not isinstance(target, Output):
        raise EvalTypeError(
            f"field access needs an output, got {_kind(target)}")
    try:
        return target.payload.get(name)
    except KeyError:
        raise MissingField(f"payload has no field {name!r}") from None


def _script_of(target):
    if not isinstance(target, Output):
        raise EvalTypeError(f".script needs an output, got {_kind(target)}")
    return target.script_ref


def _index(target, i):
    if isinstance(target, Bits):
        if not 0 <= i < len(target):
            raise IndexOutOfBounds(f"bit index {_int_text(i)} out of range")
        return bool(target[i])
    if isinstance(target, tuple):
        if not 0 <= i < len(target):
            raise IndexOutOfBounds(f"list index {_int_text(i)} out of range")
        return target[i]
    raise EvalTypeError(f"cannot index into {_kind(target)}")


def _size(target):
    if isinstance(target, (Bits, tuple)):
        return len(target)
    raise EvalTypeError(f"{_kind(target)} has no size")


def _modulus():
    raise ArithmeticDomainError("modulus must be positive")


def _pow_domain(exponent):
    if exponent < 0:
        raise ArithmeticDomainError("exponent must be nonnegative")
    _modulus()


def _pow_mod(b, x, m):
    """``pow(b, x, m)`` for ``x >= 0`` and ``m > 0``: in OpenSSL's bignum
    kernel when the modulus is wider than one 64-bit limb, with builtin
    ``pow`` where the kernel cannot be reached or fails."""
    if m.bit_length() > 64:
        from .bignum import mod_exp
        result = mod_exp(b % m, x, m)
        if result is not None:
            return result
    return pow(b, x, m)


def _compare(a, b):
    return _as_int(a, "comparison operand") < _as_int(b, "comparison operand")


def _cycle(word, size, period, n):
    """``(t, width)``: a ``width``-bit word, first bit most significant,
    whose bit j is bit ``j mod period`` of the ``size``-bit ``word``, for
    j below ``period + n - 1`` at least.  When the period is longer than
    the word, it is the word itself: a read of it that is in range does
    not wrap."""
    if period > size:
        return word, size
    t, width = word >> size - period, period
    while width < period + n:
        t, width = t << width | t, 2 * width
    return t, width


def _map_length(n, max_width):
    if n < 0:
        raise EvalTypeError("map length must be nonnegative")
    raise WidthExceeded(
        f"map length {_int_text(n)} exceeds width cap {max_width}")


def _copy_eq_operands(a, b):
    if not isinstance(a, Output) or not isinstance(b, Output):
        raise EvalTypeError("copyEq compares outputs")


def _missing_override(name):
    raise MissingField(f"override of missing field {name!r}")


def _outputs(v):
    if isinstance(v, Output):
        return (v,)
    if isinstance(v, tuple):
        return v
    raise EvalTypeError(f"'++' needs outputs, got {_kind(v)}")


def _output(ref, names, values):
    if not isinstance(ref, ScriptRef):
        raise EvalTypeError(f"output script must be a script, got {_kind(ref)}")
    try:
        return Output(ref, Payload(zip(names, values)))
    except ValueError as exc:
        raise EvalTypeError(str(exc)) from None


# The names generated code may use besides its own and the builtins.
_RUNTIME = {f.__name__: f for f in (
    _over, _unbound, _field, _script_of, _index, _size, _modulus,
    _pow_domain, _pow_mod, _compare, _cycle, _map_length, _copy_eq_operands,
    _missing_override, _outputs, _output, _as_bool, _as_int, _payload_value,
    _values_equal, _copy_eq)}
_RUNTIME.update(Bits=Bits, Output=Output)

# The context slots, bound once per call to a name the generator owns.
_CTX = {"self": ("S", "self_input", "output"),
        "in": ("I", "inputs", "output list"),
        "out": ("O", "outputs", "output list")}
_SCALARS = ("bool", "int", "bits", "scriptref")
_WORD = re.compile(r"[A-Za-z_]\w*")


class _Function:
    """Lines of one generated function, with the cost not yet charged."""

    def __init__(self, name, params):
        self.name = name
        self.params = list(params)
        self.defined = set(params)
        self.outer = set()  # the locals of enclosing functions
        self.free = []  # those the lines read, passed in as params
        self.lines = []
        self.indent = 1
        self.pending = 0
        self.charged = 0  # the sum of the constant charges flushed
        # in a map body: for each loop-invariant Bits target, the names of
        # its size, its int and its digit string, read once per call
        self.hoisted = None
        # in a map body that may still have a word form (see map_indices):
        # for each value the body computes, a word when it is a bool, the
        # offset c when it is i + c, or (c, m) when it is (i + c) mod m;
        # then the lines computing the words, and the tests under which
        # no operation of the body can fail
        self.words = None
        self.word_lines = []
        self.guards = []
        self.cycles = {}  # (int, m) -> the names of its first m bits repeated
        # What the code so far has established on every path to the next
        # line: the temporary holding each operation's result (None for a
        # check, which has none), and the kind each checked value passed
        # as.  Both are pure facts, so reusing them skips a repeat that
        # could not fail.
        self.values = {}
        self.kinds = {}

    def line(self, text):
        self.lines.append(" " * self.indent + text)

    def flush(self):
        """Charge the pending cost.  Charges with no failing operation
        between them add up to one check that fails exactly when one of
        theirs would, with the same error."""
        if self.pending:
            self.line(f"if (s := s + {self.pending}) > L: _over(L)")
            self.charged += self.pending
            self.pending = 0

    def op(self, text):
        """A line that may raise: the cost charged before it goes first."""
        self.flush()
        self.line(text)

    def check_once(self, text):
        """A check line, unless this path has passed the same one."""
        if text not in self.values:
            self.values[text] = None
            self.op(text)

    def source(self):
        head = f"def {self.name}({', '.join(self.params + self.free)}):"
        return "\n".join([head] + self.lines)


class _Generator:
    """Python source for one script.

    Each node becomes a few flat statements that leave its value in a
    temporary.  ``expr`` returns ``(name, kind)``, with ``kind`` the
    value's ``_kind`` string when it is known statically and None when it
    is not; it returns None instead when the node always raises, so that
    no code follows it.  Script text never enters the source: values and
    names are namespace constants, and every identifier comes from
    ``fresh``.
    """

    def __init__(self):
        self.namespace = dict(_RUNTIME)
        self.constants = {}
        self.count = 0
        self.functions = []
        self.fn = None
        self.ctx_used = set()
        self.unpriced_pow = False

    def fresh(self, prefix):
        self.count += 1
        return f"{prefix}{self.count}"

    def constant(self, value):
        key = (type(value), value)
        name = self.constants.get(key)
        if name is None:
            name = self.constants[key] = self.fresh("k")
            self.namespace[name] = value
        return name

    def temp(self):
        name = self.fresh("t")
        self.fn.defined.add(name)
        return name

    def assign(self, text, may_raise=True):
        fn = self.fn
        t = fn.values.get(text)
        if t is None:
            t = fn.values[text] = self.temp()
            (fn.op if may_raise else fn.line)(f"{t} = {text}")
        return t

    def check(self, value, kind, expected, what):
        """Emit ``_as_int``/``_as_bool``'s check; False if it always fails."""
        fn = self.fn
        if kind == expected or fn.kinds.get(value) == expected:
            return True
        if kind is not None:
            fn.op(f"_as_{expected}({value}, {self.constant(what)})")
            return False
        fn.op(f"if type({value}) is not {expected}: "
              f"_as_{expected}({value}, {self.constant(what)})")
        fn.kinds[value] = expected
        return True

    def operands(self, scope, *items):
        """Generate ``(expr, kind, what)`` items in order, each checked to be
        of that kind (unless None) before the next is generated."""
        out = []
        for x, expected, what in items:
            value = self.expr(x, scope)
            if value is None or expected and not self.check(*value, expected, what):
                return None
            out.append(value)
        return out

    def payload_value(self, value, kind, what):
        if kind not in _SCALARS:
            self.fn.op(f"_payload_value({value}, {self.constant(what)})")

    def generate(self, expr):
        top = self.fn = _Function("f", ["ctx", "L", "W"])
        top.defined.update(name for name, _, _ in _CTX.values())
        result = self.expr(expr, {})
        if result is not None:
            top.flush()
            top.line(f"return {result[0]}, s")
        used = [f" {name} = ctx.{slot}" for name, slot, _ in _CTX.values()
                if name in self.ctx_used]
        top.lines[:0] = used + [" s = 0"]
        self.functions.append(top)
        return "\n".join(fn.source() for fn in self.functions)

    def expr(self, e, scope):
        result = self.node(e, scope)
        if result is not None and result[1] is None:
            return result[0], self.fn.kinds.get(result[0])
        return result

    def node(self, e, scope):
        method = self.NODES.get(type(e))
        if method is None:
            raise TypeError(f"not a script expression: {type(e).__name__}")
        fn = self.fn
        if method is not _Generator.pow_mod:
            fn.pending += 1  # every other node is charged before its children
        emitted = len(fn.lines)
        result = method(self, e, scope)
        # a map body has a word form only if each of its operations has one
        if fn.words is not None and len(fn.lines) > emitted and (
                result is None or self.word_of(result[0]) is None):
            fn.words = None
        return result

    def word(self, name, text, *operands):
        """Record the word of a bool the body computes: ``text`` with the
        operands' words in place of ``{}``, if each of them has one."""
        fn = self.fn
        if fn.words is None or name in fn.words:
            return
        words = [self.word_of(a) for a in operands]
        if all(type(w) is str for w in words):
            w = fn.words[name] = self.fresh("w")
            fn.word_lines.append(f"  {w} = {text.format(*words)}")

    def word_of(self, name):
        """A value's entry in the map body's words; a bool literal's word."""
        value = self.namespace.get(name)
        return ("0", "M")[value] if type(value) is bool else self.fn.words.get(name)

    def lit(self, e, scope):
        return self.constant(e.value), _kind(e.value)

    def var(self, e, scope):
        if e.name in scope:
            name, kind = scope[e.name]
            return name, kind
        self.fn.op(f"_unbound({self.constant(e.name)})")
        return None

    def ctx_ref(self, e, scope):
        name, _, kind = _CTX[e.kind]
        self.ctx_used.add(name)
        return name, kind

    def let(self, e, scope):
        value = self.expr(e.value, scope)
        return value and self.expr(e.body, {**scope, e.name: value})

    def field_access(self, e, scope):
        operand = self.expr(e.obj, scope)
        if operand is None:
            return None
        a, kind = operand
        k = self.constant(e.field)
        guard = "" if kind == "output" else f"type({a}) is Output and "
        # the payload's own dict, read without a method call
        return self.assign(f"{a}.payload._map[{k}] if {guard}{k} in "
                           f"{a}.payload._map else _field({a}, {k})"), None

    def script_of(self, e, scope):
        operand = self.expr(e.obj, scope)
        if operand is None:
            return None
        a, kind = operand
        if kind == "output":
            return self.assign(f"{a}.script_ref", False), "scriptref"
        return self.assign(f"{a}.script_ref if type({a}) is Output "
                           f"else _script_of({a})"), "scriptref"

    def size(self, e, scope):
        operand = self.expr(e.obj, scope)
        if operand is None:
            return None
        a, kind = operand
        if kind in ("bits", "output list"):
            return self.assign(f"len({a})", False), "int"
        return self.assign(f"len({a}) if type({a}) is Bits or type({a}) "
                           f"is tuple else _size({a})"), "int"

    def not_(self, e, scope):
        operand = self.operands(scope, (e.operand, "bool", "'!' operand"))
        if operand is None:
            return None
        result = self.assign(f"not {operand[0][0]}", False)
        self.word(result, "{} ^ M", operand[0][0])
        return result, "bool"

    def index(self, e, scope):
        operands = self.operands(scope, (e.obj, None, None),
                                 (e.index, "int", "index"))
        if operands is None:
            return None
        (a, kind), (i, _) = operands
        if kind == "output list":
            return self.assign(f"{a}[{i}] if 0 <= {i} < len({a}) "
                               f"else _index({a}, {i})"), "output"
        fn = self.fn
        if fn.hoisted is None or a in fn.defined:
            guard = "" if kind == "bits" else f"type({a}) is Bits and "
            size, word = f"{a}._width", None
            bit = f"{a}._int >> {size} - 1 - {i} & 1 == 1"
        else:
            # In a map body, a target that is the same at every index is
            # read once, before the loop: its size (-1 when it is not
            # Bits), its int, and for the metered loop its digits.
            if a not in fn.hoisted:
                fn.hoisted[a] = self.fresh("h"), self.fresh("p"), self.fresh("d")
            guard, (size, word, digits) = "", fn.hoisted[a]
            bit = f"{digits}[{i}] == '1'"
        result = self.assign(f"{bit} if {guard}0 <= {i} < {size} "
                             f"else _index({a}, {i})")
        if word:
            self.word_read(result, size, word, i)
        return result, "bool" if kind == "bits" else None

    def word_read(self, result, size, word, i):
        """The word of the bits a map body reads at ``i`` from a hoisted
        target: a shift of the target's int, or of its first m bits
        repeated, with the test that every read is in range."""
        fn = self.fn
        form = None if fn.words is None else fn.words.get(i)
        if type(form) is int and form >= 0:
            start = self.constant(form)
            fn.guards.append(f"n + {start} <= {size}")
            width = size
        elif type(form) is tuple:
            c, m = form
            start = f"{self.constant(c)} % {m}"
            fn.guards.append(f"min({start} + n, {m}) <= {size}")
            if (word, m) not in fn.cycles:
                names = fn.cycles[word, m] = self.fresh("q"), self.fresh("e")
                fn.word_lines.append(f"  {', '.join(names)} = _cycle("
                                     f"{word}, {size}, {m}, n)")
            word, width = fn.cycles[word, m]
        else:
            return
        self.word(result, f"{word} >> {width} - {start} - n & M")

    def arith(self, e, scope):
        what = "arithmetic operand"
        operands = self.operands(scope, (e.left, "int", what), (e.right, "int", what))
        if operands is None:
            return None
        (a, _), (b, kind) = operands
        if e.op == "mod":
            result = self.assign(f"{a} % {b} if {b} > 0 else _modulus()")
        else:
            result = self.assign(f"{a} {'+' if e.op == '+' else '-'} {b}", False)
        if self.fn.words is not None:
            self.offset(e.op, result, a, b, kind)
        return result, "int"

    def offset(self, op, result, a, b, kind):
        """Record an int a map body computes as i + c, with c from
        literals, or as (i + c) mod m, with m the same at every i."""
        fn = self.fn
        x, y = fn.words.get(a), fn.words.get(b)
        j, k = self.namespace.get(a), self.namespace.get(b)  # literal values
        if op == "mod":
            if type(x) is int and b not in fn.defined:
                fn.words[result] = x, b
                fn.guards += [f"type({b}) is int"] * (kind != "int") + [f"{b} > 0"]
        elif type(x) is int and type(k) is int:
            fn.words[result] = x + k if op == "+" else x - k
        elif op == "+" and type(j) is int and type(y) is int:
            fn.words[result] = j + y

    def cmp(self, e, scope):
        operands = self.operands(scope, (e.left, None, None), (e.right, None, None))
        if operands is None:
            return None
        (a, ka), (b, kb) = operands
        if e.op == "<":
            if ka == kb == "int":
                return self.assign(f"{a} < {b}", False), "bool"
            return self.assign(f"{a} < {b} if type({a}) is int and type({b}) "
                               f"is int else _compare({a}, {b})"), "bool"
        if ka == kb and ka in _SCALARS + ("output",):
            result = self.assign(f"{a} == {b}", False)
        else:
            result = self.assign(f"{a} == {b} if type({a}) is type({b}) and "
                                 f"type({a}) is not tuple else _values_equal({a}, {b})")
        self.word(result, "{} ^ {} ^ M", a, b)
        return result, "bool"

    def bool_op(self, e, scope):
        what = "boolean operand"
        operands = self.operands(scope, (e.left, "bool", what), (e.right, "bool", what))
        if operands is None:
            return None
        (a, _), (b, _) = operands
        op = {"&": "and", "|": "or", "^": "!="}[e.op]
        result = self.assign(f"{a} {op} {b}", False)
        self.word(result, f"{{}} {e.op} {{}}", a, b)
        return result, "bool"

    def pow_mod(self, e, scope):
        # the one node charged after its operands, by the exponent's size
        modulus = e.modulus.value if type(e.modulus) is Lit else None
        narrow = type(modulus) is int and modulus.bit_length() <= 64
        if not narrow:
            self.unpriced_pow = True
        operands = self.operands(scope, (e.base, "int", "pow base"),
                                 (e.exponent, "int", "pow exponent"),
                                 (e.modulus, "int", "pow modulus"))
        if operands is None:
            return None
        (b, _), (x, _), (m, _) = operands
        self.fn.op(f"if {x} < 0 or {m} <= 0: _pow_domain({x})")
        self.fn.line(f"if (s := s + 1 + {x}.bit_length()) > L: _over(L)")
        power = "pow" if narrow else "_pow_mod"
        return self.assign(f"{power}({b}, {x}, {m})", False), "int"

    def if_(self, e, scope):
        fn = self.fn
        cond = self.operands(scope, (e.cond, "bool", "if condition"))
        if cond is None:
            return None
        result = self.fresh("t")
        kinds = []
        pending, values, known = fn.pending, fn.values, fn.kinds
        for keyword, branch in ((f"if {cond[0][0]}:", e.then), ("else:", e.orelse)):
            fn.line(keyword)
            fn.indent += 1
            # what one branch establishes does not hold after the 'if', and
            # the cost still pending is charged on whichever branch runs
            fn.pending, fn.values, fn.kinds = pending, dict(values), dict(known)
            value = self.expr(branch, scope)
            if value is not None:
                fn.flush()
                fn.line(f"{result} = {value[0]}")
                kinds.append(value[1])
            fn.indent -= 1
        fn.pending, fn.values, fn.kinds = 0, values, known
        if not kinds:
            return None
        fn.defined.add(result)
        return result, kinds[0] if len(set(kinds)) == 1 else None

    def map_indices(self, e, scope):
        fn = self.fn
        length = self.operands(scope, (e.length, "int", "map length"))
        if length is None:
            return None
        n = length[0][0]
        fn.op(f"if not 0 <= {n} <= W: _map_length({n}, W)")
        # The body is a function of its own, so that nested maps never
        # nest blocks in the source.  It starts from what holds at the
        # call, and reads what does not change from index to index once.
        body = self.fn = _Function(self.fresh("m"), ["n", "s", "L"])
        body.outer = fn.defined | fn.outer
        body.values, body.kinds = dict(fn.values), dict(fn.kinds)
        body.hoisted = {}
        var = self.temp()
        body.words = {var: 0}
        body.indent = 2
        value = self.operands({**scope, e.var: (var, "int")},
                              (e.body, "bool", "map body"))
        if value is not None:
            body.flush()
            body.line(f"b.append('1' if {value[0][0]} else '0')")
        loop = [f" for {var} in range(n):"] + body.lines
        body.lines = [f" {size}, {word} = ({a}._width, {a}._int) if type({a}) "
                      f"is Bits else (-1, 0)"
                      for a, (size, word, _) in body.hoisted.items()]
        row = value and body.words is not None and self.word_of(value[0][0])
        if type(row) is str:
            # Each run charges the same c, the sum of what flush wrote:
            # 'if', 'pow' and a nested 'map', whose charges vary, have no
            # word.  When all n runs fit and no operation can fail, charge
            # them up front and run each operator once on the words of all
            # n indices; otherwise the metered loop runs.
            charged = f"s + {body.charged} * n"
            guards = "".join(f" and {g}" for g in dict.fromkeys(body.guards))
            body.lines += [f" if {charged} <= L{guards}:", "  M = (1 << n) - 1",
                           *body.word_lines,
                           f"  return Bits.from_int({row}, n), {charged}"]
        body.lines += [f" {digits} = format({word}, 'b').zfill({size})"
                       for size, word, digits in body.hoisted.values()]
        body.lines += [" b = []", *loop,
                       ' return Bits.from_int(int("".join(b) or "0", 2), n), s']
        # An enclosing local is passed in only when a line reads it.  Names
        # and values from the script are namespace constants, so every
        # word of the source is a name the generator made.
        body.free = list(dict.fromkeys(
            word for line in body.lines for word in _WORD.findall(line)
            if word in body.outer and word not in body.defined))
        self.functions.append(body)
        self.fn = fn
        result = self.temp()
        fn.line(f"{result}, s = {body.name}({', '.join([n, 's', 'L'] + body.free)})")
        return result, "bits"

    def copy_eq(self, e, scope):
        operands = self.operands(scope, (e.target, None, None), (e.source, None, None))
        if operands is None:
            return None
        (a, ka), (b, kb) = operands
        if not ka == kb == "output":
            self.fn.op(f"if type({a}) is not Output or type({b}) is not Output: "
                       f"_copy_eq_operands({a}, {b})")
        overrides = {}  # the last value of a repeated name wins
        for name, x in e.overrides:
            value = self.expr(x, scope)
            if value is None:
                return None
            self.payload_value(*value, f"override {name!r}")
            k = self.constant(name)
            self.fn.check_once(
                f"if {k} not in {b}.payload._map: _missing_override({k})")
            overrides[k] = value[0]
        pairs = ", ".join(f"{k}: {v}" for k, v in overrides.items())
        return self.assign(f"_copy_eq({a}, {b}, {{{pairs}}})", False), "bool"

    def list_concat(self, e, scope):
        parts = []
        for x in (e.left, e.right):
            value = self.expr(x, scope)
            if value is None:
                return None
            v, kind = value
            if kind == "output":
                v = self.assign(f"({v},)", False)
            elif kind != "output list":
                v = self.assign(f"{v} if type({v}) is tuple else ({v},) "
                                f"if type({v}) is Output else _outputs({v})")
            parts.append(v)
        a, b = parts
        # charged before the list is built, so that none outgrows the limit
        self.fn.op(f"if len({a}) + len({b}) > {FREE_ENTRIES} and "
                   f"(s := s + len({a}) + len({b}) - {FREE_ENTRIES}) > L: _over(L)")
        return self.assign(f"{a} + {b}"), "output list"

    def synthetic_output(self, e, scope):
        values = []
        for name, x in e.fields:
            value = self.expr(x, scope)
            if value is None:
                return None
            self.payload_value(*value, f"field {name!r}")
            values.append(value[0])
        ref = self.expr(e.script, scope)
        if ref is None:
            return None
        names = self.constant(tuple(name for name, _ in e.fields))
        return self.assign(f"_output({ref[0]}, {names}, "
                           f"({''.join(v + ', ' for v in values)}))"), "output"

    NODES = {
        Lit: lit, Var: var, CtxRef: ctx_ref, Let: let,
        FieldAccess: field_access, ScriptOf: script_of, Size: size, Not: not_,
        Index: index, Arith: arith, PowMod: pow_mod, Cmp: cmp, BoolOp: bool_op,
        If: if_, MapIndices: map_indices, CopyEq: copy_eq,
        ListConcat: list_concat, SyntheticOutput: synthetic_output,
    }


@functools.cache
def compiled(script: ScriptRef):
    """The evaluator for a script: its Python source, generated and
    compiled once per interned ref.  It takes ``(ctx, limit, max_width)``
    and returns ``(value, cost)``; its ``reads_self`` attribute is False
    when the code never reads ``ctx.self_input``, so that every input
    carrying the script gets the same value, cost or error."""
    gen = _Generator()
    source = gen.generate(script.expr)
    exec(compile(source, "<script>", "exec"), gen.namespace)
    function = gen.namespace["f"]
    function.reads_self = _CTX["self"][0] in gen.ctx_used
    function.unpriced_pow = gen.unpriced_pow
    return function


def reads_self(script: ScriptRef) -> bool:
    """Whether a script's outcome can depend on which input is ``self``."""
    return compiled(script).reads_self


def unpriced_pow(script: ScriptRef) -> bool:
    """Whether a script holds a ``pow`` whose modulus is not an int
    literal of at most 64 bits.  Its charge, ``1 + bitlen(E)``, tracks its
    time only while the modulus is one limb; a wider one takes about the
    square of its limbs longer.  A ``pow`` on any branch counts."""
    return compiled(script).unpriced_pow


def evaluate(script: Expr | ScriptRef, ctx: EvalContext, limit: int,
             max_width: int = ChainParams.max_width):
    """Run a script in a context under a cost limit.

    Returns ``(value, CostReceipt)``; raises an ``EvalError`` subclass on
    any runtime failure, including running out of budget.  The script's
    generated function is compiled on its first evaluation in a process
    and reused after that.  An expression is serialized to find its
    ``ScriptRef``, so pass the ref where one is at hand.
    """
    if limit <= 0:
        raise ValueError("cost limit must be positive")
    value, spent = compiled(ScriptRef(script))(ctx, limit, max_width)
    return value, CostReceipt(total_cost=spent, limit=limit)
