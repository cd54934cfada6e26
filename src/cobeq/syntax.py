"""Term language for arrows of the free dagger compact closed category
with biproducts, generated by a declared set of invertible generators.

Objects are formulas over a single letter p, the constants I and 0, dual,
tensor and direct sum.  Terms are built from the structural primitives with
dagger, tensor, direct sum, plus and composition, each carrying enough
object annotations to make typechecking syntax-directed.

Concrete grammar (ASCII): objects use postfix ``^*``, infix ``(x)`` and
``(+)``; terms use primitive names with bracketed object arguments, postfix
``!`` for dagger, infix ``(x)``, ``(+)``, ``+`` and ``.`` where ``f . g``
is f after g.  Binary operators associate to the left; precedence from
tightest to loosest is ``!``/``^*``, ``(x)``, ``(+)``, ``+``, ``.``.
Files declare generators first (``gens b1 b2;``) and then ``let`` and
``check`` statements, with ``#`` line comments.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, fields
from functools import reduce

from .freegroup import Alphabet, DEFAULT_ALPHABET


# ---------------------------------------------------------------------------
# hash-consing

# Live nodes by (class, *fields).  Held weakly: a node nobody references
# leaves the table, so a long-lived process does not keep dead terms.
_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class _Node:
    """Base of the object formula and term nodes, which are hash-consed
    (Filliâtre and Conchon, "Type-safe modular hash-consing", 2006).

    Building a node returns the one live node of equal structure, so equal
    structure is one object: ``==`` is identity, and the hash is computed
    once, at construction, from the cached hashes of the children.  Caches
    keyed by nodes therefore cost O(1) per lookup whatever the term's size.
    """

    __slots__ = ("_hash", "__weakref__")

    def __new__(cls, *args):
        key = (cls, *args)
        node = _NODES.get(key)
        if node is None:
            names = cls.__match_args__
            if len(args) != len(names):
                raise TypeError(f"{cls.__name__} takes {len(names)} arguments, "
                                f"got {len(args)}")
            node = object.__new__(cls)
            for name, value in zip(names, args):
                object.__setattr__(node, name, value)
            object.__setattr__(node, "_hash", hash(key))
            _NODES[key] = node
        return node

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


# Fields are set once, by _Node.__new__; eq=False keeps identity equality.
_node = dataclass(frozen=True, eq=False, init=False, slots=True)


# ---------------------------------------------------------------------------
# object formulas


@_node
class ObjP(_Node):
    pass


@_node
class ObjI(_Node):
    pass


@_node
class ObjZero(_Node):
    pass


@_node
class Star(_Node):
    arg: "Obj"


@_node
class TensorO(_Node):
    left: "Obj"
    right: "Obj"


@_node
class OplusO(_Node):
    left: "Obj"
    right: "Obj"


Obj = ObjP | ObjI | ObjZero | Star | TensorO | OplusO

P = ObjP()
UNIT = ObjI()
NULL = ObjZero()


# ---------------------------------------------------------------------------
# terms


@_node
class Gen(_Node):
    name: str


@_node
class GenInv(_Node):
    name: str


@_node
class Id(_Node):
    obj: Obj


@_node
class Alpha(_Node):
    a: Obj
    b: Obj
    c: Obj


@_node
class AlphaInv(_Node):
    a: Obj
    b: Obj
    c: Obj


@_node
class Lam(_Node):
    a: Obj


@_node
class LamInv(_Node):
    a: Obj


@_node
class SigmaT(_Node):
    a: Obj
    b: Obj


@_node
class Eta(_Node):
    a: Obj


@_node
class Eps(_Node):
    a: Obj


@_node
class Pi1(_Node):
    a: Obj
    b: Obj


@_node
class Pi2(_Node):
    a: Obj
    b: Obj


@_node
class Iota1(_Node):
    a: Obj
    b: Obj


@_node
class Iota2(_Node):
    a: Obj
    b: Obj


@_node
class ZeroT(_Node):
    a: Obj
    b: Obj


@_node
class Dagger(_Node):
    body: "Term"


@_node
class Tens(_Node):
    left: "Term"
    right: "Term"


@_node
class Direct(_Node):
    left: "Term"
    right: "Term"


@_node
class Plus(_Node):
    left: "Term"
    right: "Term"


@_node
class Comp(_Node):
    after: "Term"
    before: "Term"


Term = (
    Gen | GenInv | Id | Alpha | AlphaInv | Lam | LamInv | SigmaT | Eta | Eps
    | Pi1 | Pi2 | Iota1 | Iota2 | ZeroT
    | Dagger | Tens | Direct | Plus | Comp
)


class TypeCheckError(Exception):
    pass


def typecheck(t: Term, alphabet: Alphabet = DEFAULT_ALPHABET,
              types: dict[Term, tuple[Obj, Obj]] | None = None) -> tuple[Obj, Obj]:
    """Source and target of a term, or TypeCheckError.

    ``types`` memoises the endpoints of every subterm, so a term with shared
    subterms is typed in time linear in its number of distinct nodes.  Pass
    the ``types`` of an `interp.EvalContext` for the same alphabet to keep
    them across calls.
    """
    if types is None:
        types = {}
    hit = types.get(t)
    if hit is not None:
        return hit
    result = _typecheck(t, alphabet, types)
    types[t] = result
    return result


def _typecheck(t: Term, alphabet: Alphabet,
               types: dict[Term, tuple[Obj, Obj]]) -> tuple[Obj, Obj]:
    match t:
        case Gen(name) | GenInv(name):
            if name not in alphabet.names:
                raise TypeCheckError(f"undeclared generator {name!r}")
            return (P, P)
        case Id(a):
            return (a, a)
        case Alpha(a, b, c):
            return (TensorO(a, TensorO(b, c)), TensorO(TensorO(a, b), c))
        case AlphaInv(a, b, c):
            return (TensorO(TensorO(a, b), c), TensorO(a, TensorO(b, c)))
        case Lam(a):
            return (TensorO(UNIT, a), a)
        case LamInv(a):
            return (a, TensorO(UNIT, a))
        case SigmaT(a, b):
            return (TensorO(a, b), TensorO(b, a))
        case Eta(a):
            return (UNIT, TensorO(Star(a), a))
        case Eps(a):
            return (TensorO(a, Star(a)), UNIT)
        case Pi1(a, b):
            return (OplusO(a, b), a)
        case Pi2(a, b):
            return (OplusO(a, b), b)
        case Iota1(a, b):
            return (a, OplusO(a, b))
        case Iota2(a, b):
            return (b, OplusO(a, b))
        case ZeroT(a, b):
            return (a, b)
        case Dagger(body):
            s, t2 = typecheck(body, alphabet, types)
            return (t2, s)
        case Tens(left, right):
            ls, lt = typecheck(left, alphabet, types)
            rs, rt = typecheck(right, alphabet, types)
            return (TensorO(ls, rs), TensorO(lt, rt))
        case Direct(left, right):
            ls, lt = typecheck(left, alphabet, types)
            rs, rt = typecheck(right, alphabet, types)
            return (OplusO(ls, rs), OplusO(lt, rt))
        case Plus(left, right):
            ls, lt = typecheck(left, alphabet, types)
            rs, rt = typecheck(right, alphabet, types)
            if (ls, lt) != (rs, rt):
                raise TypeCheckError("summands must share source and target")
            return (ls, lt)
        case Comp(after, before):
            bs, bt = typecheck(before, alphabet, types)
            as_, at = typecheck(after, alphabet, types)
            if bt != as_:
                raise TypeCheckError(
                    f"composition mismatch: {print_obj(bt)} vs {print_obj(as_)}")
            return (bs, at)
    raise TypeCheckError(f"not a term: {t!r}")


def subterms(t: Term) -> list[Term]:
    """The distinct subterms of t, t last, each after its own subterms.

    Walks the term DAG with an explicit stack, so the depth of t is not
    bounded by the Python recursion limit.
    """
    order: list[Term] = []
    seen: set[Term] = set()
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        match node:
            case Dagger(body):
                stack.append((body, False))
            case Tens(left, right) | Direct(left, right) | Plus(left, right) \
                    | Comp(left, right):
                stack.append((right, False))
                stack.append((left, False))
    return order


# ---------------------------------------------------------------------------
# dagger elimination


def eliminate_dagger(t: Term) -> Term:
    """Rewrite t to a dagger-free term denoting the same arrow.

    Daggers are pushed through the binary operations (reversing composition)
    and resolved on primitives: structural isomorphisms flip to their
    inverses, counits become swapped units and vice versa, projections and
    injections exchange, and generator daggers become generator inverses.
    """
    match t:
        case Dagger(body):
            return _elim_dagger(body)
        case Tens(f, g):
            return Tens(eliminate_dagger(f), eliminate_dagger(g))
        case Direct(f, g):
            return Direct(eliminate_dagger(f), eliminate_dagger(g))
        case Plus(f, g):
            return Plus(eliminate_dagger(f), eliminate_dagger(g))
        case Comp(f, g):
            return Comp(eliminate_dagger(f), eliminate_dagger(g))
        case _:
            return t


def _elim_dagger(t: Term) -> Term:
    """Dagger-free form of the dagger of t."""
    match t:
        case Dagger(body):
            return eliminate_dagger(body)
        case Comp(f, g):
            return Comp(_elim_dagger(g), _elim_dagger(f))
        case Tens(f, g):
            return Tens(_elim_dagger(f), _elim_dagger(g))
        case Direct(f, g):
            return Direct(_elim_dagger(f), _elim_dagger(g))
        case Plus(f, g):
            return Plus(_elim_dagger(f), _elim_dagger(g))
        case Gen(name):
            return GenInv(name)
        case GenInv(name):
            return Gen(name)
        case Id(a):
            return Id(a)
        case Alpha(a, b, c):
            return AlphaInv(a, b, c)
        case AlphaInv(a, b, c):
            return Alpha(a, b, c)
        case Lam(a):
            return LamInv(a)
        case LamInv(a):
            return Lam(a)
        case SigmaT(a, b):
            return SigmaT(b, a)
        case Eps(a):
            # eps_a dagger = sigma_{a*,a} o eta_a
            return Comp(SigmaT(Star(a), a), Eta(a))
        case Eta(a):
            # eta_a dagger = eps_a o sigma_{a*,a}
            return Comp(Eps(a), SigmaT(Star(a), a))
        case Pi1(a, b):
            return Iota1(a, b)
        case Pi2(a, b):
            return Iota2(a, b)
        case Iota1(a, b):
            return Pi1(a, b)
        case Iota2(a, b):
            return Pi2(a, b)
        case ZeroT(a, b):
            return ZeroT(b, a)
    raise TypeCheckError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# derived constructors


def name_term(f: Term, alphabet: Alphabet = DEFAULT_ALPHABET) -> Term:
    """The name of f: a -> b, typed I -> a* (x) b."""
    a, _ = typecheck(f, alphabet)
    return Comp(Tens(Id(Star(a)), f), Eta(a))


def coname_term(f: Term, alphabet: Alphabet = DEFAULT_ALPHABET) -> Term:
    """The coname of f: a -> b, typed a (x) b* -> I."""
    _, b = typecheck(f, alphabet)
    return Comp(Eps(b), Tens(f, Id(Star(b))))


def star_term(f: Term, alphabet: Alphabet = DEFAULT_ALPHABET,
              types: dict[Term, tuple[Obj, Obj]] | None = None) -> Term:
    """The transpose f*: b* -> a* as its defining composite; ``types`` is
    handed to `typecheck`."""
    a, b = typecheck(f, alphabet, types)
    return Comp(Lam(Star(a)), Comp(SigmaT(Star(a), UNIT), Comp(
        Tens(Id(Star(a)), Eps(b)), Comp(
            AlphaInv(Star(a), b, Star(b)), Comp(
                Tens(Tens(Id(Star(a)), f), Id(Star(b))), Comp(
                    Tens(Eta(a), Id(Star(b))), LamInv(Star(b))))))))


def lower_star_term(f: Term, alphabet: Alphabet = DEFAULT_ALPHABET) -> Term:
    """f_* = (f dagger)*: a* -> b*."""
    return star_term(Dagger(f), alphabet)


def tuple_term(parts: list[Term], alphabet: Alphabet = DEFAULT_ALPHABET) -> Term:
    """Biproduct tuple with target the left-nested direct sum of targets."""
    if not parts:
        raise ValueError("tuple of no terms")

    def pair(f: Term, g: Term) -> Term:
        _, bf = typecheck(f, alphabet)
        _, bg = typecheck(g, alphabet)
        return Plus(Comp(Iota1(bf, bg), f), Comp(Iota2(bf, bg), g))

    return reduce(pair, parts)


def cotuple_term(parts: list[Term], alphabet: Alphabet = DEFAULT_ALPHABET) -> Term:
    """Biproduct cotuple with source the left-nested direct sum of sources."""
    if not parts:
        raise ValueError("cotuple of no terms")

    def pair(f: Term, g: Term) -> Term:
        af, _ = typecheck(f, alphabet)
        ag, _ = typecheck(g, alphabet)
        return Plus(Comp(f, Pi1(af, ag)), Comp(g, Pi2(af, ag)))

    return reduce(pair, parts)


def oplus_term(parts: list[Term]) -> Term:
    return reduce(Direct, parts)


def oplus_obj(parts: list[Obj]) -> Obj:
    return reduce(OplusO, parts)


def nfold_obj(a: Obj, n: int) -> Obj:
    return oplus_obj([a] * n)


def tau_term(a: Obj, b: Obj, c: Obj) -> Term:
    """Distributivity a (x) (b (+) c) -> (a (x) b) (+) (a (x) c)."""
    return tuple_term([Tens(Id(a), Pi1(b, c)), Tens(Id(a), Pi2(b, c))])


def upsilon_term(a: Obj, b: Obj, c: Obj) -> Term:
    """Distributivity (a (+) b) (x) c -> (a (x) c) (+) (b (x) c)."""
    return tuple_term([Tens(Pi1(a, b), Id(c)), Tens(Pi2(a, b), Id(c))])


def upsilon_n(parts: list[Obj], c: Obj) -> Term:
    """Iterated distributivity (x1 (+) ... (+) xk) (x) c -> left-nested sum
    of the xi (x) c."""
    if len(parts) == 1:
        return Id(TensorO(parts[0], c))
    left = oplus_obj(parts[:-1])
    last = parts[-1]
    step = upsilon_term(left, last, c)
    rest = upsilon_n(parts[:-1], c)
    return Comp(Direct(rest, Id(TensorO(last, c))), step)


def tau_n(a: Obj, parts: list[Obj]) -> Term:
    """Iterated distributivity a (x) (y1 (+) ... (+) yk) -> left-nested sum
    of the a (x) yi."""
    if len(parts) == 1:
        return Id(TensorO(a, parts[0]))
    left = oplus_obj(parts[:-1])
    last = parts[-1]
    step = tau_term(a, left, last)
    rest = tau_n(a, parts[:-1])
    return Comp(Direct(rest, Id(TensorO(a, last))), step)


def trace_term(f: Term, alphabet: Alphabet = DEFAULT_ALPHABET) -> Term:
    """Categorical trace eps_a o (f (x) a*) o sigma_{a*,a} o eta_a."""
    a, b = typecheck(f, alphabet)
    if a != b:
        raise TypeCheckError("trace needs an endomorphism")
    return Comp(Eps(a), Comp(Tens(f, Id(Star(a))), Comp(SigmaT(Star(a), a), Eta(a))))


def scalar_act_term(s: Term, f: Term, alphabet: Alphabet = DEFAULT_ALPHABET) -> Term:
    """The rescaling of f by a scalar s: I -> I, as f o s_a."""
    ss, st = typecheck(s, alphabet)
    if ss != UNIT or st != UNIT:
        raise TypeCheckError("scalar must be typed I -> I")
    a, _ = typecheck(f, alphabet)
    s_a = Comp(Lam(a), Comp(Tens(s, Id(a)), LamInv(a)))
    return Comp(f, s_a)


def u_term(a: Obj, b: Obj) -> Term:
    """Derived isomorphism (a (x) b)* -> b* (x) a*."""
    c = Star(TensorO(a, b))
    bc = TensorO(b, c)
    steps = [
        Lam(TensorO(Star(b), Star(a))),
        SigmaT(TensorO(Star(b), Star(a)), UNIT),
        Tens(Id(TensorO(Star(b), Star(a))), Eps(TensorO(a, b))),
        Alpha(Star(b), Star(a), TensorO(TensorO(a, b), c)),
        Tens(Id(Star(b)), Tens(Id(Star(a)), Alpha(a, b, c))),
        Tens(Id(Star(b)), AlphaInv(Star(a), a, bc)),
        Tens(Id(Star(b)), Tens(Eta(a), Id(bc))),
        Tens(Id(Star(b)), LamInv(bc)),
        AlphaInv(Star(b), b, c),
        Tens(Eta(b), Id(c)),
        LamInv(c),
    ]
    return reduce(Comp, steps)


def v_term() -> Term:
    """Derived isomorphism I* -> I."""
    return Comp(Eps(UNIT), LamInv(Star(UNIT)))


def w_term(a: Obj) -> Term:
    """Derived isomorphism a** -> a."""
    ass = Star(Star(a))
    steps = [
        Lam(a),
        Tens(Eps(Star(a)), Id(a)),
        Tens(SigmaT(ass, Star(a)), Id(a)),
        Alpha(ass, Star(a), a),
        Tens(Id(ass), Eta(a)),
        SigmaT(UNIT, ass),
        LamInv(ass),
    ]
    return reduce(Comp, steps)


# ---------------------------------------------------------------------------
# printing


_OBJ_ATOM, _OBJ_STAR, _OBJ_TENSOR, _OBJ_OPLUS = 3, 2, 1, 0


def _print_obj(a: Obj, level: int) -> str:
    match a:
        case ObjP():
            return "p"
        case ObjI():
            return "I"
        case ObjZero():
            return "0"
        case Star(arg):
            s = _print_obj(arg, _OBJ_STAR) + "^*"
            return s if level <= _OBJ_STAR else f"({s})"
        case TensorO(left, right):
            s = f"{_print_obj(left, _OBJ_TENSOR)} (x) {_print_obj(right, _OBJ_TENSOR + 1)}"
            return s if level <= _OBJ_TENSOR else f"({s})"
        case OplusO(left, right):
            s = f"{_print_obj(left, _OBJ_OPLUS)} (+) {_print_obj(right, _OBJ_OPLUS + 1)}"
            return s if level <= _OBJ_OPLUS else f"({s})"
    raise ValueError(f"not an object: {a!r}")


def print_obj(a: Obj) -> str:
    return _print_obj(a, 0)


_T_ATOM, _T_POST, _T_TENSOR, _T_OPLUS, _T_PLUS, _T_COMP = 5, 4, 3, 2, 1, 0

# Keyword of each structural primitive.  The parser accepts every keyword;
# the printer writes the first one listed for a class.
_PRIM_BUILD = {
    "id": Id, "alpha": Alpha, "alpha_inv": AlphaInv, "alphainv": AlphaInv,
    "lam": Lam, "lam_inv": LamInv, "laminv": LamInv, "sigma": SigmaT,
    "eta": Eta, "eps": Eps, "pi1": Pi1, "pi2": Pi2, "iota1": Iota1,
    "iota2": Iota2, "zero": ZeroT,
}
_PRIM_ARITY = {word: len(fields(cls)) for word, cls in _PRIM_BUILD.items()}
_PRIM_NAMES = {cls: word for word, cls in reversed(_PRIM_BUILD.items())}


def _print_term(t: Term, level: int) -> str:
    match t:
        case Gen(name):
            return name
        case GenInv(name):
            return f"inv({name})"
        case Dagger(body):
            s = _print_term(body, _T_POST) + "!"
            return s if level <= _T_POST else f"({s})"
        case Tens(left, right):
            s = f"{_print_term(left, _T_TENSOR)} (x) {_print_term(right, _T_TENSOR + 1)}"
            return s if level <= _T_TENSOR else f"({s})"
        case Direct(left, right):
            s = f"{_print_term(left, _T_OPLUS)} (+) {_print_term(right, _T_OPLUS + 1)}"
            return s if level <= _T_OPLUS else f"({s})"
        case Plus(left, right):
            s = f"{_print_term(left, _T_PLUS)} + {_print_term(right, _T_PLUS + 1)}"
            return s if level <= _T_PLUS else f"({s})"
        case Comp(after, before):
            s = f"{_print_term(after, _T_COMP)} . {_print_term(before, _T_COMP + 1)}"
            return s if level <= _T_COMP else f"({s})"
        case _:
            keyword = _PRIM_NAMES[type(t)]
            args = [getattr(t, f) for f in t.__dataclass_fields__]
            inner = ", ".join(print_obj(x) for x in args)
            return f"{keyword}[{inner}]"


def print_term(t: Term) -> str:
    return _print_term(t, 0)


# ---------------------------------------------------------------------------
# lexer and parser


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


_KEYWORDS = {"gens", "let", "check", "inv"}


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1

    def advance(n: int) -> None:
        nonlocal i, line, col
        for _ in range(n):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < len(text):
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                advance(1)
            continue
        start_line, start_col = line, col
        if ch == "(":
            if text[i:i + 3] == "(x)":
                tokens.append(_Token("TENSOR", "(x)", start_line, start_col))
                advance(3)
                continue
            if text[i:i + 3] == "(+)":
                tokens.append(_Token("OPLUS", "(+)", start_line, start_col))
                advance(3)
                continue
            tokens.append(_Token("LPAREN", "(", start_line, start_col))
            advance(1)
            continue
        if ch == "^":
            if text[i:i + 2] == "^*":
                tokens.append(_Token("STAR", "^*", start_line, start_col))
                advance(2)
                continue
            raise ParseError("expected '^*'", start_line, start_col)
        if ch == "=":
            if text[i:i + 2] == "==":
                tokens.append(_Token("EQEQ", "==", start_line, start_col))
                advance(2)
                continue
            tokens.append(_Token("EQ", "=", start_line, start_col))
            advance(1)
            continue
        simple = {")": "RPAREN", "[": "LBRACK", "]": "RBRACK", ",": "COMMA",
                  ";": "SEMI", ".": "DOT", "+": "PLUS", "!": "BANG"}
        if ch in simple:
            tokens.append(_Token(simple[ch], ch, start_line, start_col))
            advance(1)
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = word.upper() if word in _KEYWORDS else "IDENT"
            tokens.append(_Token(kind, word, start_line, start_col))
            advance(j - i)
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("NUMBER", text[i:j], start_line, start_col))
            advance(j - i)
            continue
        raise ParseError(f"unexpected character {ch!r}", start_line, start_col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


@dataclass
class CheckStmt:
    left: Term
    right: Term
    line: int


@dataclass
class Document:
    alphabet: Alphabet
    lets: dict[str, Term]
    checks: list[CheckStmt]


class _Parser:
    def __init__(self, tokens: list[_Token], alphabet: Alphabet | None = None,
                 lets: dict[str, Term] | None = None):
        self.tokens = tokens
        self.pos = 0
        self.alphabet = alphabet
        self.lets = dict(lets or {})

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.text!r}", tok.line, tok.col)
        return self.next()

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    # objects

    def obj(self) -> Obj:
        left = self.obj_tensor()
        while self.peek().kind == "OPLUS":
            self.next()
            left = OplusO(left, self.obj_tensor())
        return left

    def obj_tensor(self) -> Obj:
        left = self.obj_post()
        while self.peek().kind == "TENSOR":
            self.next()
            left = TensorO(left, self.obj_post())
        return left

    def obj_post(self) -> Obj:
        atom = self.obj_atom()
        while self.peek().kind == "STAR":
            self.next()
            atom = Star(atom)
        return atom

    def obj_atom(self) -> Obj:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text == "p":
            self.next()
            return P
        if tok.kind == "IDENT" and tok.text == "I":
            self.next()
            return UNIT
        if tok.kind == "NUMBER" and tok.text == "0":
            self.next()
            return NULL
        if tok.kind == "LPAREN":
            self.next()
            inner = self.obj()
            self.expect("RPAREN")
            return inner
        self.fail(f"expected an object, found {tok.text!r}")

    # terms

    def term(self) -> Term:
        left = self.term_plus()
        while self.peek().kind == "DOT":
            self.next()
            left = Comp(left, self.term_plus())
        return left

    def term_plus(self) -> Term:
        left = self.term_oplus()
        while self.peek().kind == "PLUS":
            self.next()
            left = Plus(left, self.term_oplus())
        return left

    def term_oplus(self) -> Term:
        left = self.term_tensor()
        while self.peek().kind == "OPLUS":
            self.next()
            left = Direct(left, self.term_tensor())
        return left

    def term_tensor(self) -> Term:
        left = self.term_post()
        while self.peek().kind == "TENSOR":
            self.next()
            left = Tens(left, self.term_post())
        return left

    def term_post(self) -> Term:
        atom = self.term_atom()
        while self.peek().kind == "BANG":
            self.next()
            atom = Dagger(atom)
        return atom

    def term_atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "LPAREN":
            self.next()
            inner = self.term()
            self.expect("RPAREN")
            return inner
        if tok.kind == "INV":
            self.next()
            self.expect("LPAREN")
            name = self.expect("IDENT")
            self.expect("RPAREN")
            self._check_generator(name)
            return GenInv(name.text)
        if tok.kind == "IDENT":
            word = tok.text
            if word in _PRIM_ARITY:
                self.next()
                self.expect("LBRACK")
                args = [self.obj()]
                for _ in range(_PRIM_ARITY[word] - 1):
                    self.expect("COMMA")
                    args.append(self.obj())
                self.expect("RBRACK")
                return _PRIM_BUILD[word](*args)
            self.next()
            if word in self.lets:
                return self.lets[word]
            if self.alphabet is not None and word in self.alphabet.names:
                return Gen(word)
            raise ParseError(f"unknown name {word!r}", tok.line, tok.col)
        self.fail(f"expected a term, found {tok.text!r}")

    def _check_generator(self, tok: _Token) -> None:
        if self.alphabet is None or tok.text not in self.alphabet.names:
            raise ParseError(f"undeclared generator {tok.text!r}", tok.line, tok.col)

    # statements

    def document(self) -> Document:
        self.expect("GENS")
        names = []
        while self.peek().kind == "IDENT":
            names.append(self.next().text)
        self.expect("SEMI")
        self.alphabet = Alphabet(tuple(names))
        checks: list[CheckStmt] = []
        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.kind == "LET":
                self.next()
                name_tok = self.expect("IDENT")
                if (name_tok.text in _PRIM_ARITY or name_tok.text in self.lets
                        or name_tok.text in self.alphabet.names):
                    raise ParseError(f"name {name_tok.text!r} already in use",
                                     name_tok.line, name_tok.col)
                self.expect("EQ")
                body = self.term()
                self.expect("SEMI")
                self.lets[name_tok.text] = body
            elif tok.kind == "CHECK":
                self.next()
                left = self.term()
                self.expect("EQEQ")
                right = self.term()
                self.expect("SEMI")
                checks.append(CheckStmt(left, right, tok.line))
            else:
                self.fail("expected 'let' or 'check'")
        return Document(self.alphabet, self.lets, checks)


def parse_document(text: str) -> Document:
    return _Parser(_lex(text)).document()


def parse_term(text: str, alphabet: Alphabet = DEFAULT_ALPHABET,
               lets: dict[str, Term] | None = None) -> Term:
    parser = _Parser(_lex(text), alphabet, lets)
    term = parser.term()
    parser.expect("EOF")
    return term


def parse_obj(text: str) -> Obj:
    parser = _Parser(_lex(text))
    obj = parser.obj()
    parser.expect("EOF")
    return obj
