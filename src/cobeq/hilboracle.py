"""Independent numeric semantics in finite-dimensional complex linear algebra.

Terms evaluate to dense complex matrices: the object letter maps to a two
dimensional space, I to dimension one, 0 to dimension zero, tensor to the
Kronecker product and direct sum to block diagonals.  Units and counits are
the unnormalized cup and cap, so scalar-free diagram equalities transfer
exactly.  The default generator assignment is the Bell-base one: identity,
the two real Pauli matrices, and -i times the imaginary one.
"""

from __future__ import annotations

import numpy as np

from . import syntax as sx
from .freegroup import Alphabet, DEFAULT_ALPHABET
from .interp import default_context
from .syntax import (
    Alpha,
    AlphaInv,
    Comp,
    Dagger,
    Direct,
    Eps,
    Eta,
    Gen,
    GenInv,
    Id,
    Iota1,
    Iota2,
    Lam,
    LamInv,
    Obj,
    ObjI,
    ObjP,
    ObjZero,
    OplusO,
    Pi1,
    Pi2,
    Plus,
    SigmaT,
    Star,
    Tens,
    TensorO,
    Term,
    ZeroT,
)

Assignment = dict[str, np.ndarray]

_SIGMA_0 = np.eye(2, dtype=complex)
_SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI_ASSIGNMENT: Assignment = {
    "b1": _SIGMA_0,
    "b2": _SIGMA_1,
    "b3": _SIGMA_3,
    "b4": -1j * _SIGMA_2,
}


def dim_of(a: Obj, dims: dict | None = None) -> int:
    """Dimension of the space an object formula denotes.  ``dims`` memoises
    the dimension of every subformula."""
    if dims is None:
        dims = {}
    if a not in dims:
        for node in sx.subterms(a, dims):
            dims[node] = _dimension(node, dims)
    return dims[a]


def _dimension(a: Obj, dims: dict[Obj, int]) -> int:
    match a:
        case ObjP():
            return 2
        case ObjI():
            return 1
        case ObjZero():
            return 0
        case Star(arg):
            return dims[arg]
        case TensorO(left, right):
            return dims[left] * dims[right]
        case OplusO(left, right):
            return dims[left] + dims[right]
    raise ValueError(f"not an object formula: {a!r}")


def _swap_matrix(d1: int, d2: int) -> np.ndarray:
    s = np.zeros((d2 * d1, d1 * d2), dtype=complex)
    for v in range(d1):
        for w in range(d2):
            s[w * d1 + v, v * d2 + w] = 1.0
    return s


def _cup(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex).reshape(d * d, 1)


def _block_diag(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros((x.shape[0] + y.shape[0], x.shape[1] + y.shape[1]), dtype=complex)
    out[:x.shape[0], :x.shape[1]] = x
    out[x.shape[0]:, x.shape[1]:] = y
    return out


def _checked(assignment: Assignment | None) -> Assignment:
    """The assignment, `PAULI_ASSIGNMENT` if None, once its values are
    checked to be invertible 2x2 matrices."""
    if assignment is None:
        return PAULI_ASSIGNMENT
    for name, mat in assignment.items():
        if mat.shape != (2, 2):
            raise ValueError(f"assignment for {name!r} is not 2x2")
        if abs(np.linalg.det(mat)) < 1e-12:
            raise ValueError(f"assignment for {name!r} is not invertible")
    return assignment


def eval_numeric(t: Term, assignment: Assignment | None = None,
                 alphabet: Alphabet = DEFAULT_ALPHABET) -> np.ndarray:
    """Dense matrix of a well-typed term under a generator assignment.

    Assignment values must be invertible 2x2 matrices; for terms containing
    daggers they must be unitary, since generator daggers denote inverses.
    Each distinct subterm is evaluated once.  Types are memoised in
    `interp.default_context(alphabet)`.
    """
    return _evaluate(t, _checked(assignment), alphabet)


def _evaluate(t: Term, assignment: Assignment, alphabet: Alphabet) -> np.ndarray:
    """`eval_numeric` of an assignment already checked."""
    sx.typecheck(t, alphabet, default_context(alphabet).types)
    # Matrices are shared between the subterms that use them, so no array
    # here is ever modified in place.
    values: dict = {}
    for node in sx.subterms(t):
        values[node] = _eval_node(node, assignment, values)
    return values[t]


def _eval_node(t: Term, assignment: Assignment, values: dict) -> np.ndarray:
    """Matrix of one node, given the matrices of its immediate subterms;
    the dimensions of its object formulas are memoised in ``values`` too."""
    def dim(a: Obj) -> int:
        return dim_of(a, values)

    match t:
        case Gen(name):
            return assignment[name]
        case GenInv(name):
            return np.linalg.inv(assignment[name])
        case Id(a):
            return np.eye(dim(a), dtype=complex)
        case Alpha(a, b, c) | AlphaInv(a, b, c):
            return np.eye(dim(a) * dim(b) * dim(c), dtype=complex)
        case Lam(a) | LamInv(a):
            return np.eye(dim(a), dtype=complex)
        case SigmaT(a, b):
            return _swap_matrix(dim(a), dim(b))
        case Eta(a):
            return _cup(dim(a))
        case Eps(a):
            return _cup(dim(a)).T
        case Pi1(a, b):
            return np.eye(dim(a) + dim(b), dtype=complex)[:dim(a)]
        case Pi2(a, b):
            return np.eye(dim(a) + dim(b), dtype=complex)[dim(a):]
        case Iota1(a, b):
            return np.eye(dim(a) + dim(b), dtype=complex)[:, :dim(a)]
        case Iota2(a, b):
            return np.eye(dim(a) + dim(b), dtype=complex)[:, dim(a):]
        case ZeroT(a, b):
            return np.zeros((dim(b), dim(a)), dtype=complex)
        case Dagger(body):
            return values[body].conj().T
        case Tens(left, right):
            return np.kron(values[left], values[right])
        case Direct(left, right):
            return _block_diag(values[left], values[right])
        case Plus(left, right):
            return values[left] + values[right]
        case Comp(after, before):
            return values[after] @ values[before]
    raise ValueError(f"not a term: {t!r}")


def agree(f: Term, g: Term, tol: float = 1e-9,
          assignment: Assignment | None = None,
          alphabet: Alphabet = DEFAULT_ALPHABET) -> bool:
    """Whether f and g evaluate to numerically equal matrices."""
    assignment = _checked(assignment)
    types = default_context(alphabet).types
    fs, ft = sx.typecheck(f, alphabet, types)
    gs, gt = sx.typecheck(g, alphabet, types)
    if (fs, ft) != (gs, gt):
        raise sx.TypeCheckError("endpoint mismatch")
    diff = _evaluate(f, assignment, alphabet) - _evaluate(g, assignment, alphabet)
    if diff.size == 0:
        return True
    return float(np.max(np.abs(diff))) <= tol


def random_unitary_assignment(rng, alphabet: Alphabet = DEFAULT_ALPHABET) -> Assignment:
    """Random unitary generators, obtained by orthonormalizing random
    complex matrices."""
    out: Assignment = {}
    for name in alphabet.names:
        raw = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                         for _ in range(2)] for _ in range(2)])
        q, _ = np.linalg.qr(raw)
        out[name] = q
    return out
