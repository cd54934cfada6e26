"""Reference generator of the three bundled protocol diagrams: quantum
teleportation, entanglement swapping and superdense coding.

The library ships each protocol as its checkable text (``cobeq/corpus/``);
this module builds the same terms in Python, from the derived constructors
of `derived`, and prints them in the shipped layout.  The structural
isomorphisms appearing in the legs (associativity, units, distributivity)
are built from their defining composites rather than shortcut to
identities, so a verification exercises the full definitions and lets the
model collapse them.  To regenerate the sources after an intended change,
write `ccc_source(name)` to ``src/cobeq/corpus/<name>.ccc`` and
``corpus/<name>.ccc``.
"""

from __future__ import annotations

from functools import reduce

from cobeq import interp
from cobeq import syntax as sx
from cobeq.freegroup import DEFAULT_ALPHABET
from cobeq.syntax import (
    Alpha, AlphaInv, Comp, Dagger, Gen, GenInv, Id, Lam, LamInv, Obj, P,
    SigmaT, Star, Tens, TensorO, Term, UNIT,
)

import derived as dv

Q: Obj = P
QS: Obj = Star(P)


def beta(i: int) -> Term:
    return Gen(f"b{i}")


def beta_inv(i: int) -> Term:
    return GenInv(f"b{i}")


def _chain(steps: list[Term]) -> Term:
    """Compose a list of steps given first-to-last."""
    return reduce(lambda acc, step: Comp(step, acc), steps)


def teleportation_legs() -> tuple[Term, Term]:
    """Left and right legs of the teleportation diagram.

    The right leg imports the unknown state, produces an entangled pair,
    relocates it, observes in the Bell base, communicates classically and
    applies the unitary corrections.  The left leg is the fourfold diagonal.
    """
    import_state = Comp(SigmaT(UNIT, Q), LamInv(Q))
    produce_pair = Tens(Id(Q), dv.name_term(Id(Q)))
    delocate = Alpha(Q, QS, Q)
    observe = Tens(dv.tuple_term([dv.coname_term(beta(i)) for i in range(1, 5)]),
                   Id(Q))
    communicate = Comp(dv.oplus_term([Lam(Q)] * 4),
                       dv.upsilon_n([UNIT] * 4, Q))
    correct = dv.oplus_term([beta_inv(i) for i in range(1, 5)])
    right = _chain([import_state, produce_pair, delocate, observe,
                    communicate, correct])
    left = dv.tuple_term([Id(Q)] * 4)
    return left, right


def _lower_star(i: int) -> Term:
    return dv.lower_star_term(beta(i))


def _pair_projector(i: int) -> Term:
    """P_i : Q (x) Q* -> Q (x) Q*, the coname of beta_i followed by the name
    of its lower star, coerced along the double-dual isomorphism."""
    named = dv.name_term(_lower_star(i))
    coerce = Tens(dv.w_term(Q), Id(QS))
    return Comp(coerce, Comp(named, dv.coname_term(beta(i))))


def entanglement_swap_legs() -> tuple[Term, Term]:
    """Left and right legs of the entanglement swapping diagram."""
    qq = TensorO(Q, QS)

    produce_pairs = Tens(dv.name_term(Id(Q)), dv.name_term(Id(Q)))
    delocate = Comp(Tens(Id(QS), Alpha(Q, QS, Q)),
                    AlphaInv(QS, Q, TensorO(QS, Q)))
    measure = Tens(Id(QS),
                   Tens(dv.tuple_term([_pair_projector(i) for i in range(1, 5)]),
                        Id(Q)))

    branch = _chain([
        Alpha(QS, qq, Q),
        Tens(SigmaT(QS, qq), Id(Q)),
        AlphaInv(qq, QS, Q),
        Tens(SigmaT(Q, QS), Id(TensorO(QS, Q))),
    ])
    communicate = _chain([
        Tens(Id(QS), dv.upsilon_n([qq] * 4, Q)),
        dv.tau_n(QS, [TensorO(qq, Q)] * 4),
        dv.oplus_term([branch] * 4),
    ])
    correct = dv.oplus_term([
        Tens(Tens(Id(QS), beta(i)), Tens(Id(QS), beta_inv(i)))
        for i in range(1, 5)
    ])
    right = _chain([produce_pairs, delocate, measure, communicate, correct])

    entry = Tens(dv.name_term(Id(Q)), dv.name_term(Id(Q)))
    left = dv.tuple_term([entry] * 4)
    return left, right


def superdense_legs() -> tuple[Term, Term]:
    """Left and right legs of the superdense coding diagram.

    The left leg tuples the sixteen trace scalars of the pairwise products
    of Bell unitaries; entry 4*(i-1)+j carries the trace whose loop label
    is the conjugacy class of b_j * b_i^-1.
    """
    prepare = dv.name_term(Id(Q))
    select = Tens(dv.tuple_term([_lower_star(i) for i in range(1, 5)]), Id(Q))
    delocate = Comp(dv.oplus_term([SigmaT(QS, Q)] * 4),
                    dv.upsilon_n([QS] * 4, Q))

    four_bell = dv.nfold_obj(TensorO(Q, QS), 4)
    projections = dv.inj_proj(four_bell).projections
    observe = dv.tuple_term([
        Comp(dv.coname_term(beta(j)), projections[i])
        for i in range(4)
        for j in range(1, 5)
    ])
    right = _chain([prepare, select, delocate, observe])

    left = dv.tuple_term([
        dv.trace_term(Comp(beta(j), Dagger(beta(i))))
        for i in range(1, 5)
        for j in range(1, 5)
    ])
    return left, right


LEGS = {
    "teleportation": teleportation_legs,
    "swap": entanglement_swap_legs,
    "superdense": superdense_legs,
}


def ccc_source(name: str) -> str:
    """The protocol as a checkable source file, in the shipped layout."""
    left, right = LEGS[name]()
    lines = [
        f"# {name}: collapsed form against the stepwise leg",
        "gens " + " ".join(DEFAULT_ALPHABET.names) + ";",
        f"let lhs = {sx.print_term(left)};",
        f"let rhs = {sx.print_term(right)};",
        "check lhs == rhs;",
    ]
    return "\n".join(lines) + "\n"
