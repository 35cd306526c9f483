"""Words of a free product of two factors: normal forms, cyclic reduction,
conjugacy, roots, and the Cartesian subgroup (kernel of the map onto the
direct product of the factors).

A syllable is a ``(factor, value)`` pair.  For a finite factor the value is a
nonzero element index; for an infinite cyclic factor it is a nonzero integer
exponent.  A normal form alternates factors and carries no identity
syllables; the empty word is the group identity.

The Cartesian subgroup C is free of rank (|A|-1)(|B|-1).  We use the basis

    x[a,b] = a * b * a^-1 * b^-1        (a, b nontrivial)

which arises as the Schreier element t*s*rep(ts)^-1 for the transversal word
t = a*b and s = a^-1.  Rewriting an arbitrary element of C over this basis
goes through the Schreier trace: walking the word through coset
representatives (a, b), every factor-0 syllable s contributes
x[a,b] * x[a*s,b]^-1 (terms with a trivial index drop out), and factor-1
syllables contribute nothing.  The full Schreier family generates C, each of
its members expands over x as above, and a generating set of size equal to
the rank of a free group is a basis, so evaluations over x are well defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import (
    BadSyllable,
    InfiniteFactor,
    NotCyclicallyReduced,
    NotInCartesian,
    TrivialTarget,
)
from .groupcore import FiniteGroup, element_order

Syllable = tuple[int, int]


@dataclass(frozen=True)
class FactorSpec:
    """One free factor: a finite group by table, or the infinite cyclic group."""

    kind: str  # "finite" | "infinite_cyclic"
    group: FiniteGroup | None = None

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"


@dataclass(frozen=True)
class Factors:
    """The ordered pair of free factors of one instance."""

    specs: tuple[FactorSpec, FactorSpec]

    def spec(self, f: int) -> FactorSpec:
        return self.specs[f]

    @property
    def all_finite(self) -> bool:
        return self.specs[0].is_finite and self.specs[1].is_finite

    def groups(self) -> tuple[FiniteGroup, FiniteGroup]:
        if not self.all_finite:
            raise InfiniteFactor("both factors must be finite here")
        return self.specs[0].group, self.specs[1].group  # type: ignore[return-value]

    def mul(self, f: int, x: int, y: int) -> int:
        spec = self.specs[f]
        return spec.group.mul(x, y) if spec.is_finite else x + y

    def inv(self, f: int, x: int) -> int:
        spec = self.specs[f]
        return spec.group.inv[x] if spec.is_finite else -x

    def check_value(self, f: int, v: int) -> None:
        if f not in (0, 1):
            raise BadSyllable(f"factor index {f}")
        spec = self.specs[f]
        if spec.is_finite and not (0 <= v < spec.group.n):
            raise BadSyllable(f"element {v} out of range for factor {f}")


@dataclass(frozen=True)
class NormalForm:
    """Alternating reduced word; the empty tuple is the identity."""

    syllables: tuple[Syllable, ...] = ()

    def __len__(self) -> int:
        return len(self.syllables)

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    @property
    def is_hyperbolic(self) -> bool:
        return len(self.syllables) >= 2


IDENTITY = NormalForm()


def normalize(raw: Iterable[Syllable], factors: Factors) -> NormalForm:
    """Multiply out adjacent same-factor syllables and delete identities."""
    stack: list[Syllable] = []
    for f, v in raw:
        factors.check_value(f, v)
        if v == 0:
            continue
        while stack and stack[-1][0] == f:
            merged = factors.mul(f, stack.pop()[1], v)
            if merged == 0:
                break
            v = merged
        else:
            stack.append((f, v))
            continue
        # merged to identity: the new exposed top may merge with nothing now;
        # continue with next syllable
    return NormalForm(tuple(stack))


def multiply(u: NormalForm, v: NormalForm, factors: Factors) -> NormalForm:
    return normalize(u.syllables + v.syllables, factors)


def invert(u: NormalForm, factors: Factors) -> NormalForm:
    return NormalForm(tuple((f, factors.inv(f, v)) for f, v in reversed(u.syllables)))


def power(u: NormalForm, k: int, factors: Factors) -> NormalForm:
    if k < 0:
        return power(invert(u, factors), -k, factors)
    if len(u) >= 2 and is_cyclically_reduced(u):
        # the last syllable and the first lie in different factors, so the
        # copies of u meet without cancelling
        return NormalForm(u.syllables * k)
    acc = IDENTITY
    base = u
    while k:
        if k & 1:
            acc = multiply(acc, base, factors)
        base = multiply(base, base, factors)
        k >>= 1
    return acc


def cyclically_reduce(w: NormalForm, factors: Factors) -> tuple[NormalForm, NormalForm]:
    """Split ``w = conjugator * core * conjugator^-1`` with a cyclically
    reduced core (empty, single syllable, or ends in different factors)."""
    core = w
    conj = IDENTITY
    while len(core) >= 2 and core.syllables[0][0] == core.syllables[-1][0]:
        last = core.syllables[-1]
        core = normalize((last,) + core.syllables[:-1], factors)
        conj = multiply(conj, invert(NormalForm((last,)), factors), factors)
    return core, conj


def is_cyclically_reduced(w: NormalForm) -> bool:
    return len(w) < 2 or w.syllables[0][0] != w.syllables[-1][0]


def _factor_conjugate(x: Syllable, y: Syllable, factors: Factors) -> bool:
    (fx, vx), (fy, vy) = x, y
    if fx != fy:
        return False
    spec = factors.spec(fx)
    if not spec.is_finite:
        return vx == vy
    group = spec.group
    return any(group.conjugate(g, vx) == vy for g in group.elements())


def _rotation_equal(u: tuple[Syllable, ...], v: tuple[Syllable, ...]) -> bool:
    if len(u) != len(v):
        return False
    return any(v == u[i:] + u[:i] for i in range(len(u)))


def is_conjugate(x: NormalForm, y: NormalForm, factors: Factors, allow_inverse: bool = False) -> bool:
    """Conjugacy in the free product, optionally up to inversion of ``y``.

    Hyperbolic cores are conjugate exactly when one syllable sequence is a
    cyclic rotation of the other; single-syllable cores reduce to conjugacy
    inside the factor.
    """
    cx, _ = cyclically_reduce(x, factors)
    cy, _ = cyclically_reduce(y, factors)

    def cores_conjugate(a: NormalForm, b: NormalForm) -> bool:
        if len(a) != len(b):
            return False
        if a.is_identity:
            return True
        if len(a) == 1:
            return _factor_conjugate(a.syllables[0], b.syllables[0], factors)
        return _rotation_equal(a.syllables, b.syllables)

    if cores_conjugate(cx, cy):
        return True
    if allow_inverse:
        return cores_conjugate(cx, invert(cy, factors))
    return False


def primitive_root(w: NormalForm, factors: Factors) -> tuple[NormalForm, int]:
    """Maximal-exponent root: ``w = root^m`` with ``root`` not a proper power.

    For hyperbolic words this is the minimal cyclic period of the syllable
    sequence; for a single factor syllable the root is searched inside the
    factor, maximizing m and breaking ties by smallest element index.
    """
    if w.is_identity:
        raise TrivialTarget("primitive root of the identity")
    if not is_cyclically_reduced(w):
        raise NotCyclicallyReduced(w.syllables)
    syl = w.syllables
    if len(syl) == 1:
        f, v = syl[0]
        spec = factors.spec(f)
        if not spec.is_finite:
            return NormalForm(((f, 1 if v > 0 else -1),)), abs(v)
        group = spec.group
        for m in range(group.n, 0, -1):
            for r in range(1, group.n):
                if group.power(r, m) == v:
                    return NormalForm(((f, r),)), m
        raise AssertionError("unreachable: m=1 with r=v always works")
    n = len(syl)
    for d in range(1, n + 1):
        if n % d:
            continue
        if all(syl[i] == syl[i % d] for i in range(n)):
            return NormalForm(syl[:d]), n // d
    raise AssertionError("unreachable: d=n always matches")


def factor_image(w: NormalForm, factors: Factors) -> tuple[int, int]:
    """Image of ``w`` in the direct product of the (finite) factors."""
    if not factors.all_finite:
        raise InfiniteFactor("factor image requires finite factors")
    img = [0, 0]
    for f, v in w.syllables:
        img[f] = factors.mul(f, img[f], v)
    return img[0], img[1]


def in_cartesian(w: NormalForm, factors: Factors) -> bool:
    return factor_image(w, factors) == (0, 0)


def product_order(w: NormalForm, factors: Factors) -> int:
    """The order of the image of ``w`` in the direct product of the (finite)
    factors, so its order on the factor product action, the regular action
    of A x B: the lcm of the orders of its images in the two factors."""
    a, b = factor_image(w, factors)
    ga, gb = factors.groups()
    return math.lcm(element_order(ga, a), element_order(gb, b))


def minimal_cartesian_power(w: NormalForm, factors: Factors) -> int:
    """Least m >= 1 with w^m in the Cartesian subgroup: the order of the
    image of w in the direct product of the factors."""
    if w.is_identity:
        raise TrivialTarget("minimal cartesian power of the identity")
    return product_order(w, factors)


@dataclass(frozen=True)
class CartesianBasis:
    """Schreier transversal {a*b} of the Cartesian subgroup and a free basis."""

    transversal: tuple[NormalForm, ...]
    basis: tuple[NormalForm, ...]
    rank: int


def _transversal_word(a: int, b: int) -> NormalForm:
    syl: tuple[Syllable, ...] = ()
    if a:
        syl += ((0, a),)
    if b:
        syl += ((1, b),)
    return NormalForm(syl)


def _basis_word(a: int, b: int, ga: FiniteGroup, gb: FiniteGroup) -> NormalForm:
    return NormalForm(((0, a), (1, b), (0, ga.inv[a]), (1, gb.inv[b])))


def basis_index(a: int, b: int, gb: FiniteGroup) -> int:
    return (a - 1) * (gb.n - 1) + (b - 1)


def cartesian_basis(factors: Factors) -> CartesianBasis:
    ga, gb = factors.groups()
    transversal = tuple(_transversal_word(a, b) for a in ga.elements() for b in gb.elements())
    basis = tuple(
        _basis_word(a, b, ga, gb)
        for a in range(1, ga.n)
        for b in range(1, gb.n)
    )
    return CartesianBasis(transversal, basis, (ga.n - 1) * (gb.n - 1))


def rewrite(w: NormalForm, factors: Factors) -> list[tuple[int, int]]:
    """Express ``w`` (in the Cartesian subgroup) over the commutator basis.

    Returns a freely reduced list of ``(basis_index, +1/-1)`` letters whose
    product equals ``w``.  The letters come from the Schreier trace of the
    word through the coset representatives (a, b).
    """
    ga, gb = factors.groups()
    out: list[tuple[int, int]] = []

    def emit(idx: int, exp: int) -> None:
        if out and out[-1] == (idx, -exp):
            out.pop()
        else:
            out.append((idx, exp))

    a = b = 0
    for f, v in w.syllables:
        if f == 0:
            a2 = ga.mul(a, v)
            if b != 0:
                if a != 0:
                    emit(basis_index(a, b, gb), 1)
                if a2 != 0:
                    emit(basis_index(a2, b, gb), -1)
            a = a2
        else:
            b = gb.mul(b, v)
    if (a, b) != (0, 0):
        raise NotInCartesian((a, b))
    return out


def finite_factors(ga: FiniteGroup, gb: FiniteGroup) -> Factors:
    return Factors((FactorSpec("finite", ga), FactorSpec("finite", gb)))
