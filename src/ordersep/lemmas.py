"""The four constructive engines behind the separation pipeline.

All four operate on words of the Cartesian subgroup C over two finite
factors and return graphs together with recomputed, verified order data.

* ``lemma1_boost``   -- make targets act with large p-power order, via a
  random fiber assignment into an iterated wreath p-group.
* ``lemma2_declose`` -- additionally make every target's cycles free of
  close edges, by repeated two-mark surgeries keyed to connecting elements
  of the form (prefix of root) * z * (suffix of root).
* ``lemma3_separate`` -- pairwise distinct orders, coprime to a given prime
  set, for words in pairwise non-conjugate cyclic subgroups; recursive
  order-splitting with an equalization loop in the middle.
* ``lemma4_power_separate`` -- distinct orders for powers of one word.

Everything a construction promises is recomputed from the produced graph
before it is returned; randomized search is seeded and budgeted.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field

from .config import RunConfig, sub_seed
from .covergraph import (
    CoverGraph,
    SurgeryMark,
    close_edge_scan,
    close_pairs,
    cycle_walks,
    fiber_order,
    gamma_surgery,
    graph_to_json,
    induced_graph,
    word_perm_array,
    word_order,
)
from .errors import (
    BudgetExceeded,
    ConflictingMarks,
    HypothesisViolation,
    InternalError,
    IterationBudgetExceeded,
    NotCyclicallyReduced,
    NotInCartesian,
    PostconditionFailed,
    SearchBudgetExceeded,
    TrivialTarget,
)
from .groupcore import random_wreath_element
from .words import (
    IDENTITY,
    Factors,
    NormalForm,
    cartesian_basis,
    in_cartesian,
    is_conjugate,
    is_cyclically_reduced,
    minimal_cartesian_power,
    normalize,
    power,
    primitive_root,
    rewrite,
)


@dataclass
class Component:
    """One permutation action in a certificate; when ``prime`` is set, every
    Cartesian-subgroup word acts with p-power order on ``graph``."""

    graph: CoverGraph
    prime: int | None
    note: str = ""

    def to_json(self) -> dict:
        return {
            "type": "graph",
            "prime": self.prime,
            "note": self.note,
            "graph": graph_to_json(self.graph),
        }


@dataclass
class SeparationResult:
    components: list[Component]
    orders: dict[int, int]
    transcript: list[dict] = field(default_factory=list)


# Integer helpers.  Their arguments are word orders (lcms of cycle lengths on
# at most ``max_vertices`` points), factor orders, exponents and small
# primes, so trial division is enough.

def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def factorization(n: int) -> dict[int, int]:
    """{prime: exponent} of an integer n >= 1."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def valuation(p: int, n: int) -> int:
    """The exponent of the prime p in a nonzero integer n."""
    if n == 0:
        raise ValueError("valuation of 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def fresh_prime(excluded) -> int:
    """The least prime not in ``excluded``."""
    p = 2
    while p in excluded or not is_prime(p):
        p += 1
    return p


def is_prime_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def _require_cartesian_targets(targets, factors: Factors) -> None:
    for i, w in enumerate(targets):
        if w.is_identity:
            raise TrivialTarget(f"target {i} is trivial")
        if not in_cartesian(w, factors):
            raise NotInCartesian(f"target {i} has nontrivial factor image")


# ---------------------------------------------------------------------------
# prime-power boosting
# ---------------------------------------------------------------------------

LEMMA1_GROW_EVERY = 1_000  # failed draws before the fiber grows by a factor p


def _exponent_sums_vanish(letters: list[tuple[int, int]], p: int) -> bool:
    """Whether every basis letter's exponent sum in ``letters`` is 0 mod p,
    i.e. the word is trivial in every abelian quotient of exponent p."""
    sums: dict[int, int] = {}
    for idx, exp in letters:
        sums[idx] = sums.get(idx, 0) + exp
    return all(s % p == 0 for s in sums.values())


def lemma1_boost(
    targets: list[NormalForm],
    p: int,
    n_power: int,
    factors: Factors,
    *,
    seed: int = 0,
    config: RunConfig = RunConfig(),
    fiber_exponent: int | None = None,
) -> Component:
    """A component where every target's order is a p-power above p^n_power.

    Targets are rewritten over the Cartesian basis; random fiber assignments
    into the wreath p-group on p^m points are drawn until all evaluated
    orders clear the threshold, growing m on sustained failure.  Each draw is
    prefiltered on the base coset, whose return is the target itself; only
    the winning assignment is materialized as an induced graph.  There each
    target's base-coset order divides its order, and every cycle of a wreath
    p-group has p-power length, so the orders must clear the threshold as
    p-powers (``InternalError`` otherwise).  A fiber that cannot fit in
    ``max_vertices`` raises ``BudgetExceeded`` before any draw.
    ``fiber_exponent`` forces a larger starting fiber.
    """
    if not is_prime(p):
        raise HypothesisViolation(f"{p} is not prime")
    if n_power < 0:
        raise HypothesisViolation("power threshold must be >= 0")
    ga, gb = factors.groups()
    _require_cartesian_targets(targets, factors)
    cb = cartesian_basis(factors)
    letters = [rewrite(w, factors) for w in targets]
    # a draw is prefiltered on the base coset only, whose return is w itself
    base_returns = [(1, (tuple(word_letters),)) for word_letters in letters]
    threshold = p ** n_power

    rng = random.Random(sub_seed(seed, "lemma1", p, n_power))
    m = max(n_power + 1, fiber_exponent or 0)
    while p ** m * ga.n * gb.n > config.max_vertices and m > n_power + 1:
        m -= 1
    if p ** m * ga.n * gb.n > config.max_vertices:
        raise BudgetExceeded(f"{p ** m * ga.n * gb.n} vertices over budget {config.max_vertices}")
    # on p points the wreath group is Z/p, where a word whose basis exponent
    # sums all vanish mod p acts trivially, so that fiber level is dead
    if m == 1 and p ** 2 * ga.n * gb.n <= config.max_vertices and any(
        _exponent_sums_vanish(word_letters, p) for word_letters in letters
    ):
        m = 2
    attempts = 0
    while attempts < config.lemma1_attempts:
        if attempts and attempts % LEMMA1_GROW_EVERY == 0:
            if p ** (m + 1) * ga.n * gb.n <= config.max_vertices:
                m += 1
        attempts += 1
        y = p ** m
        psi = [random_wreath_element(p, m, rng) for _ in range(cb.rank)]
        maps = [q.map for q in psi]
        inv_maps = [q.inverse().map for q in psi]
        if any(fiber_order(r, maps, inv_maps, y) <= threshold for r in base_returns):
            continue
        graph = induced_graph(ga, gb, y, psi, max_vertices=config.max_vertices)
        orders = [word_order(graph, w) for w in targets]
        if not all(o > threshold and is_prime_power(o, p) for o in orders):
            raise InternalError("a prefiltered Lemma 1 draw fails the threshold on its graph")
        return Component(
            graph, p, note=f"boost p={p} above {p}^{n_power} (fiber {y}, attempt {attempts})"
        )
    raise SearchBudgetExceeded(seed, attempts)


# ---------------------------------------------------------------------------
# close-edge elimination
# ---------------------------------------------------------------------------

def _root_data(u: NormalForm, factors: Factors) -> tuple[NormalForm, int]:
    """(root, m) for u = root^m, validating the minimal-power hypothesis:
    no proper divisor power of the root lands in the Cartesian subgroup."""
    if not is_cyclically_reduced(u):
        raise NotCyclicallyReduced(u.syllables)
    root, m = primitive_root(u, factors)
    if minimal_cartesian_power(root, factors) != m:
        raise HypothesisViolation(
            f"a smaller power of the root already lies in the Cartesian subgroup (m={m})"
        )
    return root, m


def _word_in_cyclic(chi: NormalForm, root: NormalForm, factors: Factors) -> bool:
    """Group-level membership of chi in the cyclic subgroup of the root."""
    if chi.is_identity:
        return True
    bound = len(chi) // len(root) + 1
    return any(chi == power(root, j, factors) for j in range(-bound, bound + 1))


def connecting_words(root: NormalForm, factors: Factors):
    """All admissible (z, mu, nu) connector words for a hyperbolic root.

    The connector is (first nu syllables) * z * (syllables mu..end), where z
    ranges over both factors including the identity; for z = 1 the index
    pairs that merely re-read the root are excluded.  Connectors that fall
    into the cyclic subgroup of the root cannot witness a pair of distinct
    close edges and are dropped.
    """
    syl = root.syllables
    n = len(syl)
    ga, gb = factors.groups()
    zs: list[NormalForm] = [IDENTITY]
    zs += [NormalForm(((0, v),)) for v in range(1, ga.n)]
    zs += [NormalForm(((1, v),)) for v in range(1, gb.n)]
    out = []
    for z in zs:
        for mu in range(1, n + 1):
            for nu in range(1, n + 1):
                if z.is_identity and (mu == nu + 1 or nu - mu >= n - 1):
                    continue
                mu_part = syl[mu - 1:] if mu > 1 else ()
                nu_part = syl[:nu] if nu < n else ()
                chi = normalize(nu_part + z.syllables + mu_part, factors)
                if _word_in_cyclic(chi, root, factors):
                    continue
                out.append((z, mu, nu, chi))
    return out


def _cyclic_membership(g: CoverGraph, chi: NormalForm, root: NormalForm) -> int | None:
    """Exponent j with perm(chi) = perm(root)^j on g, else None.

    Per-vertex discrete logs along root-orbits, merged by CRT; complete and
    linear in the vertex count.
    """
    pchi = word_perm_array(g, chi)
    proot = word_perm_array(g, root)
    n = len(proot)
    pos = [0] * n
    length = [0] * n
    label = [-1] * n
    for v in range(n):
        if label[v] >= 0:
            continue
        orbit = [v]
        cur = proot[v]
        while cur != v:
            orbit.append(cur)
            cur = proot[cur]
        for i, u in enumerate(orbit):
            pos[u] = i
            length[u] = len(orbit)
            label[u] = v
    if any(label[pchi[v]] != label[v] for v in range(n)):
        return None
    residue, modulus = 0, 1
    for v in range(n):
        lv = length[v]
        jv = (pos[pchi[v]] - pos[v]) % lv
        d = math.gcd(modulus, lv)
        if (jv - residue) % d:
            return None
        step = modulus // d
        t = ((jv - residue) // d * pow(step, -1, lv // d)) % (lv // d) if lv != d else 0
        residue = residue + modulus * t
        modulus = modulus // d * lv
        residue %= modulus
    # direct verification at the merged exponent
    acc: tuple[int, ...] = tuple(range(n))
    base = proot
    k = residue
    while k:
        if k & 1:
            acc = tuple(map(base.__getitem__, acc))
        base = tuple(map(base.__getitem__, base))
        k >>= 1
    return residue if acc == pchi else None


def _declose_surgery(
    g: CoverGraph,
    chi: NormalForm,
    root: NormalForm,
    r: int,
    p: int,
    factors: Factors,
    cap: int,
    flip: bool = False,
) -> CoverGraph:
    """The two-mark p-fold surgery breaking the fixed-vertex coincidence at r.

    The mark factor is chosen by comparing the first connector syllable with
    the last root syllable; ``flip`` selects the other variant (used on
    retry rounds when the prescribed one fails to clear the witness).
    """
    syl = root.syllables
    y1_f, y1_v = syl[0]
    yn_f, yn_v = syl[-1]
    d_factor = yn_f
    f_factor = 1 - yn_f
    x1_f = chi.syllables[0][0]
    use_d = (x1_f != yn_f) ^ flip
    if use_d:
        second = g.acts[y1_f][y1_v][r]  # end of the edge after r on the cycle
        marks = [SurgeryMark(r, d_factor), SurgeryMark(second, d_factor)]
    else:
        yn_inv = factors.inv(yn_f, yn_v)
        second = g.acts[yn_f][yn_inv][r]  # start of the edge into r
        marks = [SurgeryMark(r, f_factor), SurgeryMark(second, f_factor)]
    return gamma_surgery(g, p, marks, max_vertices=cap)


class _Restart(Exception):
    """Internal: abandon the current construction attempt, reseed."""


def _edge_deltas(walk, lo, hi, syl, deltas: dict) -> None:
    """Accumulate per-(vertex, factor) net out-minus-in counts over the walk
    edge positions lo..hi (inclusive, cyclically)."""
    total = len(walk)
    n = len(syl)
    pos = lo
    while True:
        f = syl[pos % n][0]
        start, end = walk[pos], walk[(pos + 1) % total]
        deltas[(start, f)] = deltas.get((start, f), 0) + 1
        deltas[(end, f)] = deltas.get((end, f), 0) - 1
        if pos == hi:
            break
        pos = (pos + 1) % total


def _pair_kill_marks(
    g: CoverGraph,
    root: NormalForm,
    walk: list[int],
    i: int,
    j: int,
    p: int,
) -> list[SurgeryMark] | None:
    """Marks whose p-fold surgery provably separates a close pair.

    The pair dies exactly when the layer displacement between the traversals
    of its two edges is nonzero mod p while the whole cycle's displacement is
    zero mod p (so the cycle lifts to p copies rather than one long cycle
    revisiting both layers).  Marks on the pair's own factor component are
    excluded since they would merge its layers.  A single mark is preferred;
    otherwise a compensating second mark outside the segment fixes the
    cycle displacement.  None when no such mark set exists here.
    """
    syl = root.syllables
    n = len(syl)
    f_pair = syl[j % n][0]
    pair_key = (f_pair, g.factor_orbits(f_pair)[walk[j]])

    seg: dict[tuple[int, int], int] = {}
    _edge_deltas(walk, i, (j - 1) % len(walk), syl, seg)
    cyc: dict[tuple[int, int], int] = {}
    _edge_deltas(walk, 0, len(walk) - 1, syl, cyc)

    def orbit_key(v: int, f: int) -> tuple[int, int]:
        return (f, g.factor_orbits(f)[v])

    primary = sorted(
        key for key, d in seg.items() if d % p and orbit_key(key[0], key[1]) != pair_key
    )
    for v1, f1 in primary:
        if cyc.get((v1, f1), 0) % p == 0:
            return [SurgeryMark(v1, f1)]
    for v1, f1 in primary:
        need = (-cyc.get((v1, f1), 0)) % p
        for (v2, f2), d in sorted(cyc.items()):
            if (v2, f2) == (v1, f1) or d % p != need:
                continue
            if seg.get((v2, f2), 0) % p:
                continue
            key2 = orbit_key(v2, f2)
            if key2 == pair_key or key2 == orbit_key(v1, f1):
                continue
            return [SurgeryMark(v1, f1), SurgeryMark(v2, f2)]
    return None


def _scan_repair_round(
    g: CoverGraph,
    target_roots,
    p: int,
    round_no: int,
    cap: int,
) -> CoverGraph | None:
    """One surgery killing the first close pair while containing the rest.

    The targeted pair gets its kill marks; every other offending cycle whose
    total layer displacement would come out zero mod p (which would lift it
    to p separate copies of itself, multiplying the offender count) receives
    one extra mark pushing its displacement off zero, so it lifts to a single
    cycle instead.  Returns None when no cycle of any root is close-edged.
    """
    offenders: list[tuple[NormalForm, list[int], int, int]] = []
    for root in target_roots:
        offenders.extend(
            (root, walk, i, j) for walk, i, j in close_pairs(g, root)
        )
    if not offenders:
        return None

    root0, walk0, i0, j0 = offenders[0]
    syl0 = root0.syllables
    f_pair = syl0[j0 % len(syl0)][0]
    pair_key = (f_pair, g.factor_orbits(f_pair)[walk0[j0]])
    kill = _pair_kill_marks(g, root0, walk0, i0, j0, p)
    if kill is None:
        pos = (i0 + round_no) % len(walk0)
        kill = [SurgeryMark(walk0[pos], syl0[pos % len(syl0)][0])]
    marks = list(kill)
    used = {(m.factor, g.factor_orbits(m.factor)[m.vertex]) for m in marks}
    used.add(pair_key)

    seg0: dict[tuple[int, int], int] = {}
    _edge_deltas(walk0, i0, (j0 - 1) % len(walk0), syl0, seg0)
    cyc0: dict[tuple[int, int], int] = {}
    _edge_deltas(walk0, 0, len(walk0) - 1, syl0, cyc0)

    for root, walk, i, j in offenders[1:]:
        cyc: dict[tuple[int, int], int] = {}
        _edge_deltas(walk, 0, len(walk) - 1, root.syllables, cyc)
        if sum(cyc.get((m.vertex, m.factor), 0) for m in marks) % p:
            continue
        for (v, f), d in sorted(cyc.items()):
            if d % p == 0:
                continue
            key = (f, g.factor_orbits(f)[v])
            if key in used:
                continue
            # do not disturb the targeted pair's conditions
            if (seg0.get((v, f), 0) % p) or (cyc0.get((v, f), 0) % p):
                continue
            marks.append(SurgeryMark(v, f))
            used.add(key)
            break
        # cycles with no usable containment mark just duplicate this round
    return gamma_surgery(g, p, marks, max_vertices=cap)


LEMMA2_RETRIES = 4  # fresh bases before Lemma 2 reports its last witness
LEMMA2_SCAN_ROUNDS = 64  # scan-driven surgeries per repair phase
LEMMA2_TRIPLE_ROUNDS = 12  # surgeries per connector before a restart


def _offending_cycles(g: CoverGraph, target_roots) -> int:
    return sum(len(list(close_pairs(g, root))) for root in target_roots)


def lemma2_declose(
    targets: list[NormalForm],
    p: int,
    factors: Factors,
    *,
    seed: int = 0,
    config: RunConfig = RunConfig(),
) -> SeparationResult:
    """A component where every target is a nonunit p-element and all of its
    cycles are free of close edges.

    Construction: start from a boost component for the whole target list;
    for every admissible connector of every target's root, clear the
    fixed-vertex coincidences by two-mark surgeries (each preserves the
    conditions already established, since fixed points project down through
    surgery layers); finish with an exhaustive scan and scan-driven repair
    rounds.  Fails over to fresh seeds, then reports the last witness.
    """
    if not is_prime(p):
        raise HypothesisViolation(f"{p} is not prime")
    _require_cartesian_targets(targets, factors)
    roots = [_root_data(u, factors) for u in targets]
    transcript: list[dict] = []

    last_witness: object = None
    last_budget: BudgetExceeded | None = None
    target_roots = [root for root, _m in roots]
    for attempt in range(LEMMA2_RETRIES):
        try:
            # draw a batch of candidate bases and keep the one with the
            # fewest close-edged cycles: base quality dominates the number of
            # (graph-multiplying) repair surgeries needed afterwards; later
            # attempts use larger fibers, which spread the orbits out
            best = None
            for k in range(12):
                cand = lemma1_boost(
                    targets, p, 1, factors,
                    seed=sub_seed(seed, "lemma2-base", attempt, k),
                    config=config,
                    fiber_exponent=2 + attempt,
                ).graph
                badness = _offending_cycles(cand, target_roots)
                if best is None or badness < best[0]:
                    best = (badness, cand)
                if badness == 0:
                    break
            g = best[1]
            cap = min(config.max_vertices, g.vcount * 1024)
            surgeries = 0
            # scan-driven elimination first: each round kills every currently
            # offending cycle that accepts a compatible mark
            for round_no in range(LEMMA2_SCAN_ROUNDS):
                repaired = _scan_repair_round(g, target_roots, p, round_no, cap)
                if repaired is None:
                    break
                g = repaired
                surgeries += 1
            else:
                raise _Restart("scan repair budget exhausted")
            # connector exclusions: no admissible connector may act as a
            # power of its root (close-edge freeness persists through these
            # surgeries, since close-edge-free cycles lift close-edge-free)
            for u, (root, m) in zip(targets, roots):
                for z, mu, nu, chi in connecting_words(root, factors):
                    rounds = 0
                    while (j := _cyclic_membership(g, chi, root)) is not None:
                        if rounds >= LEMMA2_TRIPLE_ROUNDS:
                            raise _Restart(f"connector ({z.syllables},{mu},{nu}) not excluded")
                        g = _declose_surgery(
                            g, chi, root, rounds % g.vcount, p, factors, cap,
                            flip=rounds % 2 == 1,
                        )
                        surgeries += 1
                        rounds += 1
            # a connector surgery may in principle re-arrange cycles; rescan
            for round_no in range(LEMMA2_SCAN_ROUNDS):
                repaired = _scan_repair_round(g, target_roots, p, round_no, cap)
                if repaired is None:
                    break
                g = repaired
                surgeries += 1
            else:
                raise _Restart("scan repair budget exhausted")

            orders: dict[int, int] = {}
            for idx, (u, (root, m)) in enumerate(zip(targets, roots)):
                witness_pair = close_edge_scan(g, u)
                if witness_pair is not None:
                    last_witness = (idx, witness_pair)
                    raise _Restart("close edges survived")
                o = word_order(g, u)
                if o <= 1 or not is_prime_power(o, p):
                    raise _Restart(f"target {idx} order {o} not a nonunit {p}-power")
                if word_order(g, root) != m * o:
                    raise PostconditionFailed(
                        f"root order is not {m} times the target order for target {idx}"
                    )
                orders[idx] = o
            transcript.append(
                {
                    "stage": "declose",
                    "prime": p,
                    "attempt": attempt,
                    "surgeries": surgeries,
                    "vertices": g.vcount,
                }
            )
            return SeparationResult(
                [Component(g, p, note=f"declosed at p={p}")], orders, transcript
            )
        except (_Restart, ConflictingMarks, BudgetExceeded) as exc:
            if isinstance(exc, BudgetExceeded):
                last_budget = exc
            transcript.append({"stage": "declose-retry", "attempt": attempt, "why": str(exc)})
            continue
    if last_witness is None and last_budget is not None:
        raise last_budget
    raise PostconditionFailed((targets, last_witness))


# ---------------------------------------------------------------------------
# order separation of non-conjugate cyclic classes
# ---------------------------------------------------------------------------

def _max_cycles(g: CoverGraph, u: NormalForm) -> tuple[int, list[tuple[list[int], list[int]]]]:
    """(max length, all (orbit, walk) pairs of that length, by base order)."""
    cycles = list(cycle_walks(g, u))
    top = max(len(orbit) for orbit, _ in cycles)
    return top, [(orbit, walk) for orbit, walk in cycles if len(orbit) == top]


def _path_occurrences(walk: list[int], labels_period: list, path_start: int, path_labels: tuple) -> list[int]:
    """Positions where the labelled path occurs in the cyclic walk."""
    total = len(walk)
    out = []
    for pos in range(total):
        if walk[pos] != path_start:
            continue
        if all(
            labels_period[(pos + t) % len(labels_period)] == path_labels[t]
            for t in range(len(path_labels))
        ):
            out.append(pos)
    return out


@dataclass
class _Path:
    start: int
    labels: tuple


MAX_ITERATIONS = 64  # equalization surgeries before the targets must split
LEMMA3_RETRIES = 3  # declose-and-equalize attempts per Lemma 3 level


def _equalize_until_split(
    g: CoverGraph,
    targets: list[NormalForm],
    p: int,
    factors: Factors,
    config: RunConfig,
    transcript: list[dict],
) -> CoverGraph:
    """Surger the first target's maximal cycles until the targets' maximal
    cycle lengths disagree (all orders here are p-powers, so maximal cycle
    length equals order)."""
    u1 = targets[0]
    syl = u1.syllables
    n_syl = len(syl)
    path: _Path | None = None

    for k in range(MAX_ITERATIONS):
        lengths = [_max_cycles(g, u)[0] for u in targets]
        if len(set(lengths)) > 1:
            transcript.append({"stage": "split", "iteration": k, "lengths": lengths})
            return g
        n = lengths[0]
        if k == 0:
            _, tops = _max_cycles(g, u1)
            orbit, walk = tops[0]
            v_old = g.vcount
            s = walk[1]
            t = walk[2 % len(walk)]
            d_factor = syl[0][0]
            f_factor = 1 - d_factor
            g = gamma_surgery(g, n, [SurgeryMark(s, d_factor)], max_vertices=config.max_vertices)
            t_layer1 = v_old + t
            g = gamma_surgery(
                g, n * n, [SurgeryMark(t_layer1, f_factor)], max_vertices=config.max_vertices
            )
            path = _Path(start=t_layer1, labels=(syl[1 % n_syl],))
        else:
            assert path is not None
            _, tops = _max_cycles(g, u1)
            chosen = None
            for orbit, walk in tops:
                occ = _path_occurrences(walk, [syl[i % n_syl] for i in range(n_syl)], path.start, path.labels)
                if occ:
                    chosen = (walk, occ[0])
                    break
            if chosen is None:
                raise PostconditionFailed("no maximal cycle of the lead target contains the tracked path")
            walk, pos = chosen
            total = len(walk)
            next_pos = (pos + len(path.labels)) % total
            f_label = syl[next_pos % n_syl]
            q = walk[(next_pos + 1) % total]
            g = gamma_surgery(
                g, n, [SurgeryMark(q, f_label[0])], max_vertices=config.max_vertices
            )
            path = _Path(start=path.start, labels=path.labels + (f_label,))

        # close-edge freeness must persist through every step
        for u in targets:
            if close_edge_scan(g, u) is not None:
                raise PostconditionFailed("close edges reappeared during equalization")

        new_lengths = [_max_cycles(g, u)[0] for u in targets]
        if len(set(new_lengths)) == 1:
            _assert_path_in_maximal_cycles(g, targets, path, factors)
    raise IterationBudgetExceeded(MAX_ITERATIONS)


def _assert_path_in_maximal_cycles(
    g: CoverGraph, targets: list[NormalForm], path: _Path, factors: Factors
) -> None:
    """While the maximal lengths still agree, the tracked path must lie in
    some maximal cycle of the lead target and in every maximal cycle of the
    others."""
    u1 = targets[0]
    _, tops = _max_cycles(g, u1)
    period1 = [u1.syllables[i % len(u1.syllables)] for i in range(len(u1.syllables))]
    if not any(
        _path_occurrences(walk, period1, path.start, path.labels) for _, walk in tops
    ):
        raise PostconditionFailed("tracked path left the lead target's maximal cycles")
    for u in targets[1:]:
        period = [u.syllables[i % len(u.syllables)] for i in range(len(u.syllables))]
        _, tops_j = _max_cycles(g, u)
        for _, walk in tops_j:
            if not _path_occurrences(walk, period, path.start, path.labels):
                raise PostconditionFailed("tracked path missing from a maximal cycle")


def lemma3_separate(
    targets: list[NormalForm],
    pi: frozenset[int] | set[int],
    factors: Factors,
    *,
    seed: int = 0,
    config: RunConfig = RunConfig(),
) -> SeparationResult:
    """Pairwise distinct orders, all coprime to ``pi``, for Cartesian words
    lying in pairwise non-conjugate cyclic subgroups.

    Recursive: pick a fresh prime p, declose, equalize until the maximal
    cycle lengths split the targets into a strictly-larger-order class and
    the rest, then recurse on both sides with growing prime exclusions.  The
    final orders are recomputed across all components and checked as an
    invariant: every component's orders on Cartesian words are powers of
    its prime, so the split component alone sets the p-part, beta's primes
    lie in rho, and alpha's primes lie outside pi | {p} | rho.  A failed
    check raises ``PostconditionFailed``.
    """
    pi = frozenset(pi)
    _require_cartesian_targets(targets, factors)
    roots = [_root_data(u, factors) for u in targets]
    for i in range(len(targets)):
        for j in range(i + 1, len(targets)):
            if is_conjugate(roots[i][0], roots[j][0], factors, allow_inverse=True):
                raise HypothesisViolation(
                    f"targets {i} and {j} lie in conjugate cyclic subgroups"
                )

    transcript: list[dict] = []
    p = fresh_prime(pi)

    if len(targets) == 1:
        comp = lemma1_boost(targets, p, 1, factors, seed=sub_seed(seed, "l3-single"), config=config)
        orders = {0: word_order(comp.graph, targets[0])}
        transcript.append({"stage": "single", "prime": p, "order": orders[0]})
        return SeparationResult([comp], orders, transcript)

    result: SeparationResult | None = None
    last_reason = ""
    for attempt in range(LEMMA3_RETRIES):
        l2 = lemma2_declose(
            targets, p, factors, seed=sub_seed(seed, "l3-declose", attempt), config=config
        )
        g = l2.components[0].graph
        transcript.extend(l2.transcript)
        try:
            g = _equalize_until_split(g, targets, p, factors, config, transcript)
        except (BudgetExceeded, ConflictingMarks, PostconditionFailed) as exc:
            last_reason = str(exc)
            transcript.append({"stage": "equalize-retry", "attempt": attempt, "why": last_reason})
            continue

        orders1 = [word_order(g, u) for u in targets]
        for o in orders1:
            if o <= 1 or not is_prime_power(o, p):
                raise InternalError(f"split-stage order {o} is not a nonunit {p}-power")
        top = max(orders1)
        alpha = [i for i, o in enumerate(orders1) if o == top]
        beta = [i for i, o in enumerate(orders1) if o < top]
        comp1 = Component(g, p, note=f"order split at p={p}: {orders1}")
        transcript.append({"stage": "alpha-beta", "prime": p, "orders": orders1})

        components = [comp1]
        pi_beta = pi | {p}
        res_beta = lemma3_separate(
            [targets[i] for i in beta], pi_beta, factors,
            seed=sub_seed(seed, "l3-beta", attempt), config=config,
        )
        components.extend(res_beta.components)
        rho: set[int] = set()
        for comp in res_beta.components:
            for u in targets:
                rho |= set(factorization(word_order(comp.graph, u)))
        res_alpha = lemma3_separate(
            [targets[i] for i in alpha], pi_beta | rho, factors,
            seed=sub_seed(seed, "l3-alpha", attempt), config=config,
        )
        components.extend(res_alpha.components)

        orders = {
            i: math.lcm(*(word_order(c.graph, targets[i]) for c in components))
            for i in range(len(targets))
        }
        result = SeparationResult(components, orders, transcript)
        break
    if result is None:
        raise BudgetExceeded(
            f"equalization failed in all {LEMMA3_RETRIES} attempts; last: {last_reason}"
        )

    if not _verify_lemma3(result, targets, pi):
        raise PostconditionFailed("orders not separated or not coprime to the exclusion set")
    return result


def _verify_lemma3(result: SeparationResult, targets, pi: frozenset[int]) -> bool:
    values = [result.orders[i] for i in range(len(targets))]
    if len(set(values)) != len(values):
        return False
    for o in values:
        if any(o % q == 0 for q in pi):
            return False
    for comp in result.components:
        if comp.prime is None:
            continue
        for u in targets:
            if not is_prime_power(word_order(comp.graph, u), comp.prime):
                return False
    return True


# ---------------------------------------------------------------------------
# power separation
# ---------------------------------------------------------------------------

def lemma4_power_separate(
    w: NormalForm,
    exponents: list[int],
    factors: Factors,
    *,
    seed: int = 0,
    config: RunConfig = RunConfig(),
) -> SeparationResult:
    """Distinct orders for w^k over exponents with pairwise distinct absolute
    values: one boost per prime dividing some exponent, pushed above the
    largest valuation so the p-parts of the power orders differ."""
    _require_cartesian_targets([w], factors)
    if not is_cyclically_reduced(w):
        raise NotCyclicallyReduced(w.syllables)
    if any(k == 0 for k in exponents):
        raise HypothesisViolation("zero exponent")
    magnitudes = [abs(k) for k in exponents]
    if len(set(magnitudes)) != len(magnitudes):
        raise HypothesisViolation("exponents share an absolute value")

    valuations: Counter[int] = Counter()  # of the product of the magnitudes
    for k in magnitudes:
        valuations.update(factorization(k))
    transcript: list[dict] = []
    components: list[Component] = []
    if not valuations:
        components.append(
            lemma1_boost([w], 2, 1, factors, seed=sub_seed(seed, "l4", 2), config=config)
        )
        transcript.append({"stage": "power-boost", "prime": 2, "threshold": 1})
    else:
        for p in sorted(valuations):
            n_i = valuations[p] + 1
            components.append(
                lemma1_boost([w], p, n_i, factors, seed=sub_seed(seed, "l4", p), config=config)
            )
            transcript.append({"stage": "power-boost", "prime": p, "threshold": n_i})

    orders: dict[int, int] = {}
    for j, k in enumerate(exponents):
        per_component = []
        for comp in components:
            base = word_order(comp.graph, w)
            direct = word_order(comp.graph, power(w, k, factors))
            if direct != base // math.gcd(base, k):
                raise InternalError(
                    f"power order law failed on component (k={k}, base={base}, got {direct})"
                )
            per_component.append(direct)
        orders[j] = math.lcm(*per_component)
    if len(set(orders.values())) != len(orders):
        raise PostconditionFailed(f"power orders collide: {orders}")
    return SeparationResult(components, orders, transcript)
