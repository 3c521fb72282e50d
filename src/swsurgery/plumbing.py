"""Plumbing configurations, lens-space boundaries, and rational blowdown.

The blowdown configuration of order p is a linear chain of p - 1 spheres
with weights -(p+2), -2, ..., -2; its boundary is the lens space of order
p^2 and it bounds a rational ball, so the chain alone fixes p.  Blowing it
down inside an ambient model drops b- by p - 1 and transfers SW data
through characteristic lifts whose restriction to the configuration has
relative self-intersection -(p - 1), the value forced by preservation of
the formal dimension together with the (e, sign) bookkeeping.

What an embedded chain determines is built once, in ``_chain_plan``; what
a blowdown proved is kept on the ambient's SW support, in one slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product as iter_product
from math import gcd
from typing import NamedTuple

from .exactmat import (
    SingularMatrixError,
    bareiss_adjugate,
    dot,
    freeze,
    hnf_row_basis,
    matmul,
    transpose,
)
from .lattice import (
    HomologyClass,
    IntersectionLattice,
    LatticeMismatchError,
    gram_image,
    is_characteristic,
    orthogonal_complement,
    require_same_lattice,
    same_lattice,
    signature_and_betti,
)
from .manifold import Chamber, FourManifoldModel, SWTable, _Support, chamber_sw


class EmbeddingError(ValueError):
    """A configuration embedding failed verification."""


@dataclass(frozen=True)
class PlumbingChain:
    """Weighted graph of sphere plumbings: linear chains and small trees.

    Its adjacency and a path's ``_path`` are kept on first use, outside the fields."""

    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        edges = ((int(a), int(b)) for a, b in self.edges)
        object.__setattr__(self, "edges", tuple((a, b) if a <= b else (b, a) for a, b in edges))
        n = len(self.weights)
        for a, b in self.edges:
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise ValueError(f"bad edge ({a}, {b})")
        if n > 1 and not self._connected():
            raise ValueError("plumbing graph must be connected")

    def _connected(self) -> bool:
        n = len(self.weights)
        seen = {0}
        frontier = [0]
        adjacency = self.adjacency()
        while frontier:
            v = frontier.pop()
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == n

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return self._adjacency

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj = [[] for _ in self.weights]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return tuple(tuple(sorted(x)) for x in adj)

    @property
    def size(self) -> int:
        return len(self.weights)

    def is_linear(self) -> bool:
        return self._linear

    @cached_property
    def _linear(self) -> bool:  # connected, so a tree iff n - 1 edges; a path iff degrees <= 2
        return len(self.edges) == self.size - 1 and max(map(len, self._adjacency)) <= 2

    @cached_property
    def _path(self) -> tuple[tuple[int, ...], list[int], list[int]]:
        """(order, lead, tail) of a path: ``_linear_order`` and its ``_continuants``."""
        order = _linear_order(self)
        return (order, *_continuants([self.weights[v] for v in order]))

    def matrix(self) -> tuple[tuple[int, ...], ...]:
        rows = []
        for v, (w, near) in enumerate(zip(self.weights, self._adjacency)):
            row = [0] * len(self.weights)
            row[v] = w
            for u in near:
                row[u] = 1
            rows.append(tuple(row))
        return tuple(rows)


@lru_cache(maxsize=64)
def cp_chain(p: int) -> PlumbingChain:
    """The order-p blowdown chain: p - 1 vertices, weights -(p+2), -2, ..., -2.

    Built and checked once per p; the chain is immutable."""
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    weights = [-(p + 2)] + [-2] * (p - 2)
    edges = tuple((i, i + 1) for i in range(p - 2))
    return PlumbingChain(tuple(weights), edges)


def e6_tilde_tree() -> PlumbingChain:
    """Seven -2 spheres: a length-5 chain with a 2-vertex leg at the middle."""
    return PlumbingChain(
        (-2,) * 7,
        ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)),
    )


class PlumbingForm(NamedTuple):
    """Intersection matrix of a plumbing with its exact determinant and adjugate.

    ``matrix * adj == det * I`` in integers; ``adj`` is None only for a
    singular graph that is not a linear chain.
    """

    matrix: tuple[tuple[int, ...], ...]
    det: int
    adj: tuple[tuple[int, ...], ...] | None

    def inverse(self) -> tuple[tuple[Fraction, ...], ...]:
        if self.det == 0:
            raise SingularMatrixError("plumbing matrix is singular")
        # the adjugate of a symmetric matrix is symmetric: one Fraction per
        # entry on or above the diagonal, the rest read from the rows above
        det, rows = self.det, []
        for i, row in enumerate(self.adj):
            rows.append(tuple([r[i] for r in rows] + [Fraction(x, det) for x in row[i:]]))
        return tuple(rows)


@lru_cache(maxsize=256)
def intersection_matrix(chain: PlumbingChain) -> PlumbingForm:
    m = chain.matrix()
    if chain.is_linear():
        return PlumbingForm(m, *_continuant_adjugate(chain))
    try:
        return PlumbingForm(m, *bareiss_adjugate(m))
    except SingularMatrixError:
        return PlumbingForm(m, 0, None)


def _continuants(weights) -> tuple[list[int], list[int]]:
    """Leading and trailing continuants of a path with unit edges, in O(n).

    lead[k] is the determinant of the first k vertices and tail[k] that of
    v_k, ..., v_{n-1}, with tail[n] = 1 and tail[n + 1] = 0; lead[n] ==
    tail[0] is the determinant of the whole path.
    """
    n = len(weights)
    lead = [1, weights[0]]
    for k in range(1, n):
        lead.append(weights[k] * lead[k] - lead[k - 1])
    tail = [0] * (n + 2)
    tail[n] = 1
    for k in range(n - 1, -1, -1):
        tail[k] = weights[k] * tail[k + 1] - tail[k + 2]
    return lead, tail


def _continuant_adjugate(chain: PlumbingChain):
    """Determinant and adjugate of a linear chain from its continuants, in O(n^2).

    Along the path v_0, ..., v_{n-1} (the chain's ``_path``), the determinant
    is lead[n] and, for i <= j, adj[v_i][v_j] = (-1)^(i+j) lead[i] tail[j+1]
    (Neumann, A calculus for plumbing, 1981).  This holds for singular
    chains too.  Each row is built once, its part below the diagonal read
    from the rows above.
    """
    order, lead, tail = chain._path
    n = len(order)
    signed_lead = [-lead[i] if i % 2 else lead[i] for i in range(n)]
    signed_tail = [-tail[j + 1] if j % 2 else tail[j + 1] for j in range(n)]
    rows = []
    for i, x in enumerate(signed_lead):
        rows.append(tuple([r[i] for r in rows] + [x * y for y in signed_tail[i:]]))
    if order != tuple(range(n)):  # reindexed by vertex, at[v] the place of v on the path
        at = sorted(range(n), key=order.__getitem__)
        rows = [tuple(map(rows[i].__getitem__, at)) for i in at]
    return lead[n], tuple(rows)


@dataclass(frozen=True)
class LensSpace:
    """Lens space of the given order with a chosen twist representative."""

    order: int
    twist: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be positive")
        if gcd(self.order, self.twist) != 1:
            raise ValueError(f"gcd({self.order}, {self.twist}) != 1")

    def residue_orbit(self) -> tuple[int, ...]:
        """All residues {+-q^(+-1) mod order}; orientation conventions differ
        only within this orbit, so both sign choices are matchable."""
        q = self.twist % self.order
        inv = pow(q, -1, self.order)
        return tuple(sorted({q, (-q) % self.order, inv, (-inv) % self.order}))


def boundary_lens_space(chain: PlumbingChain) -> LensSpace:
    """Boundary of a linear chain with all weights <= -2.

    The negative continued fraction [-w_0, -w_1, ...] along the chain is
    |lead[n]| / |tail[1]| in the continuants of its ``_path``, already in
    lowest terms as consecutive continuants are coprime; that is the order
    and twist.  The full residue orbit of the twist is reported by the
    LensSpace.
    """
    if not chain.is_linear():
        raise ValueError("boundary computation implemented for linear chains only")
    if any(w > -2 for w in chain.weights):
        raise ValueError("continued fraction needs all weights <= -2")
    _, lead, tail = chain._path
    return LensSpace(abs(lead[-1]), abs(tail[1]))


def _linear_order(chain: PlumbingChain) -> tuple[int, ...]:
    """Vertices listed along the chain from its first endpoint, or its one vertex."""
    adjacency = chain.adjacency()
    prev = current = next((v for v, near in enumerate(adjacency) if len(near) == 1), 0)
    order = [current]
    for _ in range(chain.size - 1):
        near = adjacency[current]
        prev, current = current, near[1] if near[0] == prev else near[0]
        order.append(current)
    return tuple(order)


@dataclass(frozen=True)
class ConfigurationEmbedding:
    """A plumbing configuration inside an ambient model.

    Verification, lift searches and blowdowns take explicit ambient classes
    for every vertex; their images G u_i under the ambient Gram are computed
    once, at construction, so that every pairing with a vertex is one dot
    product, and ``pairing_vector`` takes a class.  An intersection profile
    instead (the vertex Gram plus a ``{name: row}`` dict of pairings with
    the vertices) supports only ``realized_gram`` and
    ``pairing_vector({name: coeff})``, which reads the profile's rows alone,
    hence relative squares of named combinations.
    """

    ambient: FourManifoldModel
    chain: PlumbingChain
    vertex_classes: tuple[HomologyClass, ...] | None = None
    profile_gram: tuple[tuple[int, ...], ...] | None = None
    # given as a {name: row} dict, kept as sorted (name, row) pairs
    profile_pairings: tuple[tuple[str, tuple[int, ...]], ...] | None = None
    # G u_i for every vertex class u_i, or None for a profile
    vertex_images: tuple[tuple[int, ...], ...] | None = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.vertex_classes is None and self.profile_gram is None:
            raise ValueError("need vertex classes or an intersection profile")
        if self.vertex_classes is not None:
            object.__setattr__(self, "vertex_classes", tuple(self.vertex_classes))
            if len(self.vertex_classes) != self.chain.size:
                raise ValueError("one ambient class per vertex required")
            for u in self.vertex_classes:
                if not same_lattice(u.lattice, self.ambient.lattice):
                    raise ValueError("vertex classes must live in the ambient lattice")
        object.__setattr__(self, "vertex_images", None if self.vertex_classes is None else
                           tuple(gram_image(u) for u in self.vertex_classes))
        if self.profile_gram is not None:
            object.__setattr__(self, "profile_gram", freeze(self.profile_gram))
        if self.profile_pairings is not None:
            object.__setattr__(self, "profile_pairings", tuple(sorted(
                (str(k), tuple(int(x) for x in v)) for k, v in self.profile_pairings.items())))

    @property
    def size(self) -> int:
        return self.chain.size

    def realized_gram(self) -> tuple[tuple[int, ...], ...]:
        if self.vertex_classes is not None:
            return tuple(self._dots(u.coords) for u in self.vertex_classes)
        return self.profile_gram

    def _dots(self, coords) -> tuple[int, ...]:
        return tuple(dot(coords, image) for image in self.vertex_images)

    def pairing_vector(self, candidate) -> tuple[int, ...]:
        """Vector (candidate . u_i); candidate is a class, or {name: coeff} on a profile."""
        if isinstance(candidate, HomologyClass):
            if self.vertex_classes is None:
                raise ValueError(
                    "profile-only embedding: pass candidates as {name: coeff} combinations"
                )
            require_same_lattice(candidate.lattice, self.ambient.lattice)
            return self._dots(candidate.coords)
        rows = dict(self.profile_pairings or ())
        vector = [0] * self.size
        for name, coeff in candidate.items():
            if name not in rows:
                raise KeyError(f"no pairing profile for class {name!r}")
            vector = [x + coeff * y for x, y in zip(vector, rows[name])]
        return tuple(vector)


class EmbeddingReport(NamedTuple):
    ok: bool
    entries: tuple[tuple[str, bool], ...]

    def failures(self) -> tuple[str, ...]:
        return tuple(desc for desc, good in self.entries if not good)


def verify_embedding(emb: ConfigurationEmbedding) -> EmbeddingReport:
    """Check a realized configuration against ``emb.chain``, entry by entry.

    Mismatch is a report outcome, not an error.  For the seven-sphere tree the
    checks are the tree adjacency (central vertex with three length-2 legs)
    and orthogonality of every vertex to the marked fiber T.  The report
    comes from the plan ``_chain_plan``, one per ambient lattice, vertex
    coordinates, chain and fiber.
    """
    return _plan(emb, emb.chain).report


def _is_three_leg_star(chain: PlumbingChain) -> bool:
    adjacency = chain.adjacency()
    centers = [v for v in range(chain.size) if len(adjacency[v]) == 3]
    if len(centers) != 1 or chain.size != 7:
        return False
    center = centers[0]
    for mid in adjacency[center]:
        tips = [w for w in adjacency[mid] if w != center]
        if len(tips) != 1 or len(adjacency[tips[0]]) != 1:
            return False
    return True


def relative_square(chain: PlumbingChain, vector) -> Fraction:
    """v^T Q^(-1) v for Q the chain matrix, as v^T adj(Q) v / det(Q).

    For v the pairings of a class with the vertices this is the square of its
    restriction, sum v_i gamma_i in the dual basis, whose Gram is Q^(-1).
    The sum runs over the nonzero v_i only.
    """
    form = intersection_matrix(chain)
    if form.det == 0:
        raise SingularMatrixError("chain intersection matrix is singular")
    support = [(i, x) for i, x in enumerate(vector) if x]
    total = sum(x * y * form.adj[i][j] for i, x in support for j, y in support)
    return Fraction(total, form.det)


def relative_square_of_restriction(emb: ConfigurationEmbedding, k) -> Fraction:
    """Self-intersection of the restriction of k in the dual basis of the chain."""
    return relative_square(emb.chain, emb.pairing_vector(k))


def find_characteristic_lifts(emb: ConfigurationEmbedding, candidates):
    """The classes among ``candidates`` whose restriction has relative square -(p - 1).

    The chain of p - 1 vertices fixes p = ``emb.size + 1``; -(p - 1) is the
    value preserving the formal dimension through the blowdown.
    Every candidate must be a characteristic class of the ambient lattice;
    nothing is kept, and the family plans keep the answer.
    The output is closed under negation whenever the input is.
    """
    plan = _plan(emb, emb.chain)
    for c in candidates:
        require_same_lattice(c.lattice, emb.ambient.lattice)
    kept = []
    for c in candidates:
        if not is_characteristic(c):
            raise ValueError(f"lift candidate {c.coords} is not characteristic")
        if relative_square(emb.chain, [dot(c.coords, image) for image in plan.images]) == -emb.size:
            kept.append(c)
    return kept


def default_lift_candidates(X: FourManifoldModel) -> list[HomologyClass]:
    """Basic classes of X under every sign flip of the exceptional markings, in first-seen order."""
    exceptional = tuple(X.lattice.index_of(name) for name, _ in X.marked if name.startswith("E"))
    seen = {}
    for basic, _ in X.sw.entries:
        for signs in iter_product((1, -1), repeat=len(exceptional)):
            coords = list(basic)
            for s, idx in zip(signs, exceptional):
                coords[idx] *= s
            seen[tuple(coords)] = None
    return [HomologyClass._trusted(X.lattice, coords) for coords in seen]


def _overlattice_basis(det_c: int, adj_c, p: int):
    """Basis of the index-p overlattice M = C + p C* inside C (x) Q.

    C is the strict orthogonal complement, with Gram matrix G and
    G * adj_c == det_c * I; gluing in the rational ball enlarges it to the
    unimodular lattice of the blown-down manifold, the preimage of the
    order-p isotropic subgroup of the discriminant group.  Rows are integer
    C-coordinates scaled by den = |det_c|: C is spanned by den * I and p C*
    by the rows of p * den * G^(-1) = +-p * adj_c.  Correctness (integrality,
    |det| = 1) is checked by the caller.
    """
    r = len(adj_c)
    den = abs(det_c)
    rows = [[den if i == j else 0 for j in range(r)] for i in range(r)]
    rows.extend([p * x for x in row] for row in adj_c)
    return hnf_row_basis(rows)


def _plan(emb: ConfigurationEmbedding, chain: PlumbingChain) -> "_ChainPlan":
    """The plan of ``emb``'s vertex classes as a realization of ``chain``; the
    fiber T is part of the key only for a tree, whose report checks it."""
    if emb.vertex_classes is None:
        raise ValueError("this step needs explicit vertex classes; a profile supports "
                         "only pairing vectors and relative squares")
    vertices = tuple(u.coords for u in emb.vertex_classes)
    fiber = None if chain.is_linear() else emb.ambient.marked_class("T").coords
    return _chain_plan(emb.ambient.lattice, vertices, chain, fiber)


@dataclass(eq=False)
class _ChainPlan:
    """What the vertex classes (coordinates ``vertices``) of ``chain`` in
    ``lattice`` determine, with ``fiber`` the fiber T for a tree, else None.

    The ``report`` of ``verify_embedding`` and the vertex ``images`` are
    built with the plan, the blowdown ``geometry`` on first use, and nothing
    else is kept.  A failed check raises on every call, unkept."""

    lattice: IntersectionLattice
    vertices: tuple[tuple[int, ...], ...]
    chain: PlumbingChain
    fiber: tuple[int, ...] | None

    def __post_init__(self):
        chain = self.chain
        self.images = [gram_image(HomologyClass._trusted(self.lattice, u)) for u in self.vertices]
        realized = [[dot(u, image) for image in self.images] for u in self.vertices]
        entries: list[tuple[str, bool]] = []
        expected = chain.matrix()
        entries.append((f"configuration size {chain.size}", len(realized) == chain.size))
        common = min(len(realized), chain.size)
        for i in range(common):
            for j in range(i, common):
                ok = realized[i][j] == expected[i][j]
                kind = "self-intersection" if i == j else "pairing"
                entries.append(
                    (f"vertex {kind} ({i},{j}): expected {expected[i][j]}, got {realized[i][j]}", ok)
                )
        if not chain.is_linear():
            entries.append(("tree adjacency: central vertex with three length-2 legs",
                            _is_three_leg_star(chain)))
            for i, image in enumerate(self.images):
                entries.append((f"vertex {i} orthogonal to the fiber", dot(self.fiber, image) == 0))
        self.report = EmbeddingReport(all(ok for _, ok in entries), tuple(entries))

    @cached_property
    def geometry(self):
        """(M, columns of P, divisor, (b+, b-) of M) for ``chain`` =
        cp_chain(p): the unimodular overlattice M of the orthogonal complement
        C, unnamed, with basis c0, c1, ...; and the integer matrix P with
        M-coordinates of an ambient class k equal to k P / divisor."""
        p = self.chain.size + 1
        complement = orthogonal_complement(
            self.lattice, [HomologyClass._trusted(self.lattice, u) for u in self.vertices])
        gram_c = complement.gram
        # nondegenerate, as the ambient form and the verified chain form both are
        det_c, adj_c = bareiss_adjugate(gram_c)
        if abs(det_c) != p * p:
            raise EmbeddingError(
                f"complement discriminant is not p^2 = {p * p}; "
                "the configuration is not primitively embedded"
            )
        basis = _overlattice_basis(det_c, adj_c, p)
        # the overlattice vectors are basis / den, so their Gram is B G B^T / den^2
        den2 = det_c * det_c
        scaled = matmul(matmul(basis, gram_c), transpose(basis))
        if any(x % den2 for row in scaled for x in row):
            raise EmbeddingError("overlattice pairing is not integral")
        gram_m = freeze(tuple(x // den2 for x in row) for row in scaled)
        # nonsingular, as M contains the nondegenerate C with finite index
        if abs(bareiss_adjugate(gram_m)[0]) != 1:
            raise EmbeddingError("overlattice is not unimodular")
        # symmetric as gram_c is, and nondegenerate as unimodular: built trusted
        lattice_m = IntersectionLattice._trusted(tuple(f"c{i}" for i in range(len(gram_m))), gram_m)
        # k pairs with C as k G W^T (W the complement rows), so its
        # M-coordinates are k G W^T adj_c adj_b / divisor (B adj_b = det_b I):
        # P = G W^T adj_c adj_b, kept by columns as adj_b^T adj_c (W G)
        det_b, adj_b = bareiss_adjugate(basis)
        images_c = [gram_image(w) for w in complement.vectors]
        columns = matmul(matmul(transpose(adj_b), adj_c), images_c)
        return lattice_m, columns, det_b if det_c > 0 else -det_b, signature_and_betti(lattice_m)


def _push_down(coords, columns, divisor) -> tuple[int, ...] | None:
    """M-coordinates k P / divisor of the ambient class k, or None if k does not descend."""
    image = [dot(coords, c) for c in columns]
    return None if any(x % divisor for x in image) else tuple(x // divisor for x in image)


# one plan per (ambient lattice, vertex coordinates, chain, fiber)
_chain_plan = lru_cache(maxsize=64)(_ChainPlan)


def _transfer(plan: _ChainPlan, support: _Support):
    """The blowdown's record of each class of ``support``: None unless its
    restriction has relative square -(p - 1), with p - 1 the chain's size,
    else (its M-coordinates under ``plan.geometry`` or None if it does not
    descend, whether they are characteristic, their square), kept in the
    support's ``blowdown`` slot with ``plan`` and no period."""
    lattice_m, columns, divisor, _ = plan.geometry
    target = -plan.chain.size
    kept = []
    for coords in support.coords:
        if relative_square(plan.chain, [dot(coords, image) for image in plan.images]) != target:
            kept.append(None)
        elif (pushed := _push_down(coords, columns, divisor)) is None:
            kept.append((None, False, None))
        else:
            k = HomologyClass._trusted(lattice_m, pushed)
            kept.append((pushed, is_characteristic(k), dot(pushed, gram_image(k))))
    records = tuple(kept)
    support.blowdown = plan, records, None, None, None
    return records


def rational_blowdown(
    X: FourManifoldModel,
    emb: ConfigurationEmbedding,
    H: Chamber,
    *,
    simply_connected: bool,
    pi1_note: str = "",
    name: str | None = None,
) -> FourManifoldModel:
    """Replace an embedded order-p chain by the rational ball it bounds.

    The chain's p - 1 vertices fix p = ``emb.size + 1``.  First checked: the
    embedding's explicit vertex classes realize cp_chain(p), and the period
    class H (of positive square, as every Chamber) is orthogonal to every
    vertex.  The new lattice is the unimodular overlattice of the orthogonal
    complement of the vertices; euler drops by p - 1, sign rises by p - 1,
    and the SW table transfers through the characteristic lifts among X's
    basic classes (relative square -(p - 1) on cp_chain(p)), evaluated in
    the chamber of H (wall crossing included by chamber_sw).  Simple
    connectivity is supplied by the caller with a justification note.

    The report and geometry come from the plan of the vertices as cp_chain(p)
    (``_chain_plan``).  X's support keeps, in one slot read once and written
    whole after every check passed, what its last blowdown proved: per plan,
    the transfer records (``_transfer``) and the new support, taken again
    for the same classes and square; per plan and period, the period's
    orthogonality and push-down h.  The chamber values, the checks and the
    model are per call.
    """
    p = emb.size + 1
    plan = _plan(emb, cp_chain(p))
    if not plan.report.ok:
        raise EmbeddingError("embedding does not realize the blowdown chain: "
                             + "; ".join(plan.report.failures()))
    require_same_lattice(H.period.lattice, emb.ambient.lattice)
    support, period = X.sw._support, H.period.coords
    slot = support.blowdown  # read once, so another call's write cannot slip in
    same_plan = slot[0] is plan
    same_period = same_plan and slot[2] == period
    if not same_period and any(dot(period, image) for image in plan.images):
        raise ValueError("period class must be orthogonal to every vertex class")
    if not same_lattice(X.lattice, emb.ambient.lattice):
        raise LatticeMismatchError("the vertex classes must live in the model's lattice")

    lattice_m, columns, divisor, (b_plus, b_minus) = plan.geometry
    new_name = name or f"{X.name}_blowdown{p}"
    new_lattice = IntersectionLattice._trusted(lattice_m.basis, lattice_m.gram, new_name,
                                               rows=lattice_m.rows)
    euler, sign = X.euler - (p - 1), X.sign + (p - 1)
    if sign != b_plus - b_minus:
        raise ValueError(f"sign {sign} != b+ - b- = {b_plus - b_minus}")
    if simply_connected and euler != 2 + new_lattice.rank:
        raise ValueError(f"closed simply connected model needs euler = 2 + rank, got {euler}")
    # built trusted: the plan proved which classes descend, are characteristic
    # in M and their squares, which give d >= 0 and even; closure under
    # negation is checked, as chamber values need not be antisymmetric
    shift = 3 * sign + 2 * euler
    records = slot[1] if same_plan else _transfer(plan, support)
    entries, squares = {}, set()
    for (coords, _), lift in zip(X.sw.entries, records):
        if lift is not None:
            value = chamber_sw(X, HomologyClass._trusted(X.lattice, coords), H)
            if value != 0:
                pushed, characteristic, k2 = lift
                if pushed is None:
                    raise EmbeddingError(f"class {coords} does not descend to the new lattice")
                if not characteristic:
                    raise ValueError(f"SW class {pushed} is not characteristic")
                # k2 - shift is the ambient's k^2 - shift: only unchecked input fails here
                if k2 < shift or (k2 - shift) % 8:
                    raise ValueError(f"SW class {pushed} has d = {Fraction(k2 - shift, 4)}; need d >= 0 and even")
                entries[pushed] = value
                squares.add(k2)
    if any(abs(entries.get(tuple(-x for x in c), 0)) != abs(v) for c, v in entries.items()):
        raise ValueError("SW table must be closed under negation with equal magnitude")
    coords = tuple(sorted(entries))
    common = squares.pop() if len(squares) == 1 else None
    child = slot[4] if same_plan else None
    # under one plan equal coordinates have equal squares, so equal supports
    if child is None or child.coords != coords:
        child = _Support(coords, common)
    table = SWTable._trusted(new_lattice, child, map(entries.__getitem__, coords),
                             X.sw.convention_note)
    h = slot[3] if same_period else _push_down(period, columns, divisor)
    if h is None:
        raise EmbeddingError(f"class {period} does not descend to the new lattice")
    support.blowdown = plan, records, period, h, child
    return FourManifoldModel._trusted(new_name, new_lattice, euler, sign, simply_connected,
                                      (("h", h),), table, pi1_note)
