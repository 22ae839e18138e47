"""PGL_n(F_q) on forms, for prime q, without listing PGL.

X = PGL / H is the nondegenerate forms of H's kind up to scalars, under
B -> g B g^T.  form_orbit reaches X from a standard form by generators of
GL_n.  #(H1 \\ PGL / H2) is the number of H2-orbits on X for H1, joined by
union-find over generators of H2.
"""

from __future__ import annotations

import sys
from array import array
from itertools import product as iter_product

from .errors import InvariantViolation
from .oracle import Matrix, _inverse, _mat_mul, _scale, _transpose, orders


def orbits_on_forms(q: int, n: int, kind1: str, kind2: str) -> int:
    """The number of H2-orbits on X, the forms of kind 1 up to scalars.

    X = PGL / H1 comes from form_orbit.  The H2-orbits are joined by
    union-find over generators of H2, each checked to scale the standard
    form of kind 2.
    """
    space, keys = form_orbit(q, n, kind1)
    return _count_orbits(space, keys, _stabilizer_generators(q, n, kind2, _primitive_root(q)))


def _primitive_root(q: int) -> int:
    """The least generator of F_q^* for prime q."""
    factors, rest, d = [], q - 1, 2
    while d * d <= rest:
        if rest % d == 0:
            factors.append(d)
            while rest % d == 0:
                rest //= d
        d += 1
    if rest > 1:
        factors.append(rest)
    return next(g for g in range(2, q) if all(pow(g, (q - 1) // f, q) != 1 for f in factors))


def _block_diagonal(blocks: list[Matrix]) -> Matrix:
    n = 2 * len(blocks)
    out = [[0] * n for _ in range(n)]
    for k, block in enumerate(blocks):
        for i in range(2):
            for j in range(2):
                out[2 * k + i][2 * k + j] = block[i][j]
    return tuple(tuple(row) for row in out)


def _standard_form(q: int, n: int, kind: str, delta: int) -> Matrix:
    """Symplectic or hyperbolic planes; for pgo- the last plane is x^2 - delta y^2."""
    plane = ((0, 1), (q - 1, 0)) if kind == "pgsp" else ((0, 1), (1, 0))
    blocks = [plane] * (n // 2)
    if kind == "pgo-":
        blocks[-1] = ((1, 0), (0, -delta % q))
    return _block_diagonal(blocks)


def _similitude(q: int, n: int, kind: str, delta: int) -> tuple[Matrix, int]:
    """A similitude of the standard form with a non-square multiplier mu."""
    if kind != "pgo-":
        return _block_diagonal([((delta, 0), (0, 1))] * (n // 2)), delta
    # ((a, 1), (delta, a)) scales x^2 - delta y^2 by a^2 - delta, a norm from F_q^2.
    a = next(a for a in range(q) if pow(a * a - delta, (q - 1) // 2, q) == q - 1)
    mu = (a * a - delta) % q
    blocks = [((mu, 0), (0, 1))] * (n // 2 - 1) + [((a, 1), (delta, a))]
    return _block_diagonal(blocks), mu


def _stabilizer_generators(q: int, n: int, kind: str, delta: int):
    """Yield generators of the stabiliser in PGL of the standard form's class.

    Sp is generated by the symplectic transvections I + a u (B^-T u)^T, O by
    the reflections I - (2/s) u (B^-1 u)^T with s = u^T B^-1 u != 0
    (Cartan-Dieudonne); one similitude with a non-square multiplier adds the
    rest of the class stabiliser.  Each generator is checked to scale B.
    """
    form = _standard_form(q, n, kind, delta)
    inverse = _inverse(form, q)
    if kind == "pgsp":
        inverse = _transpose(inverse)
    for u in _projective_points(q, n):
        w = [sum(r * x for r, x in zip(row, u)) % q for row in inverse]
        if kind == "pgsp":
            scales = (1, delta)
        else:
            s = sum(x * y for x, y in zip(u, w)) % q
            if not s:
                continue
            scales = (-2 * pow(s, q - 2, q) % q,)
        for a in scales:
            g = tuple(
                tuple((int(i == j) + a * u[i] * w[j]) % q for j in range(n)) for i in range(n)
            )
            yield _check_scales(g, form, 1, q)
    g, mu = _similitude(q, n, kind, delta)
    yield _check_scales(g, form, mu, q)


def _projective_points(q: int, n: int):
    for lead in range(n):
        for tail in iter_product(range(q), repeat=n - lead - 1):
            yield (0,) * lead + (1,) + tail


def _check_scales(g: Matrix, form: Matrix, mu: int, q: int) -> Matrix:
    if _mat_mul(_mat_mul(g, form, q), _transpose(g), q) != _scale(form, mu, q):
        raise InvariantViolation(f"generator {g} does not scale the form {form} by {mu}")
    return g


# Byte width -> array typecode, widths ascending, to pack and unpack ints at C speed.
_ARRAY_CODES = {array(code).itemsize: code for code in "BHILQ"}


class _FormSpace:
    """Symmetric or skew forms as coefficient keys; sets of them packed in ints.

    A form's key packs its upper-triangle coefficients (strictly upper for
    skew forms), `bits` bits each.  A list of forms is held as one int per
    coefficient, with a slot of `width` bytes per form, so that g acting as a
    linear map on coefficients costs a few big-int operations per entry of
    that map, whatever the number of forms.
    """

    def __init__(self, q: int, n: int, skew: bool):
        self.q = q
        self.slots = [(i, j) for i in range(n) for j in range(i + skew, n)]
        self.sign = -1 if skew else 1
        self.bits = q.bit_length()
        top = (len(self.slots) * (q - 1) ** 2).bit_length()  # an unreduced coefficient
        # v // q == v * magic >> shift for v < 2^top, and v * magic < 2^(2 top + 1).
        self.shift = top + self.bits
        self.magic = -(-(1 << self.shift) // q)
        width = -(-max(2 * top + self.bits, len(self.slots) * self.bits) // 8)
        self.width = next((w for w in _ARRAY_CODES if w >= width), width)

    def key(self, form: Matrix) -> int:
        return sum(form[i][j] % self.q << self.bits * k for k, (i, j) in enumerate(self.slots))

    def normal(self, key: int) -> int:
        """The key of the multiple whose first nonzero coefficient is 1."""
        q, bits, mask = self.q, self.bits, (1 << self.bits) - 1
        lead = ((key & -key).bit_length() - 1) // bits * bits
        scale = pow(key >> lead & mask, q - 2, q)
        end = len(self.slots) * bits
        return sum((key >> s & mask) * scale % q << s for s in range(lead, end, bits))

    def linear_map(self, g: Matrix) -> list[list[int]]:
        """The coefficients of g B g^T as a matrix acting on those of B."""
        q, sign = self.q, self.sign
        return [
            [
                (g[i][k] * g[j][l] + sign * g[i][l] * g[j][k] if k != l else g[i][k] * g[j][k]) % q
                for k, l in self.slots
            ]
            for i, j in self.slots
        ]

    def _pack(self, keys: list[int]) -> bytes:
        if self.width not in _ARRAY_CODES:
            return b"".join(k.to_bytes(self.width, "little") for k in keys)
        packed = array(_ARRAY_CODES[self.width], keys)
        if sys.byteorder == "big":
            packed.byteswap()
        return packed.tobytes()

    def _unpack(self, raw: bytes) -> list[int]:
        w = self.width
        if w not in _ARRAY_CODES:
            return [int.from_bytes(raw[x : x + w], "little") for x in range(0, len(raw), w)]
        keys = array(_ARRAY_CODES[w])
        keys.frombytes(raw)
        if sys.byteorder == "big":
            keys.byteswap()
        return keys.tolist()

    def images(self, keys: list[int], maps):
        """Yield, for each coefficient map, the list of the keys' images."""
        q, bits, w, count = self.q, self.bits, self.width, len(keys)
        ones = int.from_bytes((b"\1" + bytes(w - 1)) * count, "little")
        low = ones * ((1 << bits) - 1)
        floor_mask = ones * ((1 << 8 * w - self.shift) - 1)
        packed = int.from_bytes(self._pack(keys), "little")
        columns = [packed >> bits * k & low for k in range(len(self.slots))]
        for matrix in maps:
            out = 0
            for k, row in enumerate(matrix):
                t = sum(c * col for c, col in zip(row, columns) if c)
                t -= q * (t * self.magic >> self.shift & floor_mask)
                out |= t << bits * k
            yield self._unpack(out.to_bytes(w * count, "little"))


def form_orbit(q: int, n: int, kind: str) -> tuple[_FormSpace, list[int]]:
    """X = PGL / H, the forms of the kind up to scalars, as normal keys.

    PGL acts by B -> g B g^T, so X is the orbit of the kind's standard form,
    found by breadth-first search over generators of GL_n(F_q):
    diag(delta, 1, ..., 1), delta primitive, and the elementary matrices
    I + E_ij.  Its size is checked against the index of H.
    """
    delta = _primitive_root(q)  # also a non-square
    space = _FormSpace(q, n, skew=kind == "pgsp")
    gens = [_identity_but(n, 0, 0, delta)]
    gens += [_identity_but(n, i, j, 1) for i in range(n) for j in range(n) if i != j]
    maps = [space.linear_map(g) for g in gens]
    keys = [space.normal(space.key(_standard_form(q, n, kind, delta)))]
    seen = set(keys)
    frontier = keys[:]
    while frontier:
        found = []
        for image in space.images(frontier, maps):
            for key in image:
                if key not in seen:  # a normal key is often already normal
                    key = space.normal(key)
                    if key not in seen:
                        seen.add(key)
                        found.append(key)
        keys += found
        frontier = found
    index = orders(q, n).index_of(kind)
    if len(keys) != index:
        raise InvariantViolation(f"{len(keys)} forms of kind {kind}, but its index is {index}")
    return space, keys


def _identity_but(n: int, i: int, j: int, value: int) -> Matrix:
    """The identity matrix with entry (i, j) set to value."""
    return tuple(
        tuple(value if (r, c) == (i, j) else int(r == c) for c in range(n)) for r in range(n)
    )


def _scalings(q: int, size: int):
    """The maps c * I on coefficients, c = 1, ..., q - 1."""
    for c in range(1, q):
        yield [[c * (r == k) for k in range(size)] for r in range(size)]


def _count_orbits(space: _FormSpace, keys: list[int], generators) -> int:
    """The number of orbits of the generated group on the classes, by union-find.

    root[x] is the least class joined to x so far.  Each generator is read
    as the set of distinct (root of x, root of g.x) pairs, so once the
    orbits are few a generator costs a few passes at C speed.  The loop
    stops early once a single orbit is left.
    """
    if len(keys) == 1:
        return 1
    # The key of every multiple of every class, to its class number.
    classes: dict[int, int] = {}
    for image in space.images(keys, _scalings(space.q, len(space.slots))):
        classes.update(zip(image, range(len(keys))))
    parent = list(range(len(keys)))
    root = parent[:]
    orbits = len(keys)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    maps = (space.linear_map(g) for g in generators)
    for image in space.images(keys, maps):
        if orbits == 1:
            break
        try:
            moved = list(map(root.__getitem__, map(classes.__getitem__, image)))
        except KeyError:
            raise InvariantViolation("a generator maps a form out of its class orbit") from None
        if moved == root:
            continue
        pairs = set(zip(root, moved))
        for a, b in pairs:
            a, b = find(a), find(b)
            if a != b:
                parent[max(a, b)] = min(a, b)
                orbits -= 1
        for a, b in pairs:
            parent[a], parent[b] = find(a), find(b)
        root = list(map(parent.__getitem__, root))
    return orbits
