"""Minimal free resolutions of the trivial module over F_p[G].

For a p-group G the group algebra F_p[G] is local with the augmentation
ideal as radical, so the trivial module has a minimal free resolution
and the rank of its n-th term equals dim H^n(G; F_p).  The construction
is the standard one: compute the kernel of the current boundary as a
plain F_p-subspace, read a minimal generating set off its radical (the
(g-1)-translates over a generating set of G, in the kernel's own
coordinates), and let those generators define the next boundary.  Each
degree is certified: the boundary is an F_p[G]-map (the translation
table it is assembled through is certified once per group to be the
table of a group law), the composite is zero, the complex is exact below
the top degree (at the top the kernel basis is checked to lie in the
kernel, by one product) and every boundary entry lies in the
augmentation ideal.

Free modules are row-indexed by (basis index, group element index) with
the element order frozen by the canonical element table.  Boundary n acts
on column vectors and is an F_p[G]-map, so it is fixed by the images of
its beta_n free generators: it is stored as those generator columns, the
F_p-matrix of shape (beta_{n-1}*|G|, beta_n).  The rows of the whole
(beta_{n-1}*|G|, beta_n*|G|) matrix that an elimination reads are
assembled from them by :func:`_assemble_boundary`.

Resolutions are cached on disk (one directory per group, boundaries as
``.fpmx`` files plus a manifest of the Betti numbers and the free rows
of the top kernel, which a deeper run resumes on), and
:func:`verify_theorem` compares
the Betti vectors across the levels of a quotient family.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import os
import shutil

import numpy as np

from . import kernels
from .errors import BudgetError
from .fpmat import FpMatrix
from .groups import enumerate_group
from .spacegroup import SpaceGroupParams, b3r, quotient_group

RESOLUTION_ORDER_BUDGET = 729
RESOLUTION_MATRIX_BUDGET = 20000
CACHE_VERSION = 5
# Entries per block (kernels.row_blocks) when the group table is certified
# and when boundary rows are gathered from it.
_TABLE_BLOCK = 1 << 16


class GroupAlgebraContext:
    """The one m x m table of F_p[G] computations, gather[r, g] = index of
    g^-1 * r: left translation by g sends the coefficient at g^-1*r to
    position r.  :func:`_group_tables` builds it from the enumeration's
    products by a walk over S, so the group law is read once per
    (element, generator) pair, and :func:`_certify_gather` certifies the
    table that is stored.

    ``gens`` holds the element indices of the generating set S of
    :func:`_reaching_subset`, the set the walk and every translation use."""

    __slots__ = ("p", "m", "gens", "gather")

    def __init__(self, group, table=None, budget=RESOLUTION_ORDER_BUDGET):
        _check_order(group, budget)
        p = group.p
        if not any(p ** k == group.order for k in range(group.order.bit_length())):
            raise ValueError(f"order {group.order} is not a power of p={p}")
        if table is None:
            table = enumerate_group(group, budget)
        self.p = p
        self.m = len(table)
        ks = _reaching_subset(table)
        self.gens = tuple(table.index[table.generators[k]] for k in ks)
        self.gather = _group_tables(group, table, ks)
        _certify_gather(self.gather, table, ks)


def _check_order(group, budget):
    """Raise BudgetError if the order of ``group`` exceeds the resolution
    ``budget`` (None for no budget)."""
    if budget is not None and group.order > budget:
        raise BudgetError(
            f"group order {group.order} exceeds resolution budget {budget}",
            order=group.order, budget=budget)


def _group_tables(group, table, ks):
    """gather[r, g] = index of g^-1 * r in ``table``'s order, by a walk.

    The products right[k][a] = index of a*g_k are the enumeration's
    (``table.right``): the law is read here only for the m inverses,
    which are row e of gather.  Walking the elements breadth-first from
    the identity over the columns ``ks`` of S alone, each newly reached
    b = a*s gets its whole row in one gather, gather[b] = right_s[gather[a]],
    because g^-1 (a s) = (g^-1 a) s.  That is the one m x m table.

    Raises AssertionError unless (R) the walk reached every element, the
    one fact of the certificate that is read off the walk rather than
    off the table (:func:`_certify_gather` checks the others).
    """
    elements, index, walk = table.elements, table.index, table.right[ks]
    m = len(elements)
    e = index[group.identity]
    gather = np.empty((m, m), dtype=np.int32)
    gather[e] = [index[group.inv(a)] for a in elements]
    reached = np.zeros(m, dtype=bool)
    reached[e] = True
    queue = [e]
    for a in queue:
        for col in walk:
            b = col[a]
            if not reached[b]:
                reached[b] = True
                # indices are in range, so no bounds check ("clip"), which
                # takes without an intermediate buffer
                np.take(col, gather[a], out=gather[b], mode="clip")
                queue.append(b)
    if len(queue) != m:
        raise AssertionError("generators do not reach every element")
    return gather


def _certify_gather(gather, table, ks):
    """Raise AssertionError unless ``gather`` is gather[r, c] = c^-1 r for
    the group that ``table`` enumerates, given that the columns ``ks`` of
    ``table.right`` (the set S) reach every element, (R) of
    :func:`_group_tables`.  With e = 0, the identity (:class:`ElementTable`
    puts it first), and inv(c) = gather[e, c], the checks are
    (Inv) row e is a permutation: one sort of m entries;
    (A) gather[r*s] = right_s[gather[r]] for every r and s in S, i.e.
        x(rs) = (xr)s: |S| m^2 entries, read in blocks of rows of at most
        ``_TABLE_BLOCK`` entries (:func:`kernels.row_blocks`), so the
        temporaries stay that small;
    (I) the diagonal is e, i.e. inv(r)*r = e: O(m);
    (X) gather[a*g_k, a] = g_k for every a and every table generator g_k,
        i.e. a^-1 (a g_k) = g_k: one comparison of m entries per generator.

    Together they certify the whole group law.  By (R) every element is
    w(e) for a word w in the right_s, and by (A) each column commutes
    with every right_s, so column c sends w(e) to w(inv(c)).  By (Inv)
    every x is inv(c) for some c, so if w(e) = w'(e) then
    w(x) = gather[w(e), c] = gather[w'(e), c] = w'(x): x*y = w(x) for any
    word w with w(e) = y is well defined.  It is associative, with
    identity e, and column c is left multiplication by inv(c); (I) gives
    left inverses, so the law is a group.  In a group, (X) is the
    statement a*(b*g) = (a*b)*g for g = g_k (put b = e one way, use
    associativity the other), so every right[k] is right multiplication
    by g_k, a corrupted product outside S included, and the table is the
    group the columns generate whatever path the walk took.  (A) takes
    its indices without a bounds check ("clip"), which loses nothing: an
    entry outside 0..m-1 fails (Inv) in row e, and (A) in every other
    row, a*s for some a by (R), whose entries it equates with entries
    of right_s.

    In that group every column is a permutation, and
    gather[gather[r, g], gather[c, g]] = (g^-1 c)^-1 (g^-1 r) = gather[r, c],
    which is equivariance, certified once per group instead of once per
    boundary.  :func:`_assemble_boundary` puts vecs[b*m + gather[r, c], t]
    at (b*m + r, t*m + c), and left translation by g moves row b*m + r to
    b*m + gather[r, g] and column t*m + c to t*m + gather[c, g], so the
    translated entry is the entry itself: every boundary assembled from
    any generator columns is an F_p[G]-map, and its kernel a submodule.
    """
    m = len(gather)
    e = 0
    if not np.array_equal(np.sort(gather[e]), np.arange(m)):
        raise AssertionError("row e of gather (the inverses) is not a permutation")
    # each comparison gathers two blocks of rows, so a row holds 2m entries
    blocks = list(kernels.row_blocks(m, 2 * m, _TABLE_BLOCK))
    lhs = np.empty((blocks[0].stop, m), dtype=gather.dtype)  # no block is longer
    rhs = np.empty_like(lhs)
    for col in table.right[ks]:
        for blk in blocks:
            n = blk.stop - blk.start
            np.take(gather, col[blk], axis=0, out=lhs[:n], mode="clip")
            np.take(col, gather[blk], out=rhs[:n], mode="clip")
            if not np.array_equal(lhs[:n], rhs[:n]):
                raise AssertionError("x*(r*s) != (x*r)*s for a generator s in S")
    if (np.diagonal(gather) != e).any():
        raise AssertionError("inv(r)*r is not the identity")
    for k, col in enumerate(table.right):
        if (gather[col, np.arange(m)] != table.index[table.generators[k]]).any():
            raise AssertionError(f"a^-1*(a*g_k) != g_k for table generator k = {k}")


def _reaching_subset(table):
    """The columns k of ``table.right`` (table generators g_k) with each
    one dropped that the others still generate without.

    The result is an irredundant generating set S, so for a p-group it
    has d(G) = Frattini rank elements (Burnside basis theorem).
    :func:`_group_tables` walks and certifies the table over S alone, and
    the resolution translates by it: rad K is the sum of (g-1)K over any
    generating set, and equivariance under a generating set makes a map
    F_p[G]-linear.
    """
    right = table.right.tolist()
    # when all of them do not reach every element nothing is dropped, and
    # the walk over the result refuses the table
    ks = list(range(len(right)))
    for k in range(len(right)):
        rest = [j for j in ks if j != k]
        seen, queue = {0}, [0]
        for a in queue:
            for h in (right[j][a] for j in rest):
                if h not in seen:
                    seen.add(h)
                    queue.append(h)
        if len(seen) == len(table):
            ks = rest
    return ks


class Resolution:
    """Betti numbers beta_0..beta_N plus the boundaries d_1..d_N, each
    stored as its generator columns (``boundaries[n - 1]`` is the
    (beta_{n-1}*|G|, beta_n) matrix of d_n), and ``free``, the ascending
    free rows F of K_{N-1} = ker d_{N-1}: the rows of d_N that the next
    kernel is taken on ([0], the one row of the augmentation, at N = 0)."""

    __slots__ = ("key", "p", "max_degree", "betti", "boundaries", "free")

    def __init__(self, key, p, max_degree, betti, boundaries, free):
        self.key = key
        self.p = p
        self.max_degree = max_degree
        self.betti = list(betti)
        self.boundaries = list(boundaries)
        self.free = np.asarray(free, dtype=np.intp)


def _top_kernel_dim(betti, m):
    """k_{N-1} = dim ker d_{N-1} for Betti numbers beta_0..beta_N, by
    exactness of the degrees below N: k_{-1} = 1 (the image of the
    augmentation) and k_j = beta_j |G| - k_{j-1}."""
    k = 1
    for beta in betti[:-1]:
        k = beta * m - k
    return k


def resolution_cache_key(descriptor):
    blob = json.dumps(descriptor, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def minimal_resolution(group, max_degree, *, start=None, table=None,
                       budget_order=RESOLUTION_ORDER_BUDGET,
                       budget_matrix=RESOLUTION_MATRIX_BUDGET):
    """Minimal free resolution of F_p over F_p[G] through ``max_degree``.

    ``start``, a :class:`Resolution` of the same group through degree
    N <= ``max_degree`` (a cache entry), is continued from its top
    boundary d_N at the stored free rows F of K_{N-1}: only degrees
    N+1..max_degree are computed.  A cold run is the same loop started
    from the degree-0 state (beta = [1], no boundaries, d_0 the
    augmentation, whose one row is F).  The result carries the F of its
    own top, so a resumed run takes the same kernels as a cold one.

    Per degree n, K = ker d_n is computed as an F_p-space in the standard
    basis of :meth:`FpMatrix.kernel`, which is the identity on the free
    rows F (the non-pivot columns of rref(d_n)), so a vector of K has its
    K-coordinates there.  The kernel step returns F with the basis, as the
    elimination's set of non-pivot columns, so the basis is never rescanned
    for it.  The elimination runs on d_n[F], the rows of d_n at the free
    rows F of K_{n-1} = ker d_{n-1} (d_0 has one row).  That
    gives the same K, not a bound on it: the composite check (below) puts
    every column of d_n in K_{n-1}, and K_{n-1} is the identity on F, so
    d_n = K_{n-1} d_n[F].  K_{n-1} has full column rank, so d_n and
    d_n[F] have the same rank, the same kernel and, having the same row
    space, the same reduced echelon form.  At the first degree of a
    resumed run, whose F is read from the entry, the rank comparison
    (below) proves the same.  Those rows are all of d_n that is ever
    built: the resolution keeps each boundary as its generator columns,
    and :func:`_assemble_boundary` makes d_n[F] from them, so the top
    boundary of a run is never assembled.  With S a generating set of G
    (:func:`_reaching_subset`), rad K is the sum of (g-1)K over g in S,
    and restricting to the free rows is injective on K.  The heads are
    the coordinates j with e_j outside rad K + span(e_i, i < j): they
    span K modulo rad K, and they become the free generators of the next
    term.  Let R be the matrix whose rows are the vectors (g-1)e_j in
    K-coordinates, so that rad K is its row space.  Read from the dual
    side, j is a head exactly when some functional vanishing on rad K, a
    vector of ker R, has its first nonzero entry at j.
    :func:`kernels.heads_u8` finds these leading positions, at every p,
    without a row reduction: the rows of R that end at distinct
    coordinates form a triangular system, whose solution B over the other
    coordinates C carries the question to the smaller matrix (the
    remaining rows) B.

    Each fact is checked once, in the cheapest form that proves it:

    * equivariance: once per group, when the context is built
      (:func:`_certify_gather`): the table is certified to be
      gather[r, c] = c^-1 r for a group law, in which every boundary
      assembled from generator columns commutes with left translation by
      each g in S; S generates G, so every boundary is an F_p[G]-map and
      every ker d_n a submodule;
    * composite: for F_p[G]-maps, d_n d_{n+1} = 0 exactly when it holds on
      the beta_{n+1} generator columns of d_{n+1}, a product |G| times
      smaller than the whole one.  It is taken with d_n[F], the matrix
      whose kernel was just computed: the previous degree's certificate
      gives d_n = K_{n-1} d_n[F], and K_{n-1} has full column rank, so
      d_n v = 0 exactly when d_n[F] v = 0 (at a resumed first degree,
      because ker d_N[F] = ker d_N, by the rank comparison);
    * exactness below the top: rank d_n = cols - dim K must equal
      dim ker d_{n-1} (1 for the augmentation, whose image is F_p); with
      the composite this gives im d_n = ker d_{n-1}, however the heads
      were picked;
    * the kernel at the top degree n = N - 1: K is the identity on its
      free rows (k nonzero entries there, each a 1 on the diagonal), and
      d_n[F] K = 0, so d_n K = 0 as for the composite; the product is
      taken as d_n[F][:, rest] K[rest] = -d_n[F][:, free] over the other
      rows of K alone (:meth:`FpMatrix.annihilates`, packed at p = 2);
    * minimality: every generator column has zero augmentation in each
      block of |G| rows, and so has every translate of one, i.e. every
      entry of the boundary, which is what makes
      beta_n = dim H^n(G; F_p);
    * heads: each round of :func:`kernels.heads_u8` checks L B = 0 mod p
      for its triangular rows L, which with B[C] = I (true by
      construction) proves that round's reduction, so the head set is the
      exact one, at every degree and for every p;
    * a resumed top d_N is re-certified before it is extended: d_{N-1},
      assembled in full (d_0 is the augmentation), must vanish on the
      generator columns of d_N, which must have zero augmentation, and
      its kernel is taken on d_N[F] at the stored free rows F.  Exactness
      of the certified lower degrees gives dim ker d_{N-1} = k_{N-1}
      (:func:`_top_kernel_dim`), and the composite gives
      rank d_N[F] <= rank d_N <= k_{N-1}, so the rank comparison at
      degree N, rank d_N[F] = k_{N-1}, proves ker d_N[F] = ker d_N and
      im d_N = ker d_{N-1} whatever F the entry holds: a wrong F fails
      the comparison or gives the same reduced echelon form, kernel and
      bytes.  Its equivariance is the context's.

    The top degree differs because the top boundary d_N gets no kernel,
    so its exactness is not compared (that would cost one more
    elimination).  There it follows from Nakayama's lemma: the heads span
    K modulo rad K, which the L B check proves, so they generate K and
    im d_N = K.  That argument reads (g-1)K in the coordinates of the K
    the elimination returned, so it needs that K to be ker d_{N-1}, which
    is a submodule.  The top check gives it: K has full rank k, being the
    identity on its free rows, and lies in ker d_{N-1}, by the product;
    dim ker d_{N-1} = k is the elimination's rank, which the rank
    comparison checks against dim ker d_{N-2} at this degree as at every
    lower one.  So K = ker d_{N-1}, and gK lies in K for each g by
    equivariance.  Below the top, the rank comparison at the next degree
    certifies the boundary whatever the heads were.  Neither argument
    changes when the elimination runs on d_n[F]: it returns ker d_n
    itself, by the composite check that d_n passed when it was built, or
    for a resumed top by the rank comparison.
    """
    ctx = GroupAlgebraContext(group, table=table, budget=budget_order)
    p, m = ctx.p, ctx.m
    betti = [1] if start is None else list(start.betti)
    boundaries = [] if start is None else list(start.boundaries)
    free = [0] if start is None else start.free
    if len(boundaries) > max_degree:
        raise ValueError(f"cannot resolve through degree {max_degree} "
                         f"from degree {len(boundaries)}")
    cur = FpMatrix.from_dense(p, np.ones((1, m), dtype=np.uint8))
    if boundaries:
        # a loaded top is re-certified against the whole d_{N-1}; its
        # exactness is the rank comparison at the loop's first degree
        vecs = boundaries[-1].to_dense(copy=False)
        if len(boundaries) > 1:
            cur = _assemble_boundary(ctx, boundaries[-2].to_dense(copy=False))
        _certified_columns(ctx, cur, vecs)
        cur = _assemble_boundary(ctx, vecs, free)
    prev_dim = _top_kernel_dim(betti, m)
    for n in range(len(boundaries), max_degree):
        beta_n = betti[-1]
        if beta_n * m > budget_matrix:
            raise BudgetError(
                f"matrix side {beta_n * m} exceeds budget {budget_matrix} "
                f"at degree {n + 1}",
                side=beta_n * m, budget=budget_matrix, degree=n + 1)
        kd, free = cur.kernel()
        k = free.size
        if cur.cols - k != prev_dim:
            raise AssertionError(
                f"resolution not exact at degree {n - 1}: rank d_{n} = "
                f"{cur.cols - k}, dim ker d_{n - 1} = {prev_dim}")
        prev_dim = k
        top = n == max_degree - 1
        if top:
            _check_top_kernel(cur, kd, free, n)
        # row j of block g: (g-1)e_j in K-coordinates, i.e. g K_j at the
        # rows F less e_j, where (g v)[b*m + r] = v[b*m + gather[r, g]];
        # filled a block of columns at a time: one C-contiguous matrix, no
        # full-size copy
        rad = np.empty((len(ctx.gens), k, k), dtype=np.uint8)
        for g, gen in enumerate(ctx.gens):
            src = (free // m) * m + ctx.gather[free % m, gen]
            for blk in kernels.row_blocks(k, k):
                rad[g, :, blk] = kd[src[blk]].T
        diag = np.arange(k)
        rad[:, diag, diag] = (rad[:, diag, diag].astype(np.int16) - 1) % p
        sel = kernels.heads_u8(rad.reshape(-1, k), p)
        betti.append(len(sel))
        vecs = kd[:, sel]
        boundaries.append(_certified_columns(ctx, cur, vecs))
        if not top:
            cur = _assemble_boundary(ctx, vecs, free)
    return Resolution(resolution_cache_key(group.descriptor), p, max_degree,
                      betti, boundaries, free)


def _check_top_kernel(cur, kd, free, n):
    """Raise AssertionError unless the kernel basis ``kd`` is the identity
    on its rows ``free`` and ``cur`` = d_n[F] vanishes on it.

    The identity is read as kd[free[j], j] = 1 for every j and exactly
    k nonzero entries in the rows ``free``, counted a block of rows at a
    time (:func:`kernels.row_blocks`).  Then
    d_n[F] K = d_n[F][:, rest] K[rest] + d_n[F][:, free], which
    :meth:`FpMatrix.annihilates` takes without the identity rows."""
    k = len(free)
    ones = sum(np.count_nonzero(kd[rows]) for rows in kernels.row_blocks(free, k))
    if ones != k or (kd[free, np.arange(k)] != 1).any():
        raise AssertionError("top kernel basis is not the identity on its free rows")
    if not cur.annihilates(kd, free):
        raise AssertionError(f"top kernel is not inside ker d_{n}")


def _certified_columns(ctx, prev, vecs):
    """The generator columns ``vecs`` of d_n as an :class:`FpMatrix`.
    Raises AssertionError unless ``prev`` @ vecs = 0, with ``prev`` d_{n-1}
    or its rows F (see :func:`minimal_resolution`), and unless every
    vector has zero augmentation in each block of |G| rows, i.e. d_n is
    minimal."""
    cols = FpMatrix.from_dense(ctx.p, vecs)
    if not (prev @ cols).is_zero():
        raise AssertionError("composite of consecutive boundaries is nonzero")
    blocks = vecs.reshape(vecs.shape[0] // ctx.m, ctx.m, vecs.shape[1])
    if (blocks.sum(axis=1) % ctx.p).any():
        raise AssertionError("boundary entry with nonzero augmentation")
    return cols


def _assemble_boundary(ctx, vecs, rows=None):
    """Rows ``rows`` (all of them when None) of the F_p[G]-map whose
    generator columns are ``vecs`` (beta blocks of |G| rows), as an
    :class:`FpMatrix`: column block t holds the left translates of
    vecs[:, t], so entry (b*m + r, t*m + c) is vecs[b*m + gather[r, c], t].
    The rows are gathered a chunk at a time into their final layout, so
    that layout is the one full-size array (the matrix's own data at odd
    p, packed for p = 2), and the index and gathered chunks stay within
    ``_TABLE_BLOCK`` entries (:func:`kernels.row_blocks`).  Entries of
    ``vecs`` are residues, as columns of a kernel basis or of a
    range-checked ``.fpmx`` file, so the odd-p layout is wrapped as it
    is, with no range check and no copy."""
    m = ctx.m
    cols = vecs.shape[1]
    rows = np.arange(vecs.shape[0]) if rows is None else np.asarray(rows)
    block, r = np.divmod(rows, m)
    vt = np.ascontiguousarray(vecs.T)
    out = np.empty((len(rows), cols, m), dtype=np.uint8)
    for j in kernels.row_blocks(len(rows), m, _TABLE_BLOCK):
        # idx[i, c] = b*m + gather[r, c] for row i = b*m + r
        idx = ctx.gather[r[j]] + block[j, None] * m
        out[j] = vt.take(idx, axis=1).transpose(1, 0, 2)
    out = out.reshape(len(rows), cols * m)
    if ctx.p == 2:
        return FpMatrix.from_dense(2, out)
    return FpMatrix(ctx.p, len(rows), cols * m, out)


# ---------------------------------------------------------------------------
# cache

def _cache_paths(cache_dir, key):
    base = os.path.join(cache_dir, key)
    return base, os.path.join(base, "manifest.json"), os.path.join(cache_dir, key + ".lock")


def _read_manifest(path):
    """The manifest at ``path``, or None unless it is a dict of this
    ``CACHE_VERSION`` listing beta_0..beta_maxDegree as JSON integers
    (not floats such as 1.0, not booleans), with beta_0 = 1 and none
    negative, and the free rows of the top kernel as strictly increasing
    JSON integers from 0 on."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(manifest, dict) or manifest.get("version") != CACHE_VERSION:
        return None
    betti, max_degree = manifest.get("betti"), manifest.get("maxDegree")
    if (not isinstance(betti, list) or type(max_degree) is not int
            or len(betti) != max_degree + 1 or betti[:1] != [1]
            or any(type(b) is not int or b < 0 for b in betti)):
        return None
    free = manifest.get("free")
    if (not isinstance(free, list) or any(type(f) is not int for f in free)
            or (free and free[0] < 0)
            or any(a >= b for a, b in zip(free, free[1:]))):
        return None
    return manifest


@contextlib.contextmanager
def _cache_lock(path):
    """Hold an exclusive ``flock`` on ``path`` (created if absent), waiting
    for as long as another process holds it.  The kernel drops the lock
    when its holder's process exits, however it exits, so a lock is never
    stale and never needs stealing."""
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)


def _write_atomic(path, data):
    """Write to a temporary file beside ``path``, then rename it over
    ``path``: readers see the old file or the new one, never a part."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def save_resolution(res, cache_dir, *, first=1):
    """Write boundaries first..max_degree, then the manifest (the Betti
    numbers and the free rows of the top kernel), each atomically: a
    reader that finds a manifest finds every boundary it names.
    Boundaries below ``first`` must already be on disk (an entry that
    ``res`` extends)."""
    base, manifest_path, _ = _cache_paths(cache_dir, res.key)
    os.makedirs(base, exist_ok=True)
    for n, mat in enumerate(res.boundaries[first - 1:], start=first):
        _write_atomic(os.path.join(base, f"{n}.fpmx"), mat.to_bytes())
    manifest = {"betti": res.betti, "free": res.free.tolist(),
                "maxDegree": res.max_degree, "version": CACHE_VERSION}
    _write_atomic(manifest_path,
                  (json.dumps(manifest, sort_keys=True) + "\n").encode())
    return base


def load_resolution(descriptor, cache_dir):
    """Reload a cached resolution, or None if absent, corrupt or
    inconsistent: the manifest must be of this version and list
    beta_0..beta_maxDegree as integers (see :func:`_read_manifest`), its
    free rows must be k_{N-1} = dim ker d_{N-1} rows of d_N (of the one
    row of the augmentation at N = 0), and boundary n must have the shape
    (beta_{n-1}*|G|, beta_n) of its generator columns."""
    key = resolution_cache_key(descriptor)
    base, manifest_path, _ = _cache_paths(cache_dir, key)
    manifest = _read_manifest(manifest_path)
    if manifest is None:
        return None
    betti, max_degree, free = manifest["betti"], manifest["maxDegree"], manifest["free"]
    p, order = descriptor["p"], descriptor["order"]
    top_rows = betti[-2] * order if max_degree else 1
    if len(free) != _top_kernel_dim(betti, order) or (free and free[-1] >= top_rows):
        return None
    boundaries = []
    try:
        for n in range(1, max_degree + 1):
            with open(os.path.join(base, f"{n}.fpmx"), "rb") as fh:
                mat = FpMatrix.from_bytes(fh.read())
            if (mat.p, mat.rows, mat.cols) != (p, betti[n - 1] * order, betti[n]):
                return None
            boundaries.append(mat)
    except (OSError, ValueError):
        return None
    return Resolution(key, p, max_degree, betti, boundaries, free)


def list_cache(cache_dir):
    entries = []
    if not os.path.isdir(cache_dir):
        return entries
    for name in sorted(os.listdir(cache_dir)):
        manifest = _read_manifest(os.path.join(cache_dir, name, "manifest.json"))
        if manifest is not None:
            entries.append({"key": name, "betti": manifest["betti"],
                            "maxDegree": manifest["maxDegree"]})
    return entries


def clear_cache(cache_dir):
    """Remove every entry directory, each under its key's lock, so a run
    that holds an entry finishes with it first.  Lock files stay: a waiter
    and a newcomer must lock the same file."""
    removed = 0
    if not os.path.isdir(cache_dir):
        return removed
    for name in sorted(os.listdir(cache_dir)):
        base, _manifest, lock_path = _cache_paths(cache_dir, name)
        if os.path.isdir(base):
            with _cache_lock(lock_path):
                shutil.rmtree(base, ignore_errors=True)
            removed += 1
    return removed


def betti_numbers(group, max_degree, *, cache_dir=None,
                  budget_order=RESOLUTION_ORDER_BUDGET,
                  budget_matrix=RESOLUTION_MATRIX_BUDGET):
    """Betti numbers beta_0..beta_max_degree, consulting the cache when a
    directory is given.

    The entry is loaded once, under the key's lock: if it is deep enough
    it is the answer, otherwise the resolution continues from it (from
    degree 0 when there is none) and the deeper entry replaces it.  A
    directory that cannot be created or locked is a ValueError."""
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    if cache_dir is None:
        return minimal_resolution(
            group, max_degree, budget_order=budget_order,
            budget_matrix=budget_matrix).betti
    _base, _manifest, lock_path = _cache_paths(
        cache_dir, resolution_cache_key(group.descriptor))
    with contextlib.ExitStack() as held:
        try:
            os.makedirs(cache_dir, exist_ok=True)
            held.enter_context(_cache_lock(lock_path))
        except OSError as exc:
            raise ValueError(f"unusable cache directory {cache_dir}: {exc}") from exc
        cached = load_resolution(group.descriptor, cache_dir)
        if cached is not None and cached.max_degree >= max_degree:
            return cached.betti[:max_degree + 1]
        res = minimal_resolution(
            group, max_degree, start=cached, budget_order=budget_order,
            budget_matrix=budget_matrix)
        save_resolution(res, cache_dir,
                        first=1 if cached is None else cached.max_degree + 1)
        return res.betti


# ---------------------------------------------------------------------------
# theorem verification

def verify_theorem(params, i_max, max_degree, *, family=None, cache_dir=None,
                   budget_order=RESOLUTION_ORDER_BUDGET,
                   budget_matrix=RESOLUTION_MATRIX_BUDGET):
    """Betti vectors of the quotient family through ``max_degree`` for
    levels 0..i_max, with an all-equal verdict.  ``family="b3r"`` runs the
    explicit order-3^r models (r = 3 .. 3 + i_max) instead; they have
    p = 3, x = 1, and ``params`` is not read (callers pass None).  The
    degree is never truncated silently: budget overruns raise, tagged with
    the failing level.  Every level's group is built and its order checked
    against ``budget_order``, in level order, before any level is
    resolved, so a family with an over-budget level resolves and caches
    nothing."""
    if family not in (None, "b3r"):
        raise ValueError(f"unknown family {family!r}")
    if i_max < 0:
        raise ValueError("no level to compare: " + (
            f"r_max = {3 + i_max} < 3" if family == "b3r" else f"i_max = {i_max} < 0"))
    if family == "b3r":
        params = SpaceGroupParams(3, 1)
    groups, levels = [], []
    try:
        for i in range(i_max + 1):
            groups.append(b3r(3 + i) if family == "b3r" else quotient_group(params, i))
            _check_order(groups[-1], budget_order)
        for i, group in enumerate(groups):
            betti = betti_numbers(group, max_degree, cache_dir=cache_dir,
                                  budget_order=budget_order,
                                  budget_matrix=budget_matrix)
            levels.append({"i": i, "order": group.order, "betti": betti})
    except BudgetError as exc:
        # i is the level that raised, in either loop
        raise BudgetError(f"level {i}: {exc}",
                          **{**exc.context, "level": i}) from exc
    all_equal = all(lv["betti"] == levels[0]["betti"] for lv in levels)
    return {
        "identity": "theorem",
        "p": params.p,
        "x": params.x,
        "family": family,
        "maxDegree": max_degree,
        "levels": levels,
        "allEqual": all_equal,
    }
