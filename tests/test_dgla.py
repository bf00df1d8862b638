import random
from fractions import Fraction

import pytest

from leibhom.dgla import (
    DGLAMorphism,
    DGLieAlgebra,
    DGModule,
    IllDefinedAction,
    NotInCategory,
    as_module,
    check_dg_module,
    check_dgla,
    check_dgla_morphism,
    cone,
    leib,
    minimal_counit,
    minimal_envelope,
    minimal_module,
)
from leibhom.exactla import Matrix, ShapeMismatch, quotient_section
from leibhom.homology import ChainComplex
from leibhom.leibcore import (
    LieAlgebra,
    Representation,
    adjoint_representation,
    check_representation,
    lie_quotient,
    symmetrization,
    tensor3,
    trivial_representation,
)

from conftest import (
    CORPUS,
    LIE_CORPUS,
    bilinear,
    dense,
    random_algebra,
    representations_for,
    rescaled_heis3,
)


def envelope_and_report(g):
    env = minimal_envelope(g)
    assert check_dgla(env) == ()
    back, rep = leib(env)
    return env, back, rep


def test_cone_is_dgla_and_recovers_input(lie_corpus):
    for name, h in lie_corpus.items():
        c = cone(h)
        assert check_dgla(c) == (), name
        g, rep = leib(c)
        assert rep.member, name
        assert g.structure == h.structure, name


def test_cone_kernel_matches_even_when_trivial():
    # abelian: d1 = id has zero kernel and no squares, still a member
    c = cone(LIE_CORPUS["abelian2"])
    _, rep = leib(c)
    assert rep.surjective and rep.kernel_matches


def test_envelope_recovers_corpus(corpus):
    for name, g in corpus.items():
        env, back, rep = envelope_and_report(g)
        assert rep.member, name
        assert back.structure == g.structure, name


def test_envelope_degrees_for_a2():
    env = minimal_envelope(CORPUS["A2"])
    assert env.degrees() == (0, 1, 2)
    assert (env.dim(0), env.dim(1), env.dim(2)) == (1, 2, 1)
    # the square of x doubles in square-span coordinates
    assert dense(env.bracket(1, 1), 2, 2)[0][0] == (Fraction(2),)
    assert env.labels[2] == ("y^",)


def test_envelope_is_acyclic(corpus):
    for name, g in corpus.items():
        env = minimal_envelope(g)
        dims = (env.dim(0), env.dim(1), env.dim(2))
        d1, d2 = env.differential(1), env.differential(2)
        assert ChainComplex(0, dims, (d1, d2)).betti() == (0, 0, 0), name


def test_counit_on_envelope_is_identity(corpus):
    for name, g in corpus.items():
        env = minimal_envelope(g)
        f, target = minimal_counit(env)
        assert check_dgla_morphism(f) == (), name
        for p in (0, 1, 2):
            comp = f.component(p)
            assert comp.entries == Matrix.identity(env.dim(p)).entries, (name, p)


def test_counit_collapses_enlarged_degree_two():
    # same algebra downstairs, but degree 2 is fattened to two vectors both
    # mapping onto the square of x; the counit must merge them
    a2 = CORPUS["A2"]
    q = lie_quotient(a2)
    d2 = Matrix.from_rows([[0, 0], [1, 1]])
    bracket11 = tensor3(2, 2, 2, {(0, 0, 0): Fraction(2)})
    L = DGLieAlgebra(
        name="fat",
        degree_dims={0: 1, 1: 2, 2: 2},
        brackets={(0, 0): q.quotient.structure, (0, 1): q.action_on_g,
                  (1, 0): tensor3(2, 1, 2, {(0, 0, 1): Fraction(-1)}),
                  (1, 1): bracket11},
        differentials={1: q.projection, 2: d2},
    )
    assert check_dgla(L) == ()
    f, target = minimal_counit(L)
    assert f.component(2).entries == ((Fraction(1), Fraction(1)),)
    assert target.dim(2) == 1


def test_counit_rejects_non_surjective_d1():
    L = DGLieAlgebra(
        name="bad",
        degree_dims={0: 2, 1: 1},
        brackets={},
        differentials={1: Matrix.from_rows([[1], [0]])},
    )
    assert check_dgla(L) == ()
    _, rep = leib(L)
    assert not rep.surjective
    with pytest.raises(NotInCategory):
        minimal_counit(L)


def test_counit_rejects_kernel_mismatch():
    # d1 = 0 onto a zero-dim degree 0 is fine, but a floating kernel vector
    # with no square mapping onto it breaks the kernel condition
    L = DGLieAlgebra(
        name="bad2",
        degree_dims={0: 1, 1: 2},
        brackets={},
        differentials={1: Matrix.from_rows([[1, 0]])},
    )
    assert check_dgla(L) == ()
    _, rep = leib(L)
    assert rep.surjective and not rep.kernel_matches
    with pytest.raises(NotInCategory):
        minimal_counit(L)


def test_check_dgla_tags_antisymmetry():
    h = LIE_CORPUS["r2"]
    c = cone(h)
    brackets = dict(c.brackets)
    # drop the compensating (1,0) block so the graded antisymmetry breaks
    del brackets[(1, 0)]
    mutant = DGLieAlgebra(c.name, c.degree_dims, brackets, c.differentials, c.labels)
    tags = {v[0] for v in check_dgla(mutant)}
    assert "antisymmetry" in tags


def test_check_dgla_tags_leibniz_rule():
    c = cone(LIE_CORPUS["r2"])
    diffs = dict(c.differentials)
    diffs[1] = Matrix.from_rows([[1, 0], [0, 2]])
    mutant = DGLieAlgebra(c.name, c.degree_dims, c.brackets, diffs, c.labels)
    tags = {v[0] for v in check_dgla(mutant)}
    assert "leibniz_rule" in tags


def test_check_dgla_tags_d_squared():
    env = minimal_envelope(CORPUS["A2"])
    diffs = dict(env.differentials)
    diffs[2] = Matrix.from_rows([[1], [0]])
    mutant = DGLieAlgebra(env.name, env.degree_dims, env.brackets, diffs, env.labels)
    tags = {v[0] for v in check_dgla(mutant)}
    assert "d_squared" in tags


def test_check_dgla_tags_jacobi():
    h = LIE_CORPUS["heis3"]
    c = cone(h)
    brackets = dict(c.brackets)
    # an extra symmetric degree-(0,0) square breaks Jacobi but not
    # antisymmetry in even degree... it does break antisymmetry of the
    # (0,0) block, so check the specific tag instead
    bad00 = tensor3(3, 3, 3, {(0, 1, 2): Fraction(1), (1, 0, 2): Fraction(-1),
                              (0, 0, 1): Fraction(1)})
    brackets[(0, 0)] = bad00
    mutant = DGLieAlgebra(c.name, c.degree_dims, brackets, c.differentials, c.labels)
    tags = {v[0] for v in check_dgla(mutant)}
    assert tags != set()


def test_as_module_satisfies_module_axioms(corpus):
    for name, g in corpus.items():
        env = minimal_envelope(g)
        assert check_dg_module(as_module(env)) == (), name


def test_minimal_module_on_corpus(corpus):
    for name, g in corpus.items():
        for rname, rep in representations_for(g).items():
            mod = minimal_module(g, rep)
            assert check_dg_module(mod) == (), (name, rname)


def test_minimal_module_degrees_for_adjoint_a2():
    g = CORPUS["A2"]
    mod = minimal_module(g, adjoint_representation(g))
    # anti part is the span of [x,m]+[m,x] inside m = g: one dimension
    assert mod.dim(1) == 1
    assert mod.dim(0) == 2
    assert mod.dim(-1) == 1


def test_minimal_module_of_the_zero_module_is_zero(corpus):
    for g in corpus.values():
        mod = minimal_module(g, trivial_representation(g, 0))
        assert mod.degree_dims == {1: 0, 0: 0, -1: 0}
        assert check_dg_module(mod) == ()


def test_minimal_module_trivial_rep_has_empty_ends(corpus):
    for g in corpus.values():
        mod = minimal_module(g, trivial_representation(g, 2))
        assert mod.dim(1) == 0
        assert mod.dim(0) == 2
        assert mod.dim(-1) == 2


def test_minimal_module_rejects_fake_representation():
    g = CORPUS["r2"]
    left = tensor3(2, 1, 1, {(0, 0, 0): Fraction(1), (1, 0, 0): Fraction(1)})
    right = tensor3(1, 2, 1, {})
    fake = Representation(1, ("m",), left, right)
    with pytest.raises(IllDefinedAction):
        minimal_module(g, fake)


# ---------------------------------------------------------------------------
# the per-vector DGLA code that the library's table identities replaced,
# kept as oracles: one unit vector and one bilinear evaluation at a time
ZERO = Fraction(0)


def _unit(n, i):
    return tuple(Fraction(int(t == i)) for t in range(n))


def _zeros(n):
    return (ZERO,) * n


def _add(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def _scale(c, v):
    return tuple(c * a for a in v)


def _column(m, j):
    return tuple(r[j] for r in m.entries)


def _from_vectors(a, b, c, fn):
    return tuple(tuple(tuple(Fraction(x) for x in fn(i, j)) for j in range(b)) for i in range(a))


def _bracket(L, p, q, u, v):
    t = L.brackets.get((p, q))
    return _zeros(L.dim(p + q)) if t is None else bilinear(dense(t, L.dim(p), L.dim(q)), u, v)


def _act(mod, p, q, x, m):
    t = mod.actions.get((p, q))
    return (_zeros(mod.dim(p + q)) if t is None
            else bilinear(dense(t, mod.algebra.dim(p), mod.dim(q)), x, m))


def _left(rep, x, m):
    return bilinear(dense(rep.left_action, len(x), rep.dim), x, m)


def _right(rep, m, x):
    return bilinear(dense(rep.right_action, rep.dim, len(x)), m, x)


def oracle_check_dgla(L):
    bad = []
    degs = L.degrees()
    for p in degs:
        for q in degs:
            tp, tq = L.dim(p), L.dim(q)
            if L.dim(p + q) == 0 and (p, q) not in L.brackets and (q, p) not in L.brackets:
                continue
            sign = Fraction(-1) ** (p * q + 1)
            for i in range(tp):
                for j in range(tq):
                    lhs = _bracket(L, p, q, _unit(tp, i), _unit(tq, j))
                    rhs = _scale(sign, _bracket(L, q, p, _unit(tq, j), _unit(tp, i)))
                    if lhs != rhs:
                        bad.append(("antisymmetry", p, q, i, j))
    for p in degs:
        for q in degs:
            for r in degs:
                tp, tq, tr = L.dim(p), L.dim(q), L.dim(r)
                if L.dim(p + q + r) == 0:
                    continue
                for i in range(tp):
                    x = _unit(tp, i)
                    for j in range(tq):
                        y = _unit(tq, j)
                        for k in range(tr):
                            z = _unit(tr, k)
                            s = _scale(Fraction(-1) ** (p * r),
                                       _bracket(L, p, q + r, x, _bracket(L, q, r, y, z)))
                            s = _add(s, _scale(Fraction(-1) ** (q * p),
                                               _bracket(L, q, r + p, y, _bracket(L, r, p, z, x))))
                            s = _add(s, _scale(Fraction(-1) ** (r * q),
                                               _bracket(L, r, p + q, z, _bracket(L, p, q, x, y))))
                            if any(s):
                                bad.append(("jacobi", p, q, r, i, j, k))
    for p in degs:
        for q in degs:
            tp, tq = L.dim(p), L.dim(q)
            if L.dim(p + q) == 0 or L.dim(p + q - 1) == 0:
                continue
            d_pq = L.differential(p + q)
            for i in range(tp):
                x = _unit(tp, i)
                dx = _column(L.differential(p), i) if L.dim(p - 1) else ()
                for j in range(tq):
                    y = _unit(tq, j)
                    dy = _column(L.differential(q), j) if L.dim(q - 1) else ()
                    lhs = d_pq.apply(_bracket(L, p, q, x, y))
                    rhs = _bracket(L, p - 1, q, dx, y) if L.dim(p - 1) else _zeros(L.dim(p + q - 1))
                    term = _bracket(L, p, q - 1, x, dy) if L.dim(q - 1) else _zeros(L.dim(p + q - 1))
                    rhs = _add(rhs, _scale(Fraction(-1) ** p, term))
                    if lhs != rhs:
                        bad.append(("leibniz_rule", p, q, i, j))
    for p in degs:
        if L.dim(p - 1) and L.dim(p - 2):
            if not (L.differential(p - 1) @ L.differential(p)).is_zero():
                bad.append(("d_squared", p))
    return tuple(bad)


def oracle_check_dgla_morphism(f, max_degree=None):
    bad = []
    src, tgt = f.source, f.target
    degs = sorted(set(src.degrees()) | set(tgt.degrees()))
    if max_degree is not None:
        degs = [p for p in degs if p <= max_degree]
    for p in degs:
        if src.dim(p) == 0:
            continue
        if f.component(p - 1) @ src.differential(p) != tgt.differential(p) @ f.component(p):
            bad.append(("chain_map", p))
    for p in degs:
        for q in degs:
            if max_degree is not None and p + q > max_degree:
                continue
            np_, nq = src.dim(p), src.dim(q)
            if np_ == 0 or nq == 0:
                continue
            fp, fq, fpq = f.component(p), f.component(q), f.component(p + q)
            for i in range(np_):
                for j in range(nq):
                    lhs = fpq.apply(_bracket(src, p, q, _unit(np_, i), _unit(nq, j)))
                    rhs = _bracket(tgt, p, q, _column(fp, i), _column(fq, j))
                    if lhs != rhs:
                        bad.append(("bracket", p, q, i, j))
    return tuple(bad)


def oracle_check_dg_module(mod):
    bad = []
    L = mod.algebra
    adegs, mdegs = L.degrees(), mod.degrees()
    for p in adegs:
        for q in adegs:
            for s in mdegs:
                if mod.dim(p + q + s) == 0:
                    continue
                np_, nq, ns = L.dim(p), L.dim(q), mod.dim(s)
                for i in range(np_):
                    x = _unit(np_, i)
                    for j in range(nq):
                        y = _unit(nq, j)
                        for a in range(ns):
                            m = _unit(ns, a)
                            lhs = _act(mod, p + q, s, _bracket(L, p, q, x, y), m)
                            rhs = _act(mod, p, q + s, x, _act(mod, q, s, y, m))
                            rhs = _sub(rhs, _scale(Fraction(-1) ** (p * q),
                                                   _act(mod, q, p + s, y, _act(mod, p, s, x, m))))
                            if lhs != rhs:
                                bad.append(("module_jacobi", p, q, s, i, j, a))
    for p in adegs:
        for s in mdegs:
            if mod.dim(p + s) == 0 or mod.dim(p + s - 1) == 0:
                continue
            np_, ns = L.dim(p), mod.dim(s)
            d_out = mod.differential(p + s)
            for i in range(np_):
                x = _unit(np_, i)
                dx = _column(L.differential(p), i) if L.dim(p - 1) else ()
                for a in range(ns):
                    m = _unit(ns, a)
                    dm = _column(mod.differential(s), a) if mod.dim(s - 1) else ()
                    lhs = d_out.apply(_act(mod, p, s, x, m))
                    rhs = _act(mod, p - 1, s, dx, m) if L.dim(p - 1) else _zeros(mod.dim(p + s - 1))
                    term = _act(mod, p, s - 1, x, dm) if mod.dim(s - 1) else _zeros(mod.dim(p + s - 1))
                    rhs = _add(rhs, _scale(Fraction(-1) ** p, term))
                    if lhs != rhs:
                        bad.append(("module_leibniz", p, s, i, a))
    for q in mdegs:
        if mod.dim(q - 1) and mod.dim(q - 2):
            if not (mod.differential(q - 1) @ mod.differential(q)).is_zero():
                bad.append(("d_squared", q))
    return tuple(bad)


def _coords_in(sub, v, msg):
    c = sub.coords(v)
    if c is None:
        raise IllDefinedAction(msg)
    return c


def oracle_minimal_module_actions(g, rep):
    """The action tensors of minimal_module(g, rep), or the IllDefinedAction
    it raises, by the per-vector construction."""
    bad = check_representation(g, rep)
    if bad:
        raise IllDefinedAction(f"not a two-sided module: {bad[:3]}")
    qdata = lie_quotient(g)
    n, d = g.dim, rep.dim
    r = qdata.quotient.dim
    anti, u_dim, qmat = symmetrization(rep)
    t = anti.dim
    lift = quotient_section(anti)

    def lift_left(a, mvec):
        return _left(rep, _column(qdata.section, a), mvec)

    for a in range(r):
        for i in range(t):
            if anti.coords(lift_left(a, _column(anti.basis, i))) is None:
                raise IllDefinedAction(f"left action of degree-0 vector {a} leaves the symmetrized span")
    a00 = _from_vectors(r, d, d, lambda a, j: lift_left(a, _unit(d, j)))
    a01 = _from_vectors(r, t, t, lambda a, i: anti.coords(lift_left(a, _column(anti.basis, i))))
    a0m1 = _from_vectors(r, u_dim, u_dim, lambda a, c: qmat.apply(lift_left(a, _column(lift, c))))
    a1m1 = _from_vectors(n, u_dim, d, lambda i, c: _scale(-1, _right(rep, _column(lift, c), _unit(n, i))))
    for i in range(n):
        for j in range(t):
            if any(_right(rep, _column(anti.basis, j), _unit(n, i))):
                raise IllDefinedAction(f"right action of e_{i} does not kill the symmetrized span")
    a10 = _from_vectors(n, d, t, lambda i, j: _coords_in(
        anti, _add(_left(rep, _unit(n, i), _unit(d, j)), _right(rep, _unit(d, j), _unit(n, i))),
        "symmetrized action vector left its own span"))
    s = qdata.ann.dim
    a2m1 = _from_vectors(s, u_dim, t, lambda j, c: _coords_in(
        anti, _scale(-1, _right(rep, _column(lift, c), _column(qdata.ann.basis, j))),
        f"right action of square-span vector {j} does not land in the symmetrized span"))
    return {(0, 0): a00, (0, 1): a01, (0, -1): a0m1, (1, -1): a1m1, (1, 0): a10, (2, -1): a2m1}


ORACLE_ALGEBRAS = dict(CORPUS)
ORACLE_ALGEBRAS.update({f"random{s}": random_algebra(random.Random(s)) for s in range(3)})
ORACLE_ALGEBRAS["heis3 rescaled"] = rescaled_heis3()


def _replace(L, brackets=None, differentials=None):
    return DGLieAlgebra(L.name, L.degree_dims, L.brackets if brackets is None else brackets,
                        L.differentials if differentials is None else differentials, L.labels)


def dgla_mutants():
    """(label, mutant, the DGLA it was made from): the graded mutants of
    the suite."""
    c = cone(LIE_CORPUS["r2"])
    no_comp = dict(c.brackets)
    del no_comp[(1, 0)]
    yield "cone without its (1,0) block", _replace(c, brackets=no_comp), c
    scaled = dict(c.differentials)
    scaled[1] = Matrix.from_rows([[1, 0], [0, 2]])
    yield "cone with rescaled differential", _replace(c, differentials=scaled), c
    env = minimal_envelope(CORPUS["A2"])
    broken = dict(env.differentials)
    broken[2] = Matrix.from_rows([[1], [0]])
    yield "envelope with non-chain d2", _replace(env, differentials=broken), env
    ch = cone(LIE_CORPUS["heis3"])
    bad00 = dict(ch.brackets)
    bad00[(0, 0)] = tensor3(3, 3, 3, {(0, 1, 2): Fraction(1), (1, 0, 2): Fraction(-1),
                                      (0, 0, 1): Fraction(1)})
    yield "cone with a symmetric square", _replace(ch, brackets=bad00), ch
    denv = minimal_envelope(rescaled_heis3())
    halved = dict(denv.brackets)
    halved[(0, 1)] = tensor3(3, 3, 3, {(0, 1, 2): Fraction(1, 3)})
    yield "envelope with a halved action", _replace(denv, brackets=halved), denv


def dglas():
    for name, g in ORACLE_ALGEBRAS.items():
        yield f"envelope {name}", minimal_envelope(g)
    for name, h in LIE_CORPUS.items():
        yield f"cone {name}", cone(h)
    for label, mutant, _ in dgla_mutants():
        yield label, mutant


DGLAS = dict(dglas())


@pytest.mark.parametrize("label", list(DGLAS))
def test_check_dgla_matches_dense_oracle(label):
    assert check_dgla(DGLAS[label]) == oracle_check_dgla(DGLAS[label])


def morphisms():
    for name, g in ORACLE_ALGEBRAS.items():
        f, _ = minimal_counit(minimal_envelope(g))
        yield f"counit {name}", f
        doubled = dict(f.components)
        doubled[1] = Matrix.from_entries(f.source.dim(1), f.source.dim(1),
                                         {(i, i): 2 for i in range(f.source.dim(1))})
        yield f"counit {name} with doubled degree 1", DGLAMorphism(f.source, f.target, doubled)
    for label, mutant, base in dgla_mutants():
        ident = {p: Matrix.identity(base.dim(p)) for p in base.degrees()}
        yield f"identity {label} -> original", DGLAMorphism(mutant, base, ident)
        yield f"identity original -> {label}", DGLAMorphism(base, mutant, ident)


MORPHISMS = dict(morphisms())


@pytest.mark.parametrize("label", list(MORPHISMS))
def test_check_dgla_morphism_matches_dense_oracle(label):
    f = MORPHISMS[label]
    for max_degree in (None, 1, 2):
        assert check_dgla_morphism(f, max_degree) == oracle_check_dgla_morphism(f, max_degree)


def dg_modules():
    for name, g in ORACLE_ALGEBRAS.items():
        env = minimal_envelope(g)
        yield f"as_module {name}", as_module(env)
        for rname, rep in representations_for(g).items():
            yield f"minimal_module {name} {rname}", minimal_module(g, rep)
    mod = minimal_module(CORPUS["A2"], adjoint_representation(CORPUS["A2"]))
    mdiffs = dict(mod.differentials)
    d0 = mdiffs[0]
    mdiffs[0] = Matrix.from_entries(d0.rows, d0.cols, {k: 2 * v for k, v in d0.entries_dict().items()})
    yield "rescaled differential", DGModule(mod.algebra, mod.degree_dims, mod.actions, mdiffs,
                                            mod.labels)
    macts = dict(mod.actions)
    macts[(0, 0)] = tensor3(1, 2, 2, {})
    yield "erased degree-(0,0) action", DGModule(mod.algebra, mod.degree_dims, macts,
                                                 mod.differentials, mod.labels)
    for label, mutant, _ in dgla_mutants():
        yield f"as_module {label}", as_module(mutant)


DG_MODULES = dict(dg_modules())


@pytest.mark.parametrize("label", list(DG_MODULES))
def test_check_dg_module_matches_dense_oracle(label):
    assert check_dg_module(DG_MODULES[label]) == oracle_check_dg_module(DG_MODULES[label])


def representation_cases():
    """(g, rep) pairs: the valid corpus modules and the rep mutants of
    the suite, plus one redrawn entry per valid module."""
    for g in ORACLE_ALGEBRAS.values():
        for rep in representations_for(g).values():
            yield g, rep
            n, d = g.dim, rep.dim
            left = {(i, j, k): x for i, plane in enumerate(dense(rep.left_action, n, d))
                    for j, vec in enumerate(plane) for k, x in enumerate(vec) if x}
            left[(n - 1, 0, d - 1)] = Fraction(1, 2)
            yield g, Representation(d, rep.basis_names, tensor3(n, d, d, left), rep.right_action)
    a2, r2 = CORPUS["A2"], CORPUS["r2"]
    yield a2, Representation(1, ("m",), tensor3(2, 1, 1, {(0, 0, 0): 1, (1, 0, 0): 1}),
                             tensor3(1, 2, 1, {}))
    yield r2, Representation(1, ("m",), tensor3(2, 1, 1, {(0, 0, 0): 1, (1, 0, 0): 1}),
                             tensor3(1, 2, 1, {}))
    yield r2, Representation(1, ("m",), tensor3(2, 1, 1, {}), tensor3(1, 2, 1, {(0, 0, 0): 1}))
    adj = adjoint_representation(r2)
    yield r2, Representation(adj.dim, adj.basis_names, adj.left_action,
                             tensor3(2, 2, 2, {(1, 0, 1): 1, (0, 1, 1): 1}))


def dense_actions(mod):
    return {(p, q): dense(t, mod.algebra.dim(p), mod.dim(q)) for (p, q), t in mod.actions.items()}


def _outcome(build):
    try:
        return build()
    except IllDefinedAction as exc:
        return str(exc)


def test_minimal_module_matches_dense_oracle_and_its_failures():
    raised = 0
    for g, rep in representation_cases():
        want = _outcome(lambda: oracle_minimal_module_actions(g, rep))
        got = _outcome(lambda: dense_actions(minimal_module(g, rep)))
        assert got == want, (g.basis_names, rep.basis_names)
        raised += isinstance(want, str)
    assert raised >= 4


def test_check_dg_module_refuses_a_table_of_the_wrong_shape():
    # L_0 x M_0 -> M_0 is 1 x 2 -> 2 for the adjoint module of A2; a table
    # for a 2-dim L_0 is refused, not read in part
    mod = minimal_module(CORPUS["A2"], adjoint_representation(CORPUS["A2"]))
    actions = dict(mod.actions)
    actions[(0, 0)] = tensor3(2, 2, 2, {})
    with pytest.raises(ShapeMismatch):
        check_dg_module(DGModule(mod.algebra, mod.degree_dims, actions, mod.differentials,
                                 mod.labels))
