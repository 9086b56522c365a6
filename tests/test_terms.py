import pytest
from hypothesis import assume, given, strategies as st

from milsem.corpus import CORPUS_KINDS, generate_corpus
from milsem.objectlang import metarule_library
from milsem.scenario import builtin_scenario, builtin_scenario_names

from milsem.terms import (
    Clause,
    Compound,
    FreshVars,
    Int,
    Program,
    Store,
    Symbol,
    Var,
    atom,
    atom_vars,
    const,
    fact,
    mk,
    rename_apart,
    restrict,
    symbol,
    term_vars,
    var,
)


def test_symbol_interning():
    assert symbol("f", 2) is symbol("f", 2)
    assert symbol("f", 2) is not symbol("f", 3)
    assert symbol("f", 2) is not symbol("g", 2)


def _symbols(x, out):
    """Every Symbol reachable from x through containers and object slots."""
    if isinstance(x, Symbol):
        out.append(x)
    elif isinstance(x, dict):
        for y in (*x.keys(), *x.values()):
            _symbols(y, out)
    elif isinstance(x, (tuple, list)):
        for y in x:
            _symbols(y, out)
    elif not isinstance(x, (str, int, float, type(None))):
        for slot in type(x).__slots__:
            _symbols(getattr(x, slot), out)
    return out


@pytest.mark.parametrize("source", [*builtin_scenario_names(), "metarule_library",
                                    *CORPUS_KINDS])
def test_every_reachable_symbol_is_the_interned_one(source):
    if source in builtin_scenario_names():
        root = builtin_scenario(source)
    elif source == "metarule_library":
        root = metarule_library()
    else:
        root = generate_corpus(source, 20, seed=3)
    found = _symbols(root, [])
    assert found
    for s in found:
        assert s is symbol(s.name, s.arity), s


def test_named_vars_are_stable():
    assert var("X") == var("X")
    assert var("X") != var("Y")


def test_mk_and_const():
    t = mk("f", var("X"), Int(3))
    assert t.functor is symbol("f", 2)
    assert const("nil") == mk("nil")


# ---- variable collection ----

def test_term_vars_first_occurrence_order():
    t = mk("f", var("B"), mk("g", var("A"), var("B")), var("C"))
    assert term_vars(t) == [var("B").id, var("A").id, var("C").id]


def _clause_vars(c: Clause) -> list[int]:
    return list(dict.fromkeys(v for a in (c.head, *c.body) for v in atom_vars(a)))


# ---- unification ----

def test_unify_binds_both_ways():
    store = Store()
    assert store.unify(var("X"), mk("f", var("Y")))
    assert store.resolve(var("X")) == mk("f", var("Y"))
    store = Store()
    assert store.unify(mk("f", var("Y")), var("X"))
    assert store.resolve(var("X")) == mk("f", var("Y"))


def test_unify_clash():
    assert not Store().unify(mk("f", var("X")), mk("g", var("X")))
    assert not Store().unify(Int(1), Int(2))
    assert not Store().unify(mk("f", Int(1)), mk("f", Int(2)))


def test_unify_shared_variable():
    store = Store()
    assert store.unify(mk("f", var("X"), var("X")), mk("f", Int(1), var("Z")))
    assert store.resolve(var("Z")) == Int(1)


def test_unify_occurs_check_off_by_default():
    # X = f(X) is accepted; resolution just never terminates on it,
    # which the solver's depth budget absorbs
    store = Store()
    assert store.unify(var("X"), mk("f", var("X")))
    # deep resolution leaves the looping variable in place
    assert store.resolve(var("X")) == mk("f", var("X"))


def test_unify_atoms_requires_same_predicate():
    assert not Store().unify_atoms(atom("p", var("X")), atom("q", Int(1)))
    store = Store()
    assert store.unify_atoms(atom("p", var("X")), atom("p", Int(1)))
    assert store.bindings[var("X").id] == Int(1)


# random ground-ish terms for unification properties
_names = st.sampled_from(["f", "g", "h"])
_leaves = st.one_of(
    st.integers(-5, 5).map(Int),
    st.sampled_from(["X", "Y", "Z"]).map(var),
    st.sampled_from(["a", "b"]).map(const),
)


def _terms(depth=3):
    return st.recursive(
        _leaves,
        lambda kids: st.tuples(_names, st.lists(kids, min_size=1, max_size=2)).map(
            lambda p: Compound(symbol(p[0], len(p[1])), tuple(p[1]))),
        max_leaves=6)


def _cyclic(store: Store) -> bool:
    """Whether some binding reaches its own variable: then deep resolution
    leaves a bound variable in place."""
    return any(set(term_vars(store.resolve(Var(vid)))) & store.bindings.keys()
               for vid in store.bindings)


# finite-tree properties hold only without cycles; unification has no
# occurs check, so X = f(X) is let through and such draws are discarded
@given(_terms(), _terms())
def test_unify_is_symmetric(a, b):
    sa, sb = Store(), Store()
    ok = sa.unify(a, b)
    assert ok == sb.unify(b, a)
    if ok:
        assume(not _cyclic(sa) and not _cyclic(sb))
        assert sa.resolve(a) == sa.resolve(b)
        assert sb.resolve(a) == sb.resolve(b)


@given(_terms())
def test_unify_with_self_is_trivial_on_ground(t):
    store = Store()
    assert store.unify(t, t)
    assert store.resolve(t) == t


@given(_terms(), _terms())
def test_mgu_is_a_unifier(a, b):
    store = Store()
    if store.unify(a, b):
        assume(not _cyclic(store))
        ra, rb = store.resolve(a), store.resolve(b)
        assert ra == rb
        # idempotence: the resolved form is a fixpoint
        assert store.resolve(ra) == ra


# ---- store and trail ----

def test_store_undo_restores_bindings():
    store = Store()
    mark = store.mark()
    assert store.unify(var("U1"), Int(5))
    assert store.walk(var("U1")) == Int(5)
    store.undo(mark)
    assert store.walk(var("U1")) == var("U1")


def test_store_nested_marks():
    store = Store()
    m1 = store.mark()
    store.unify(var("N1"), Int(1))
    m2 = store.mark()
    store.unify(var("N2"), Int(2))
    store.undo(m2)
    assert store.walk(var("N2")) == var("N2")
    assert store.walk(var("N1")) == Int(1)
    store.undo(m1)
    assert store.walk(var("N1")) == var("N1")


def test_restrict_resolves_chains():
    store = Store()
    assert store.unify(var("C1"), var("C2"))
    assert store.unify(var("C2"), Int(9))
    out = restrict(store.bindings, [var("C1").id])
    assert out == {var("C1").id: Int(9)}


# ---- renaming ----

def test_rename_apart_fresh_and_consistent():
    c = Clause(atom("p", var("X"), var("X")), (atom("q", var("X"), var("Y")),))
    counter = FreshVars()
    r = rename_apart(c, counter)
    xs = _clause_vars(r)
    assert all(v < 0 for v in xs)
    assert r.head.args[0] == r.head.args[1] == r.body[0].args[0]
    assert r.body[0].args[1] != r.head.args[0]


def test_rename_apart_twice_disjoint():
    c = fact(atom("p", var("X")))
    counter = FreshVars()
    r1 = rename_apart(c, counter)
    r2 = rename_apart(c, counter)
    assert _clause_vars(r1) != _clause_vars(r2)


# ---- program indexing ----

def test_program_first_arg_index():
    p = Program((
        Clause(atom("p", mk("f", var("X"))), ()),
        Clause(atom("p", mk("g", var("X"))), ()),
        Clause(atom("p", var("Y")), ()),
    ))
    fs = [key for _, key in p.clauses_for(symbol("p", 1))]
    assert fs == [symbol("f", 1), symbol("g", 1), None]
