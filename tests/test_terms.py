import pytest
from hypothesis import assume, event, given, strategies as st

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
    const,
    index_key,
    mk,
    rename_apart,
    rename_term,
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
    store, frame = Store(), {}
    assert not store.unify_atoms(mk("p", var("X")), mk("q", Int(1)),
                                 frame, FreshVars())
    assert frame == {} and store.bindings == {}
    # the head variable stands for what it met; nothing is bound for it
    assert store.unify_atoms(mk("p", var("X")), mk("p", Int(1)),
                             frame, FreshVars())
    assert frame == {var("X").id: Int(1)}
    assert store.bindings == {}


def test_unify_atoms_binds_goal_variables_to_renamed_head_terms():
    store, frame = Store(), {}
    head = mk("p", mk("f", var("X")), var("X"))
    assert store.unify_atoms(head, mk("p", var("G"), Int(2)), frame,
                             FreshVars())
    # G got f(X) renamed, and the second occurrence of X bound its copy
    fresh = frame[var("X").id]
    assert isinstance(fresh, Var) and fresh.id < 0
    assert store.resolve(var("G")) == mk("f", Int(2))
    assert set(store.bindings) == {var("G").id, fresh.id}


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
    c = Clause(mk("p", mk("f", var("X")), var("X")),
               (mk("q", var("X"), var("Y")),))
    store, frame, counter = Store(), {}, FreshVars()
    assert store.unify_atoms(c.head, mk("p", var("A"), var("B")), frame,
                             counter)
    body = rename_apart(c, frame, counter)
    xs = list(dict.fromkeys(v for a in body for v in term_vars(a)))
    assert all(v < 0 for v in xs)
    # every X is one variable, shared with the goal's A = f(X) and B
    x, y = body[0].args
    assert store.resolve(var("A")) == mk("f", store.resolve(x))
    assert store.resolve(var("B")) == store.resolve(x)
    assert y != x and store.walk(y) == y


def test_rename_apart_twice_disjoint():
    c = Clause(mk("p", mk("f", var("X"))), (mk("q", var("X"), var("Y")),))
    store, counter = Store(), FreshVars()
    fresh = []
    for goal_var in ("A", "B"):
        frame = {}
        assert store.unify_atoms(c.head, mk("p", var(goal_var)), frame,
                                 counter)
        body = rename_apart(c, frame, counter)
        fresh.append(set(term_vars(body[0])))
    assert fresh[0] and fresh[1] and not fresh[0] & fresh[1]


# The head unifier renames as it goes; the reference renames the whole
# clause first and then unifies argument by argument.  They must agree.
_head_leaves = st.sampled_from(
    [var("X"), var("Y"), var("Z"), Int(0), Int(1), const("a")])
# goals share the names X and Y with heads, and lean to variables so that
# most draws unify
_goal_leaves = st.sampled_from(
    [var("X"), var("Y"), var("A"), var("B"), var("A"), var("B"),
     Int(0), Int(1), const("a")])


def _compounds(leaves):
    return st.recursive(
        leaves,
        lambda kids: st.tuples(st.sampled_from(["f", "g"]),
                               st.lists(kids, min_size=1, max_size=2)).map(
            lambda p: Compound(symbol(p[0], len(p[1])), tuple(p[1]))),
        max_leaves=4)


_head_terms = _compounds(_head_leaves)
_goal_terms = _compounds(_goal_leaves)
# a body may also hold W, a variable the head does not have
_body_atoms = st.tuples(_compounds(st.one_of(_head_leaves, st.just(var("W")))),
                        _compounds(_head_leaves)).map(
    lambda args: Compound(symbol("q", 2), args))


@st.composite
def _clause_goal_and_bindings(draw):
    arity = draw(st.integers(1, 3))
    head = Compound(symbol("p", arity),
                tuple(draw(_head_terms) for _ in range(arity)))
    body = tuple(draw(st.lists(_body_atoms, max_size=2)))
    goal = Compound(symbol(draw(st.sampled_from(["p"] * 4 + ["r"])), arity),
                tuple(draw(_goal_terms) for _ in range(arity)))
    bound = draw(st.lists(st.tuples(st.sampled_from(["X", "A", "B"]),
                                    _goal_terms), max_size=2))
    return Clause(head, body), goal, bound


def _bound_store(bound) -> Store:
    store = Store()
    for name, t in bound:
        assume(store.unify(var(name), t))
    assume(not _cyclic(store))
    return store


def _variant(xs, ys) -> bool:
    """Whether two term lists differ only by a one-to-one renaming of
    fresh (negative) variables; every other variable must be the same."""
    fwd, bwd = {}, {}
    stack = list(zip(xs, ys))
    while stack:
        x, y = stack.pop()
        if isinstance(x, Var) and isinstance(y, Var) and x.id < 0 and y.id < 0:
            if fwd.setdefault(x.id, y.id) != y.id or bwd.setdefault(y.id, x.id) != x.id:
                return False
        elif isinstance(x, Compound) and isinstance(y, Compound):
            if x.functor is not y.functor:
                return False
            stack.extend(zip(x.args, y.args))
        elif x != y:
            return False
    return True


@given(_clause_goal_and_bindings())
def test_unify_atoms_agrees_with_rename_then_unify(drawn):
    clause, goal, bound = drawn
    ref, ref_counter, mapping = _bound_store(bound), FreshVars(), {}
    head = rename_term(clause.head, mapping, ref_counter)
    ref_ok = head.functor is goal.functor and all(
        ref.unify(h, g) for h, g in zip(head.args, goal.args))
    store, counter, frame = _bound_store(bound), FreshVars(), {}
    ok = store.unify_atoms(clause.head, goal, frame, counter)
    event(f"unified: {ok}")
    assert ok == ref_ok
    if not ok:
        return
    assume(not _cyclic(ref) and not _cyclic(store))
    ref_body = tuple(rename_term(b, mapping, ref_counter) for b in clause.body)
    body = rename_apart(clause, frame, counter)
    assert [a.functor for a in body] == [a.functor for a in ref_body]

    def resolved(s, atoms):
        return [s.resolve(t) for a in (goal, *atoms) for t in a.args]

    assert _variant(resolved(store, body), resolved(ref, ref_body))


# ---- program indexing ----

def test_program_first_arg_index():
    cf = Clause(mk("p", mk("f", var("X"))), ())
    cg = Clause(mk("p", mk("g", var("X"))), ())
    cy = Clause(mk("p", var("Y")), ())
    p = Program((cf, cg, cy))
    pred = symbol("p", 1)
    # each key's bucket: its clauses and the variable-keyed ones, in order
    assert p.bucket(pred, symbol("f", 1)) == (cf, cy)
    assert p.bucket(pred, symbol("g", 1)) == (cg, cy)
    assert p.bucket(pred, None) == (cf, cg, cy)
    assert p.bucket(pred, symbol("h", 0)) == (cy,)


# the first arguments heads and goals draw from: variables, constants,
# compounds and ints, and for goals keys that no head has
_HEAD_FIRST = [var("X"), const("a"), const("b"), mk("f", var("Y")),
               mk("f", const("a")), Int(1), Int(2)]
_GOAL_FIRST = _HEAD_FIRST + [const("c"), mk("g", var("Z")), Int(3)]
_PREDS = [symbol("p", 0), symbol("p", 1), symbol("q", 2)]


def _scan_key(t):
    """The key the per-goal scan compared: a variable matches anything."""
    if isinstance(t, Compound):
        return t.functor
    if isinstance(t, Int):
        return ("int", t.value)
    return None


def _literal(pred, first):
    return Compound(pred, ((first,) + (const("z"),) * (pred.arity - 1)
                       if pred.arity else ()))


@given(st.lists(st.tuples(st.sampled_from(_PREDS),
                          st.sampled_from(_HEAD_FIRST)), max_size=10),
       st.sampled_from(_PREDS + [symbol("r", 1)]),
       st.sampled_from(_GOAL_FIRST))
def test_bucket_equals_the_key_filter_scan(heads, pred, first):
    clauses = [Clause(_literal(p, f), ()) for p, f in heads]
    goal = _literal(pred, first)
    gkey = _scan_key(goal.args[0]) if goal.args else None
    scan = [c for c in clauses if c.head.functor is pred
            and (gkey is None or not c.head.args
                 or _scan_key(c.head.args[0]) in (None, gkey))]
    key = index_key(goal.args[0]) if goal.args else None
    bucket = Program(clauses).bucket(pred, key)
    assert [id(c) for c in bucket] == [id(c) for c in scan]
