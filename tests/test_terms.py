import sys
import threading
import time

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from milsem.corpus import CORPUS_KINDS, generate_corpus
from milsem.objectlang import metarule_library
from milsem.scenario import builtin_scenario, builtin_scenario_names
from milsem.textio import parse_clauses, parse_term

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
    mk,
    rename_apart,
    rename_term,
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


@pytest.mark.parametrize("x_is,y_is,same", [
    (mk("f", var("X")), mk("f", var("Y")), True),
    (mk("f", mk("f", var("X"))), mk("f", var("Y")), True),
    (mk("f", var("X"), const("a")), mk("f", var("Y"), const("b")), False),
    (mk("f", mk("g", var("X"))), mk("f", var("Y")), False),
], ids=["same", "unrolled", "clash", "other_shape"])
def test_unify_two_cyclic_terms_terminates(x_is, y_is, same):
    # without an occurs check X and Y can stand for infinite rational
    # trees; comparing them must not chase the cycles for ever
    store = Store()
    assert store.unify(var("X"), x_is)
    assert store.unify(var("Y"), y_is)
    got = []
    worker = threading.Thread(
        target=lambda: got.append(store.unify(var("X"), var("Y"))),
        daemon=True)
    worker.start()
    worker.join(10)
    assert got == [same]


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


def test_unify_atoms_meets_pairs_in_unify_order():
    # the head's arguments leftmost first, a compound's arguments last first
    store, frame, counter = Store(), {}, FreshVars()
    head = mk("p", mk("f", mk("g", var("X")), mk("h", var("Y"))), var("Z"))
    goal = mk("p", mk("f", var("G1"), var("G2")), var("G3"))
    assert store.unify_atoms(head, goal, frame, counter)
    assert store.trail == [var("G2").id, var("G1").id]
    assert frame == {var("Y").id: Var(-1), var("X").id: Var(-2),
                     var("Z").id: var("G3")}
    assert list(frame) == [var("Y").id, var("X").id, var("Z").id]


def test_unify_atoms_recurses_only_as_deep_as_the_head():
    deep = Int(0)
    for _ in range(20_000):
        deep = mk("s", deep)
    store, frame = Store(), {}
    head = mk("count", mk("s", var("N")), var("N"))
    assert store.unify_atoms(head, mk("count", deep, deep.args[0]), frame,
                             FreshVars())
    assert frame[var("N").id] is deep.args[0]
    assert store.bindings == {}


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


def test_resolve_follows_chains():
    store = Store()
    assert store.unify(var("C1"), var("C2"))
    assert store.unify(var("C2"), Int(9))
    assert store.resolve(var("C1")) == Int(9)


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


# ---- the kernel against its recursive form ----
#
# `Store.unify_atoms` and the renamers are loops; the recursive forms they
# replaced are kept here as the oracle.  The loops must match them exactly:
# the same bindings made in the same order, the same frame, and the same
# fresh variables drawn, not just results equal up to variants.

def _ref_unify_atoms(store, head, goal, frame, counter):
    return (head.functor is goal.functor
            and _ref_unify_head(store, head.args, goal.args, frame, counter))


def _ref_unify_head(store, hargs, gargs, frame, counter):
    bindings = store.bindings
    for h, g in zip(hargs, gargs):
        while type(g) is Var:
            nxt = bindings.get(g.id)
            if nxt is None:
                break
            g = nxt
        kind = type(h)
        if kind is Var:
            t = frame.get(h.id)
            if t is None:
                frame[h.id] = g
            elif t is not g and not store.unify(t, g):
                return False
            continue
        if type(g) is Var:
            bindings[g.id] = _ref_rename_term(h, frame, counter)
            store.trail.append(g.id)
            continue
        if kind is Int:
            if type(g) is Int and h.value == g.value:
                continue
            return False
        if type(g) is not Compound or h.functor is not g.functor:
            return False
        if h.args and not _ref_unify_head(store, h.args[::-1], g.args[::-1],
                                          frame, counter):
            return False
    return True


def _ref_rename_term(t, mapping, counter):
    kind = type(t)
    if kind is Var:
        v = mapping.get(t.id)
        if v is None:
            v = mapping[t.id] = counter.next_var()
        return v
    if kind is Compound and t.args:
        return Compound(t.functor, tuple([_ref_rename_term(a, mapping, counter)
                                          for a in t.args]))
    return t


def _ref_rename_apart(c, frame, counter):
    body = []
    for b in c.body:
        args = []
        for t in b.args:
            kind = type(t)
            if kind is Var:
                v = frame.get(t.id)
                if v is None:
                    v = frame[t.id] = counter.next_var()
                args.append(v)
            elif kind is Compound and t.args:
                args.append(_ref_rename_term(t, frame, counter))
            else:
                args.append(t)
        body.append(Compound(b.functor, tuple(args)))
    return tuple(body)


@st.composite
def _nested(draw, terms, depth=3):
    """A term at least ``depth`` compounds deep along one path, with
    siblings drawn from ``terms`` on the way."""
    t = draw(terms)
    for _ in range(depth + draw(st.integers(0, 1))):
        others = draw(st.lists(terms, max_size=1))
        at = draw(st.integers(0, len(others)))
        args = (*others[:at], t, *others[at:])
        t = Compound(symbol(draw(st.sampled_from(["f", "g"])), len(args)), args)
    return t


_GOAL_VARS = [var("A"), var("B"), var("C"), var("X")]


@st.composite
def _goal_over(draw, head):
    """A goal drawn to meet ``head``: each subterm of the head is kept, cut
    to a goal variable, or swapped for a leaf that may clash."""
    def over(t):
        roll = draw(st.integers(0, 9))
        if roll == 0:
            return draw(_goal_leaves)
        if roll <= 2 or type(t) is Var:
            return draw(st.sampled_from(_GOAL_VARS))
        if type(t) is Compound:
            return Compound(t.functor, tuple(over(a) for a in t.args))
        return t
    return Compound(head.functor, tuple(over(a) for a in head.args))


@st.composite
def _deep_clause_goal_and_bindings(draw):
    """A clause whose head nests three levels or more, with repeated
    variables and integer leaves; a goal drawn over the head, or now and
    then at random; and goal bindings that may chain (A = B, B = f(C)) and
    loop back (A = f(B), B = g(A))."""
    arity = draw(st.integers(1, 3))
    args = [draw(_head_terms) for _ in range(arity - 1)]
    args.insert(draw(st.integers(0, arity - 1)), draw(_nested(_head_terms)))
    head = Compound(symbol("p", arity), tuple(args))
    body = tuple(draw(st.lists(st.one_of(_body_atoms, st.just(const("done"))),
                               max_size=3)))
    if draw(st.integers(0, 4)):
        goal = draw(_goal_over(head))
    else:
        goal = Compound(symbol("p", arity),
                        tuple(draw(_goal_terms) for _ in range(arity)))
    bound = draw(st.lists(
        st.tuples(st.sampled_from(["A", "B", "C", "X"]),
                  _compounds(st.one_of(st.sampled_from(_GOAL_VARS),
                                       _goal_leaves))),
        max_size=3))
    return Clause(head, body), goal, bound


def _chained_store(bound) -> Store:
    store = Store()
    for name, t in bound:
        assume(store.unify(var(name), t))
    return store


@settings(deadline=None)
@given(_deep_clause_goal_and_bindings())
# a repeated head variable that meets two unbound goal variables binds the
# first to the second, as `unify` does, not the other way round
@example((Clause(mk("p", mk("f", var("X")), var("X")), ()),
          mk("p", mk("f", var("A")), var("B")), []))
def test_unify_atoms_matches_the_recursive_form_exactly(drawn):
    clause, goal, bound = drawn
    ref, ref_counter, ref_frame = _chained_store(bound), FreshVars(), {}
    ref_ok = _ref_unify_atoms(ref, clause.head, goal, ref_frame, ref_counter)
    store, counter, frame = _chained_store(bound), FreshVars(), {}
    ok = store.unify_atoms(clause.head, goal, frame, counter)
    event(f"unified: {ok}, cyclic: {_cyclic(store)}")
    assert ok == ref_ok
    assert store.trail == ref.trail
    assert store.bindings == ref.bindings
    assert frame == ref_frame
    if ok:
        assert (rename_apart(clause, frame, counter)
                == _ref_rename_apart(clause, ref_frame, ref_counter))
        assert frame == ref_frame
    assert counter.next_var() == ref_counter.next_var()


@given(_nested(_head_terms), st.lists(st.sampled_from(["X", "Y"])))
def test_rename_term_matches_the_recursive_form_exactly(t, seen):
    mapping = {var(name).id: Int(7) for name in seen}
    ref_mapping, counter, ref_counter = dict(mapping), FreshVars(), FreshVars()
    assert (rename_term(t, mapping, counter)
            == _ref_rename_term(t, ref_mapping, ref_counter))
    assert list(mapping.items()) == list(ref_mapping.items())
    assert counter.next_var() == ref_counter.next_var()


def test_unify_atoms_walks_a_head_deeper_than_the_recursion_limit():
    head, goal = var("X"), var("A")
    for i in range(sys.getrecursionlimit() + 100):
        head, goal = mk("s", head, Int(i)), mk("s", goal, Int(i))
    store, frame = Store(), {}
    assert store.unify_atoms(mk("p", head), mk("p", goal), frame, FreshVars())
    assert frame == {var("X").id: var("A")}


# every binding is trailed, and only once: `Store.undo(0)` clears the
# store on that ground
_store_ops = st.lists(st.one_of(
    st.tuples(st.just("unify"), _goal_terms, _goal_terms),
    st.tuples(st.just("atoms"), _clause_goal_and_bindings()),
    st.tuples(st.just("undo"), st.integers(0, 4))), max_size=6)


@given(_store_ops)
def test_every_binding_is_trailed(ops):
    store, counter, marks = Store(), FreshVars(), [0]
    for op in ops:
        if op[0] == "unify":
            store.unify(op[1], op[2])
        elif op[0] == "atoms":
            clause, goal, _ = op[1]
            store.unify_atoms(clause.head, goal, {}, counter)
        else:
            store.undo(marks[min(op[1], len(marks) - 1)])
            marks = [m for m in marks if m <= store.mark()]
        assert set(store.bindings) == set(store.trail)
        assert len(store.trail) == len(set(store.trail))
        marks.append(store.mark())
    store.undo(0)
    assert store.bindings == {} and store.trail == []


# stores whose bindings may chain, and may loop back, through these
_STORE_VARS = [Var(-i) for i in range(1, 5)]
_store_terms = _compounds(st.one_of(
    st.sampled_from(_STORE_VARS), st.integers(0, 1).map(Int),
    st.sampled_from(["a", "b"]).map(const)))


def _ref_resolve(bindings, t, path):
    """The copying deep dereference `Store.resolve` replaced, kept as its
    oracle: ``path`` holds the variables whose values are being
    resolved."""
    while isinstance(t, Var):
        if t.id in path:
            return t  # cyclic binding, leave the variable
        nxt = bindings.get(t.id)
        if nxt is None:
            return t
        path = path + (t.id,)
        t = nxt
    if isinstance(t, Compound) and t.args:
        return Compound(t.functor,
                        tuple(_ref_resolve(bindings, a, path) for a in t.args))
    return t


@given(st.dictionaries(st.sampled_from([v.id for v in _STORE_VARS]),
                       _store_terms, max_size=4),
       _store_terms)
def test_resolve_ground_is_resolve_of_a_ground_value(bindings, t):
    store = Store()
    for vid, value in bindings.items():
        store.bindings[vid] = value
        store.trail.append(vid)
    ref = _ref_resolve(store.bindings, t, ())
    got = store.resolve_ground(t)
    event(f"ground: {got is not None}, cyclic: {_cyclic(store)}")
    assert store.resolve(t) == ref
    if term_vars(ref):
        assert got is None
    else:
        assert got == ref
    if not set(term_vars(t)) & store.bindings.keys():
        # nothing to resolve: shared, not copied
        assert store.resolve(t) is t
        assert got is None or got is t


def test_resolve_follows_a_chain_longer_than_the_recursion_limit():
    store, n = Store(), 5000
    for i in range(1, n):
        store.bindings[-i] = Var(-i - 1)
        store.trail.append(-i)
    store.bindings[-n] = Int(7)
    store.trail.append(-n)
    assert store.resolve(Var(-1)) == Int(7)
    assert store.resolve_ground(Var(-1)) == Int(7)



def test_resolve_follows_a_long_chain_in_linear_time():
    # the cycle test is a constant-time lookup per link: a quadratic one
    # takes about 13 s for these 50,000 links on CPython 3.11
    store, n = Store(), 50_000
    for i in range(1, n):
        store.bindings[-i] = Var(-i - 1)
    store.bindings[-n] = Int(7)
    start = time.perf_counter()
    assert store.resolve(Var(-1)) == Int(7)
    assert store.resolve_ground(Var(-1)) == Int(7)
    assert time.perf_counter() - start < 2.0


# ---- program indexing ----

def test_program_first_arg_index():
    cf = Clause(mk("p", mk("f", var("X"))), ())
    cg = Clause(mk("p", mk("g", var("X"))), ())
    cy = Clause(mk("p", var("Y")), ())
    p = Program((cf, cg, cy))
    # each key's bucket: its clauses and the variable-keyed ones, in order
    assert p.select(mk("p", mk("f", const("a"))), {}) == (cf, cy)
    assert p.select(mk("p", mk("g", var("Z"))), {}) == (cg, cy)
    assert p.select(mk("p", var("Z")), {}) == (cf, cg, cy)
    assert p.select(mk("p", const("h")), {}) == (cy,)
    assert p.select(mk("q", const("h")), {}) == ()
    # the goal's argument is dereferenced through the bindings
    z, w = var("Z"), var("W")
    assert p.select(mk("p", z), {z.id: w, w.id: mk("g", z)}) == (cg, cy)
    # one level down: the beta head is not tried on a curried application
    a, b, c, t, v = var("A"), var("B"), var("C"), var("T"), var("V")
    beta = Clause(mk("step", mk("app", mk("lam", var("X"), b), a), t), ())
    cong = Clause(mk("step", mk("app", a, b), mk("app", c, b)), ())
    step = Program((beta, cong))
    curried = mk("app", mk("app", var("F"), a), b)
    assert step.select(mk("step", curried, t), {}) == (cong,)
    assert step.select(mk("step", mk("app", mk("lam", v, b), a), t),
                       {}) == (beta, cong)
    # an unbound argument one level down selects the whole bucket, and a
    # bound one is dereferenced through the bindings
    assert step.select(mk("step", mk("app", v, a), t), {}) == (beta, cong)
    assert step.select(mk("step", mk("app", v, a), t),
                       {v.id: w, w.id: curried}) == (cong,)
    # a clause whose first body goal reads one of those two positions and
    # calls a predicate whose heads all key their first argument is not
    # selected where that goal would select no clause
    value, eval_id, eval_step, beta, lit_add, left, right = parse_clauses(
        "value(lam(X,B)).\n"
        "eval(E1,E1) :- value(E1).\n"
        "eval(E1,E3) :- step(E1,E2), eval(E2,E3).\n"
        "step(app(lam(X,B),A),T) :- substitute(B,X,A,T).\n"
        "step(add(lit(A),lit(B)),lit(C)) :- int_add(A,B,C).\n"
        "step(add(T1,T2),add(T3,T2)) :- step(T1,T3).\n"
        "step(add(V,T1),add(V,T2)) :- value(V), step(T1,T2).\n")
    clauses = (value, eval_id, eval_step, beta, lit_add, left, right)
    redex = parse_term("app(lam(x,var(x)),lit(1))")
    nested = parse_term("add(add(lit(1),lit(2)),lit(3))")
    closed = Program(clauses)
    assert closed.select(mk("eval", redex, t), {}) == (eval_step,)
    assert closed.select(mk("eval", parse_term("lam(x,var(x))"), t),
                         {}) == (eval_id,)
    assert closed.select(mk("eval", v, t), {}) == (eval_id, eval_step)
    assert closed.select(mk("step", nested, t), {}) == (left,)
    # a predicate the caller may still give clauses to drops nothing
    open_value = Program(clauses, open_preds={value.head.functor})
    assert open_value.select(mk("eval", redex, t), {}) == (eval_id, eval_step)
    assert open_value.select(mk("step", nested, t), {}) == (left, right)


# the first arguments heads and goals draw from: variables, constants,
# compounds and ints, compounds that differ one level down, and for goals
# keys that no head has, at either level
_HEAD_FIRST = [var("X"), const("a"), const("b"), mk("f", const("a")),
               mk("f", const("b")), mk("f", Int(1)), mk("f", mk("g", var("Y"))),
               mk("f", var("X")), Int(1), Int(2)]
_GOAL_FIRST = _HEAD_FIRST + [const("c"), mk("g", var("Z")), Int(3),
                             mk("f", const("c")), mk("f", var("Z"))]
_PREDS = [symbol("p", 0), symbol("p", 1), symbol("q", 2)]
# the predicate every generated clause calls first in its body
_CALLEE = symbol("s", 1)


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


def _chain(links, end):
    """Bindings that lead from the first link through the others to
    ``end``, and the term that starts the chain."""
    return ({v.id: t for v, t in zip(links, links[1:] + [end])},
            links[0] if links else end)


def _keeps(head_first, goal_first):
    """Whether the scan keeps a head's first argument for a goal's, both
    dereferenced: their keys agree, or one is a variable."""
    keys = (_scan_key(head_first), _scan_key(goal_first))
    return None in keys or keys[0] == keys[1]


def _body_arg(head, reads):
    """The first argument of a clause's first body goal: the head's first
    argument (``"arg"``), that argument's own first argument (``"sub"``),
    or else a variable of the body alone."""
    t = head.args[0] if head.args else None
    if reads == "sub":
        t = t.args[0] if isinstance(t, Compound) and t.args else None
    return var("W") if reads is None or t is None else t


def _read(c, first, sub):
    """What a clause's first body goal takes for its first argument when
    that is the head's variable at a position `select` reads: the goal's
    first argument, or that argument's own, both dereferenced; else None."""
    b = c.body[0].args[0]
    t = c.head.args[0] if c.head.args else None
    if not isinstance(b, Var):
        return None
    if b == t:
        return first
    if isinstance(t, Compound) and t.args and b == t.args[0]:
        return sub
    return None


@given(st.lists(st.tuples(st.sampled_from(_PREDS),
                          # half the heads have a variable at a position
                          # `select` reads, for the body goal to take
                          st.sampled_from(_HEAD_FIRST)
                          | st.sampled_from([var("X"), mk("f", var("X"))]),
                          st.sampled_from([None, "arg", "sub"])),
                max_size=10),
       st.lists(st.sampled_from(_HEAD_FIRST), max_size=3),
       st.integers(0, 2), st.integers(0, 2))
def test_bucket_equals_the_key_filter_scan(heads, callee, chain, inner):
    clauses = []
    for p, f, reads in heads:
        head = _literal(p, f)
        clauses.append(Clause(head, (Compound(_CALLEE,
                                              (_body_arg(head, reads),)),)))
    # the callee's heads: sometimes all keyed, sometimes not, or none
    callee_heads = [_literal(_CALLEE, f) for f in callee]
    program = Program(clauses + [Clause(h, ()) for h in callee_heads])
    # every goal against the one program drawn
    for pred in _PREDS + [symbol("r", 1)]:
        for first in _GOAL_FIRST:
            _check_bucket(program, clauses, callee_heads, pred, first, chain,
                          inner)


def _check_bucket(program, clauses, callee_heads, pred, first, chain, inner):
    # the first argument, reached through a chain of bindings, and for a
    # compound its own first argument, reached through another
    bindings, sub = {}, None
    if isinstance(first, Compound) and first.args:
        sub = first.args[0]
        bindings, arg = _chain([Var(-10 - i) for i in range(inner)], sub)
        first = Compound(first.functor, (arg,) + first.args[1:])
    outer, start = _chain([Var(-1 - i) for i in range(chain)], first)
    bindings.update(outer)
    goal = _literal(pred, start)
    one_level = [c for c in clauses if c.head.functor is pred
                 and (not c.head.args or _keeps(c.head.args[0], first))]
    # one level down: a head's first argument's own first argument
    heads_only = [c for c in one_level
                  if not c.head.args or not isinstance(c.head.args[0], Compound)
                  or not c.head.args[0].args or sub is None
                  or _keeps(c.head.args[0].args[0], sub)]
    # and the first body goal: a clause is dropped when that goal takes
    # the goal's argument, bound, at a position read above, and the callee
    # has heads, none of which keeps it
    scan = []
    for c in heads_only:
        read = _read(c, first, sub)
        if (read is None or _scan_key(read) is None or not callee_heads
                or any(_keeps(h.args[0], read) for h in callee_heads)):
            scan.append(c)
    bucket = program.select(goal, bindings)
    assert [id(c) for c in bucket] == [id(c) for c in scan], goal
    # sound: every clause the one-level scan keeps and the bucket drops
    # fails to unify with the goal, or its renamed first body goal then
    # selects no clause
    kept = {id(c) for c in bucket}
    for c in one_level:
        if id(c) not in kept:
            store = Store()
            store.bindings.update(bindings)
            frame, counter = {}, FreshVars(100)
            if store.unify_atoms(c.head, goal, frame, counter):
                event("dropped by the first body goal")
                body = rename_apart(c, frame, counter)
                assert program.select(body[0], store.bindings) == ()
