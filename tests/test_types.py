"""Type algebra: normalization, subtyping, joins, unification.

Property tests generate random ground types and check the lattice laws;
directed tests pin the behaviors the checker depends on (singleton tuple
collapse, named-type upcasts, contravariant callable inputs, variable
widening along a named type's base chain, the "arity" marker in tuple
mismatch messages).
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdsl import types as ty

BIG = ty.Udt("NS.BigEndian", ty.Array(ty.QUBIT))
LITTLE = ty.Udt("NS.LittleEndian", ty.Array(ty.QUBIT))
PHASED = ty.Udt("NS.Phased", BIG)  # a named type over another named type


def prims():
    return st.sampled_from(
        [ty.INT, ty.DOUBLE, ty.BOOL, ty.STRING, ty.RANGE, ty.PAULI, ty.RESULT,
         ty.QUBIT, BIG, LITTLE, PHASED, ty.UNIT]
    )


def ground_types():
    return st.recursive(
        prims(),
        lambda inner: st.one_of(
            st.builds(ty.Array, inner),
            st.builds(lambda items: ty.Tuple(tuple(items)),
                      st.lists(inner, min_size=1, max_size=3)),
            st.builds(
                lambda i, o, op, v: ty.Callable(op, i, o, frozenset(v)),
                inner,
                inner,
                st.booleans(),
                st.sets(st.sampled_from([ty.ADJOINT, ty.CONTROLLED])),
            ),
        ),
        max_leaves=6,
    )


# ── Normalization ────────────────────────────────────────────────────────────


@given(ground_types())
def test_normalize_is_idempotent(t):
    once = ty.normalize(t)
    assert ty.normalize(once) == once


@given(ground_types())
def test_singleton_tuple_collapses(t):
    assert ty.normalize(ty.Tuple((t,))) == ty.normalize(t)
    assert ty.normalize(ty.Tuple((ty.Tuple((t,)),))) == ty.normalize(t)


def test_unit_is_the_empty_tuple():
    assert ty.UNIT == ty.Tuple(())
    assert ty.normalize(ty.UNIT) == ty.UNIT


# ── Subtyping ────────────────────────────────────────────────────────────────


@given(ground_types())
def test_subtype_is_reflexive(t):
    assert ty.subtype(t, t)


@given(ground_types(), ground_types())
def test_subtype_is_antisymmetric_up_to_normalization(a, b):
    if ty.subtype(a, b) and ty.subtype(b, a):
        assert ty.normalize(a) == ty.normalize(b)


def test_named_type_upcasts_along_its_base_chain():
    assert ty.subtype(BIG, ty.Array(ty.QUBIT))
    assert ty.subtype(PHASED, BIG)
    assert ty.subtype(PHASED, ty.Array(ty.QUBIT))  # transitive


def test_base_never_downcasts_to_named_type():
    assert not ty.subtype(ty.Array(ty.QUBIT), BIG)


def test_sibling_named_types_are_unrelated():
    assert not ty.subtype(BIG, LITTLE)
    assert not ty.subtype(LITTLE, BIG)


def test_singleton_tuple_equivalence_in_subtyping():
    assert ty.subtype(ty.Tuple((ty.INT,)), ty.INT)
    assert ty.subtype(ty.INT, ty.Tuple((ty.INT,)))


def test_callable_input_is_contravariant():
    takes_base = ty.Callable(True, ty.Array(ty.QUBIT), ty.UNIT)
    takes_udt = ty.Callable(True, BIG, ty.UNIT)
    # an operation on any Qubit[] serves where one on BigEndian is wanted
    assert ty.subtype(takes_base, takes_udt)
    assert not ty.subtype(takes_udt, takes_base)


def test_callable_variants_may_shrink_not_grow():
    both = ty.Callable(True, ty.QUBIT, ty.UNIT, ty.BOTH_VARIANTS)
    bare = ty.Callable(True, ty.QUBIT, ty.UNIT)
    assert ty.subtype(both, bare)
    assert not ty.subtype(bare, both)


def test_function_never_matches_operation():
    fn = ty.Callable(False, ty.INT, ty.INT)
    op = ty.Callable(True, ty.INT, ty.INT)
    assert not ty.subtype(fn, op)
    assert not ty.subtype(op, fn)


# ── Joins ────────────────────────────────────────────────────────────────────


@given(ground_types())
def test_join_with_self_is_identity(t):
    assert ty.join(t, t) == ty.normalize(t)


@given(ground_types(), ground_types())
def test_join_is_commutative(a, b):
    assert ty.join(a, b) == ty.join(b, a)


@given(ground_types(), ground_types())
def test_join_is_an_upper_bound(a, b):
    j = ty.join(a, b)
    if j is not None:
        assert ty.subtype(a, j)
        assert ty.subtype(b, j)


def test_join_of_sibling_named_types_is_their_base():
    assert ty.join(BIG, LITTLE) == ty.Array(ty.QUBIT)


def test_join_of_unrelated_primitives_is_none():
    assert ty.join(ty.INT, ty.BOOL) is None


# ── Unification ──────────────────────────────────────────────────────────────


def test_fresh_variable_binds_to_actual():
    v = ty.fresh_param("`T")
    bindings: ty.Bindings = {}
    ty.unify(ty.Array(v), ty.Array(ty.INT), bindings)
    assert ty.substitute(v, bindings) == ty.INT


def test_variable_widens_along_named_type_base():
    # first use binds `T to BigEndian; a later Qubit[] use widens it
    v = ty.fresh_param("`T")
    bindings: ty.Bindings = {}
    ty.unify(v, BIG, bindings)
    ty.unify(v, ty.Array(ty.QUBIT), bindings)
    assert ty.substitute(v, bindings) == ty.Array(ty.QUBIT)


def test_conflicting_variable_uses_fail():
    v = ty.fresh_param("`T")
    bindings: ty.Bindings = {}
    ty.unify(v, ty.INT, bindings)
    with pytest.raises(ty.UnifyError):
        ty.unify(v, ty.BOOL, bindings)


def test_occurs_check_rejects_infinite_types():
    v = ty.fresh_param("`T")
    with pytest.raises(ty.UnifyError):
        ty.unify(v, ty.Array(v), {})


def test_tuple_arity_error_message_mentions_arity():
    # the checker keys call-shape-mismatch off this marker
    with pytest.raises(ty.UnifyError, match="arity"):
        ty.unify(
            ty.Tuple((ty.INT, ty.INT)),
            ty.Tuple((ty.INT, ty.INT, ty.INT)),
            {},
        )


def test_udt_argument_unifies_against_base_structure():
    v = ty.fresh_param("`T")
    bindings: ty.Bindings = {}
    # expecting `T[] and passing BigEndian infers `T = Qubit
    ty.unify(ty.Array(v), BIG, bindings)
    assert ty.substitute(v, bindings) == ty.QUBIT


def test_rigid_parameters_do_not_unify_with_ground_types():
    rigid = ty.Param("`T", None)
    with pytest.raises(ty.UnifyError):
        ty.unify(rigid, ty.INT, {})


def test_singleton_tuples_unify_transparently():
    ty.unify(ty.Tuple((ty.INT,)), ty.INT, {})
    ty.unify(ty.INT, ty.Tuple((ty.INT,)), {})


def test_instantiate_produces_independent_fresh_variables():
    rigid = ty.Param("`T", None)
    scheme = ty.Callable(False, rigid, rigid)
    m1 = {"`T": ty.fresh_param("`T")}
    m2 = {"`T": ty.fresh_param("`T")}
    t1 = ty.instantiate(scheme, m1)
    t2 = ty.instantiate(scheme, m2)
    assert t1.input == t1.output  # same var inside one instantiation
    assert t1.input != t2.input  # different across instantiations
    assert ty.contains_var(t1)
    assert t1.input.uid is not None and t1.output.uid is not None


@given(ground_types())
def test_unify_accepts_any_type_against_itself(t):
    ty.unify(t, t, {})


@given(ground_types())
def test_substitute_on_ground_types_is_normalization(t):
    assert ty.substitute(t, {}) == ty.normalize(t)
