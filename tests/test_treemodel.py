import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_tree
from oracles import int_cast_fits, reference_flatten
from treevault import docio
from treevault import (
    PLACEHOLDER,
    AbstractLeaf,
    CountingIterator,
    DenseArray,
    Scalar,
    Text,
    TreeStructureDoc,
    abstract_of,
    as_tree,
    cast_leaf,
    flatten,
    tree_equal,
    tree_metadata,
    unflatten,
)
from treevault.errors import CastError, TreeError
from treevault.treemodel import (
    DOCUMENT,
    STATEFUL,
    TREE,
    checkpointable_kind,
    inline_to_leaf,
    leaf_to_inline,
)


def arr(data, dtype="f32"):
    return DenseArray(dtype, np.asarray(data))


class TestFlatten:
    def test_single_leaf(self):
        pairs = flatten({"a": {"b": Scalar("i64", 1)}})
        assert pairs == [("a/b", Scalar("i64", 1))]

    def test_empty_tree(self):
        assert flatten({}) == []

    def test_order_matches_reference_walk(self):
        tree = {
            "w": arr(np.zeros((2, 2))),
            "opt": {"m": arr(np.ones((2, 2)))},
        }
        assert [p for p, _ in flatten(tree)] == [
            p for p, _ in reference_flatten(tree)
        ]
        assert [p for p, _ in flatten(tree)] == ["opt/m", "w"]

    def test_randomized_against_reference(self):
        rng = random.Random(7)
        for _ in range(50):
            tree = random_tree(rng)
            assert flatten(tree) == reference_flatten(tree)

    def test_bad_keys_rejected(self):
        with pytest.raises(TreeError):
            flatten({"a/b": Scalar("i64", 1)})
        with pytest.raises(TreeError):
            flatten({"": Scalar("i64", 1)})
        with pytest.raises(TreeError):
            flatten({3: Scalar("i64", 1)})


class TestUnflatten:
    def test_inverse_of_flatten(self):
        rng = random.Random(21)
        for _ in range(50):
            tree = random_tree(rng, allow_empty=False, allow_tuple=False)
            assert tree_equal(unflatten(flatten(tree)), tree)

    def test_structure_doc_recovers_tuples_and_empties(self):
        tree = {"x": (Scalar("i64", 1), Scalar("i64", 2)), "e": [], "m": {}}
        doc = tree_metadata(tree)
        rebuilt = unflatten(flatten(tree), doc)
        assert tree_equal(rebuilt, tree)
        assert isinstance(rebuilt["x"], tuple)
        assert rebuilt["e"] == [] and rebuilt["m"] == {}

    def test_leaf_set_mismatch_with_structure(self):
        doc = tree_metadata({"a": Scalar("i64", 1)})
        with pytest.raises(TreeError):
            unflatten([("b", Scalar("i64", 1))], doc)


class TestTreeMetadata:
    def test_empty_sequence_node_recorded(self):
        doc = tree_metadata({"a": []})
        assert doc.root["children"]["a"] == {"kind": "list", "children": []}

    def test_leaf_entry_shape_dtype(self):
        doc = tree_metadata({"w": arr(np.zeros((4, 2), np.float32))})
        assert doc.leaf_entries() == [
            ("w", {"variant": "array", "dtype": "f32", "shape": [4, 2]})
        ]

    def test_tuple_kind_round_trips(self):
        tree = {"x": (Scalar("i64", 1), Scalar("i64", 2))}
        doc = TreeStructureDoc(docio.loads(docio.dumps_canonical(tree_metadata(tree).root)))
        rebuilt = doc.reconstruct(dict(flatten(tree)).__getitem__)
        assert isinstance(rebuilt["x"], tuple)

    def test_serialization_round_trip_randomized(self):
        rng = random.Random(3)
        for _ in range(60):
            tree = random_tree(rng)
            doc = tree_metadata(tree)
            parsed = TreeStructureDoc(docio.loads(docio.dumps_canonical(doc.root)))
            assert parsed == doc
            assert tree_equal(
                parsed.reconstruct(dict(flatten(tree)).__getitem__), tree
            )

    def test_canonical_bytes_are_stable(self):
        tree = {"b": Scalar("i64", 1), "a": Text("x")}
        assert docio.dumps_canonical(tree_metadata(tree).root) == docio.dumps_canonical(
            tree_metadata({"a": Text("x"), "b": Scalar("i64", 1)}).root
        )


class TestAbstractOf:
    def test_scalar_leaf(self):
        abstract = abstract_of({"s": Scalar("i32", 5)})
        assert abstract["s"] == AbstractLeaf("scalar", dtype="i32")

    def test_array_with_sharding(self, monkeypatch):
        from conftest import sharded, simple_mesh

        mesh = simple_mesh(4, 2)
        s = sharded(mesh, (4, 2), "data")
        abstract = abstract_of({"w": arr(np.zeros((4, 2)))}, {"w": s})
        assert abstract["w"] == AbstractLeaf("array", (4, 2), "f32", s)

    def test_structure_preserved(self):
        rng = random.Random(11)
        for _ in range(30):
            tree = random_tree(rng)
            abstract = abstract_of(tree)
            assert [p for p, _ in flatten(abstract)] == [
                p for p, _ in flatten(tree)
            ]

    def test_unknown_sharding_path_rejected(self):
        with pytest.raises(TreeError):
            abstract_of({"w": arr([1.0])}, {"nope": None})


class TestCastLeaf:
    def test_f64_to_f32_exact(self):
        out = cast_leaf(Scalar("f64", 1.5), AbstractLeaf("scalar", dtype="f32"))
        assert out == Scalar("f32", 1.5)

    def test_rank0_array_to_scalar(self):
        out = cast_leaf(
            DenseArray("f32", np.array(7.0, np.float32)),
            AbstractLeaf("scalar", dtype="f32"),
        )
        assert out == Scalar("f32", 7.0)

    def test_scalar_to_rank0_array(self):
        out = cast_leaf(Scalar("f32", 7.0), AbstractLeaf("array", ()))
        assert out == DenseArray("f32", np.array(7.0, np.float32))

    def test_int_narrowing_overflow(self):
        with pytest.raises(CastError):
            cast_leaf(Scalar("i64", 2**40), AbstractLeaf("scalar", dtype="i32"))
        assert not int_cast_fits([2**40], "i32")

    def test_int_narrowing_in_range_ok(self):
        out = cast_leaf(Scalar("i64", 2**10), AbstractLeaf("scalar", dtype="i32"))
        assert out == Scalar("i32", 1024)
        assert int_cast_fits([2**10], "i32")

    def test_identity_returns_same_leaf(self):
        leaf = arr(np.ones((3,)))
        assert cast_leaf(leaf, AbstractLeaf("array", (3,), "f32")) is leaf

    def test_widen_then_narrow_is_identity(self):
        data = np.random.default_rng(0).standard_normal(64).astype(np.float32)
        leaf = DenseArray("f32", data)
        widened = cast_leaf(leaf, AbstractLeaf("array", (64,), "f64"))
        narrowed = cast_leaf(widened, AbstractLeaf("array", (64,), "f32"))
        assert narrowed == leaf

    def test_narrowing_rounds_to_nearest_even(self):
        value = float(np.nextafter(np.float64(1.0), 2.0))
        out = cast_leaf(Scalar("f64", value), AbstractLeaf("scalar", dtype="f32"))
        assert out.value == float(np.float32(np.float64(value)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(CastError):
            cast_leaf(arr(np.zeros((2, 2))), AbstractLeaf("array", (4,)))

    def test_non_integral_float_to_int_rejected(self):
        with pytest.raises(CastError):
            cast_leaf(Scalar("f64", 1.5), AbstractLeaf("scalar", dtype="i32"))

    def test_bool_casts_identity_only(self):
        leaf = Scalar("bool", True)
        assert cast_leaf(leaf, AbstractLeaf("scalar", dtype="bool")) == leaf
        with pytest.raises(CastError):
            cast_leaf(leaf, AbstractLeaf("scalar", dtype="i32"))

    def test_text_only_to_text(self):
        assert cast_leaf(Text("hi"), AbstractLeaf("text")) == Text("hi")
        with pytest.raises(CastError):
            cast_leaf(Text("hi"), AbstractLeaf("scalar", dtype="i32"))


@given(
    st.recursive(
        st.sampled_from(
            [Scalar("i64", 3), Scalar("f32", 0.5), Text("t"), None]
        ).map(lambda x: x if x is not None else DenseArray("f32", np.ones((2,), np.float32))),
        lambda inner: st.dictionaries(
            st.sampled_from(["a", "bb", "c3", "dd", "e"]), inner, max_size=3
        )
        | st.lists(inner, max_size=3),
        max_leaves=12,
    )
)
@settings(max_examples=60, deadline=None)
def test_metadata_round_trip_property(tree):
    doc = tree_metadata(tree)
    parsed = TreeStructureDoc(docio.loads(docio.dumps_canonical(doc.root)))
    assert parsed == doc
    rebuilt = parsed.reconstruct(dict(flatten(tree)).__getitem__)
    assert tree_equal(rebuilt, tree)


class TestInlineLeaves:
    @pytest.mark.parametrize(
        "leaf",
        [
            Scalar("i64", -(2**62)),
            Scalar("f64", 0.1),
            Scalar("f32", 3.5),
            Scalar("bool", True),
            Scalar("f64", float("inf")),
            Scalar("f64", float("nan")),
            Text("héllo ⚡"),
        ],
    )
    def test_round_trip(self, leaf):
        back = inline_to_leaf(leaf_to_inline(leaf))
        if isinstance(leaf, Scalar) and leaf.value != leaf.value:  # NaN
            assert back.dtype == leaf.dtype and back.value != back.value
        else:
            assert back == leaf

    def test_arrays_not_inlineable(self):
        with pytest.raises(TreeError):
            leaf_to_inline(arr([1.0, 2.0]))


class TestCoercion:
    def test_python_values(self):
        tree = as_tree({"a": 1, "b": 0.5, "c": True, "d": "x"})
        assert tree["a"] == Scalar("i64", 1)
        assert tree["b"] == Scalar("f64", 0.5)
        assert tree["c"] == Scalar("bool", True)
        assert tree["d"] == Text("x")

    def test_numpy_values(self):
        tree = as_tree({"w": np.zeros((2,), np.float32), "s": np.int32(7)})
        assert tree["w"] == arr(np.zeros((2,)))
        assert tree["s"] == Scalar("i32", 7)

    def test_rejects_unknown_types(self):
        with pytest.raises(TreeError):
            as_tree({"x": object()})


class TestHandlers:
    def test_resolution(self):
        from treevault import JsonDocument

        assert checkpointable_kind({"a": 1}) == TREE == "tree"
        assert checkpointable_kind(JsonDocument({"a": 1})) == DOCUMENT == "json"
        assert checkpointable_kind(CountingIterator()) == STATEFUL == "stateful"

    def test_counting_iterator_state(self):
        it = CountingIterator()
        next(it), next(it), next(it)
        state = it.save()
        next(it)
        restored = CountingIterator()
        restored.load(state)
        assert restored.index == 3
        assert next(restored) == 3


def test_placeholder_is_singleton_sentinel():
    from treevault.treemodel import _Placeholder

    assert _Placeholder() is PLACEHOLDER
    assert repr(PLACEHOLDER) == "PLACEHOLDER"
