"""The in-place writers (replace_touched, add_into, apply_batch) and the one
write under them (storage._splice) against dict oracles, when a write copies
a block's arrays, and the cost of the writers' searches: each looks up the
batch's keys, never the block's own."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynspgemm import (
    PLUS_TIMES_I64,
    DcsrBlock,
    OP_DELETE,
    OP_UPSERT,
    add_into,
    apply_batch,
    or_into,
    redistribute,
    storage,
    update_batch,
)
from dynspgemm.storage import (
    BLOOM_CODEC,
    dcsr_deserialize,
    dcsr_serialize,
    replace_touched,
    semiring_codec,
)

BATCH = 10   # at most this many keys in a batch


def _block(n_cols: int, entries: dict, n_rows: int = 1, dtype=np.int64):
    """Block of {key: value}, keys r * n_cols + c."""
    keys = np.array(sorted(entries), dtype=np.int64)
    vals = np.array([entries[k] for k in keys.tolist()], dtype=dtype)
    return DcsrBlock(n_rows, n_cols, keys, vals)


def _entries(b: DcsrBlock) -> dict:
    b.check()
    return dict(zip(b.keys().tolist(), b.vals.tolist()))


@st.composite
def _case(draw):
    """(n_rows, n_cols, dst, batch): dst a {key: value} map, small or large,
    and a sorted batch of at most BATCH distinct keys, some held by dst, some
    not, anywhere before, between or after dst's keys."""
    values = st.integers(-100, 100)
    if draw(st.booleans()):
        n_rows, n_cols = 512, 256
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        keys = rng.choice(n_rows * n_cols, size=8_000, replace=False)
        dst = dict(zip(keys.tolist(), rng.integers(-100, 100, len(keys)).tolist()))
    else:
        n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 8))
        dst = draw(st.dictionaries(st.integers(0, n_rows * n_cols - 1), values,
                                   max_size=n_rows * n_cols))
    held = draw(st.lists(st.sampled_from(sorted(dst)), min_size=1,
                         max_size=BATCH // 2) if dst else st.just([]))
    other = draw(st.lists(st.integers(0, n_rows * n_cols - 1), min_size=1,
                          max_size=BATCH - len(held)))
    return n_rows, n_cols, dst, sorted(set(held) | set(other))


_settings = settings(max_examples=100, derandomize=True, deadline=None,
                     database=None)


@_settings
@given(case=_case(), data=st.data())
def test_replace_touched_matches_dict_oracle(case, data):
    n_rows, n_cols, dst, touched = case
    src = {k: data.draw(st.integers(-100, 100)) for k in touched
           if data.draw(st.booleans())}
    want = {k: v for k, v in dst.items() if k not in set(touched)} | src
    d = _block(n_cols, dst, n_rows)
    deleted = replace_touched(d, _block(n_cols, dict.fromkeys(touched, 0), n_rows),
                              _block(n_cols, src, n_rows))
    assert _entries(d) == want
    assert deleted == sum(k in dst and k not in src for k in touched)


@_settings
@given(case=_case(), data=st.data(),
       fold=st.sampled_from([np.add, np.minimum]))
def test_add_into_matches_dict_oracle(case, data, fold):
    n_rows, n_cols, dst, batch = case
    src = {k: data.draw(st.integers(-100, 100)) for k in batch}
    want = dict(dst)
    for k, v in src.items():
        want[k] = int(fold(want[k], v)) if k in want else v
    d = _block(n_cols, dst, n_rows)
    add_into(d, _block(n_cols, src, n_rows), fold)
    assert _entries(d) == want


@_settings
@given(case=_case(), data=st.data())
def test_apply_batch_matches_dict_oracle(case, data):
    n_rows, n_cols, dst, batch = case
    # a record for every batch key in any order, then some keys again
    op, value = st.booleans(), st.integers(-100, 100)
    recs = [(k, data.draw(op), data.draw(value))
            for k in data.draw(st.permutations(batch))]
    recs += data.draw(st.lists(st.tuples(st.sampled_from(batch), op, value),
                               max_size=BATCH // 2))
    want = dict(dst)
    inserted = deleted = 0
    for k, upsert, v in recs:
        if upsert:
            inserted += k not in want
            want[k] = v
        elif want.pop(k, None) is not None:
            deleted += 1
    d = _block(n_cols, dst, n_rows)
    keys = np.array([k for k, _, _ in recs], dtype=np.int64)
    ops = [OP_UPSERT if u else OP_DELETE for _, u, _ in recs]
    records = update_batch(PLUS_TIMES_I64, keys // n_cols, keys % n_cols,
                           [v for _, _, v in recs], ops)
    assert apply_batch(d, records, PLUS_TIMES_I64, 0, 0) == (inserted, deleted)
    assert _entries(d) == want


def test_writers_insert_before_between_and_after():
    dst = {5: 50, 9: 90}
    d = _block(16, dst)
    touched = _block(16, dict.fromkeys([0, 5, 7, 9, 15], 0))
    assert replace_touched(d, touched, _block(16, {0: 1, 7: 2, 9: 3, 15: 4})) == 1
    assert _entries(d) == {0: 1, 7: 2, 9: 3, 15: 4}

    d = _block(16, dst)
    add_into(d, _block(16, {0: 1, 7: 2, 9: 3, 15: 4}), np.add)
    assert _entries(d) == {0: 1, 5: 50, 7: 2, 9: 93, 15: 4}

    d = _block(16, dst)
    batch = update_batch(PLUS_TIMES_I64, [0] * 5, [0, 5, 7, 9, 15],
                         [1, 0, 2, 0, 4], [OP_UPSERT, OP_DELETE, OP_UPSERT,
                                           OP_DELETE, OP_UPSERT])
    assert apply_batch(d, batch, PLUS_TIMES_I64, 0, 0) == (3, 2)
    assert _entries(d) == {0: 1, 7: 2, 15: 4}


def test_writers_on_empty_blocks():
    none = _block(16, {})
    d = _block(16, {})
    assert replace_touched(d, _block(16, {3: 0}), _block(16, {3: 7})) == 0
    assert _entries(d) == {3: 7}
    d = _block(16, {3: 7, 4: 8})
    assert replace_touched(d, none, none) == 0                # nothing touched
    assert _entries(d) == {3: 7, 4: 8}
    assert replace_touched(d, _block(16, {4: 0, 5: 0}), none) == 1   # src empty
    assert _entries(d) == {3: 7}

    d = _block(16, {})
    add_into(d, _block(16, {2: 1}), np.add)
    add_into(d, none, np.add)
    assert _entries(d) == {2: 1}

    d = _block(16, {})
    assert apply_batch(d, update_batch(PLUS_TIMES_I64, [], []),
                       PLUS_TIMES_I64, 0, 0) == (0, 0)
    assert _entries(d) == {}


def test_replace_touched_rejects_src_outside_touched():
    d = _block(16, {5: 50, 9: 90})
    with pytest.raises(ValueError, match="not a touched key"):
        replace_touched(d, _block(16, {1: 0}), _block(16, {5: 1}))
    assert _entries(d) == {5: 50, 9: 90}                      # unchanged
    with pytest.raises(ValueError, match="not a touched key"):
        replace_touched(d, _block(16, {}), _block(16, {2: 1}))


def test_writers_refuse_blocks_of_another_shape():
    # under the wrong width, key 1 * 2 + 1 = 3 would name (0, 3) of a 2x4
    # block: every writer raises before any entry changes
    src = DcsrBlock(4, 2, np.array([3]), np.array([1]))
    for write in (lambda d: add_into(d, src, np.add),
                  lambda d: or_into(d, src),
                  lambda d: replace_touched(d, src, src),
                  lambda d: replace_touched(d, _block(4, {3: 0}, 2), src)):
        for dst in ({}, {0: 5}):
            d = _block(4, dst, 2)
            with pytest.raises(ValueError, match="4x2, dst is 2x4"):
                write(d)
            assert _entries(d) == dst


def test_writers_search_only_with_the_batch(monkeypatch):
    """On a 131,072-entry block and a batch of BATCH keys, every search the
    writers make goes through locate with at most BATCH queries."""
    queries = []
    real = storage.locate

    def counting(keys, q):
        queries.append(len(q))
        return real(keys, q)

    monkeypatch.setattr(storage, "locate", counting)
    monkeypatch.setattr(redistribute, "locate", counting)
    n = 512
    dst = dict.fromkeys(range(0, n * n, 2), 1)     # every even key
    # held and absent keys, with the block's first and last keys among them
    batch = [0, 1, 2, 1001, 5000, 70_001, 70_002, 100_003, n * n - 2, n * n - 1]
    assert len(dst) >= 100_000 and len(batch) == BATCH

    def run(write, dtype=np.int64):
        queries.clear()
        d = _block(n, dst, n, dtype)
        write(d)
        d.check()
        assert queries and max(queries) <= BATCH

    touched = _block(n, dict.fromkeys(batch, 0), n)
    src = _block(n, dict.fromkeys(batch[::2], 5), n)
    run(lambda d: replace_touched(d, touched, src))
    run(lambda d: add_into(d, src, np.add))
    bits = _block(n, dict.fromkeys(batch, 4), n, dtype=np.uint64)
    run(lambda d: or_into(d, bits), np.uint64)
    keys = np.array(batch, dtype=np.int64)
    records = update_batch(PLUS_TIMES_I64, keys // n, keys % n, 3,
                           [OP_DELETE, OP_UPSERT] * (BATCH // 2))
    run(lambda d: apply_batch(d, records, PLUS_TIMES_I64, 0, 0))


def _bits_of(entries: dict) -> dict:
    """A bitfield per key, derived from the key, for a second value array."""
    return {k: (k * 2654435761) % 2 ** 64 for k in entries}


@_settings
@given(case=_case(), data=st.data(), pass_lookup=st.booleans())
def test_replace_touched_on_two_blocks_matches_two_single_calls(
        case, data, pass_lookup):
    """C and F replaced together from Z and H end as two single-block calls
    leave them, on one key array object."""
    n_rows, n_cols, dst, touched = case
    src = {k: data.draw(st.integers(-100, 100)) for k in touched
           if data.draw(st.booleans())}
    t = _block(n_cols, dict.fromkeys(touched, 0), n_rows)
    z = _block(n_cols, src, n_rows)
    h = _block(n_cols, _bits_of(src), n_rows, np.uint64)

    c1 = _block(n_cols, dst, n_rows)
    f1 = _block(n_cols, _bits_of(dst), n_rows, np.uint64)
    want_deleted = replace_touched(c1, t, z)
    assert replace_touched(f1, t, h) == want_deleted

    c2 = _block(n_cols, dst, n_rows)
    f2 = _block(n_cols, _bits_of(dst), n_rows, np.uint64)
    storage.share_keys(f2, c2)
    lookup = storage.locate(c2.keys(), t.keys()) if pass_lookup else None
    assert replace_touched((c2, f2), t, (z, h), lookup) == want_deleted
    assert _entries(c2) == _entries(c1)
    assert _entries(f2) == _entries(f1)
    assert f2.vals.dtype == np.uint64
    assert c2.keys() is f2.keys()


def test_replace_touched_on_two_blocks_refuses_unshared_positions():
    """Unshared dst keys, unequal src keys or a src per dst missing: each
    raises before any entry changes."""
    dst = {5: 50, 9: 90}
    t = _block(16, dict.fromkeys([5, 7], 0))
    z, h = _block(16, {7: 1}), _block(16, {7: 2}, dtype=np.uint64)

    def blocks(shared: bool):
        c = _block(16, dst)
        f = _block(16, _bits_of(dst), dtype=np.uint64)   # equal keys, own array
        if shared:
            storage.share_keys(f, c)
        return c, f

    cases = [
        (blocks(False), (z, h), "do not share one key array"),
        (blocks(True), (z, _block(16, {5: 2}, dtype=np.uint64)),
         "src blocks hold different keys"),
        (blocks(True), (z, _block(16, {}, dtype=np.uint64)),
         "src blocks hold different keys"),
        (blocks(True), (z,), "1 src blocks for 2 dst blocks"),
    ]
    for (c, f), srcs, match in cases:
        keys = c.keys()
        with pytest.raises(ValueError, match=match):
            replace_touched((c, f), t, srcs)
        assert _entries(c) == dst and _entries(f) == _bits_of(dst)
        assert c.keys() is keys


def test_share_keys_refuses_other_positions():
    c = _block(16, {5: 50, 9: 90})
    f = _block(16, {5: 1}, dtype=np.uint64)
    with pytest.raises(ValueError, match="other positions"):
        storage.share_keys(f, c)
    assert _entries(f) == {5: 1} and f.keys() is not c.keys()
    wide = _block(8, {5: 1, 9: 1}, n_rows=2, dtype=np.uint64)
    with pytest.raises(ValueError, match="src is 1x16, dst is 2x8"):
        storage.share_keys(wide, c)
    f = _block(16, {5: 1, 9: 2}, dtype=np.uint64)
    storage.share_keys(f, c)
    assert f.keys() is c.keys() and _entries(f) == {5: 1, 9: 2}


def _c_and_f():
    """A product block C and its bitfields F on one key array object."""
    c = _block(16, {5: 50, 9: 90})
    f = _block(16, {5: 1, 9: 2}, dtype=np.uint64)
    storage.share_keys(f, c)
    return c, f


def test_writers_that_only_overwrite_keep_their_arrays():
    """A write that adds and deletes no key changes the values in place: C
    and F keep their key and value array objects."""
    t = _block(16, {5: 0, 9: 0})
    z, h = _block(16, {5: 7, 9: 8}), _block(16, {5: 3, 9: 4}, dtype=np.uint64)
    writes = [
        lambda c, f: add_into(c, _block(16, {9: 1}), np.add),
        lambda c, f: or_into(f, _block(16, {5: 4}, dtype=np.uint64)),
        lambda c, f: replace_touched(c, t, z),
        lambda c, f: replace_touched((c, f), t, (z, h)),
        lambda c, f: apply_batch(c, update_batch(
            PLUS_TIMES_I64, [0, 0], [5, 9], [7, 8]), PLUS_TIMES_I64, 0, 0),
    ]
    for write in writes:
        c, f = _c_and_f()
        arrays = (c.keys(), c.vals, f.vals)
        before = (_entries(c), _entries(f))
        write(c, f)
        assert all(x is y for x, y in zip((c.keys(), c.vals, f.vals), arrays))
        assert f.keys() is c.keys()
        assert (_entries(c), _entries(f)) != before


def test_a_key_added_or_deleted_gives_new_arrays():
    """A write that adds or deletes one key leaves C and F on one new shared
    key array; a write into C alone gives C a new one. The old key array is
    never written, so a block still holding it keeps its positions."""
    for touched, z, h, want in [({5: 0}, {}, {}, {9: 90}),
                                ({7: 0}, {7: 1}, {7: 2},
                                 {5: 50, 7: 1, 9: 90})]:
        c, f = _c_and_f()
        old = c.keys()
        replace_touched((c, f), _block(16, touched),
                        (_block(16, z), _block(16, h, dtype=np.uint64)))
        assert c.keys() is f.keys() and c.keys() is not old
        assert old.tolist() == [5, 9] and _entries(c) == want
    for write in (lambda c: add_into(c, _block(16, {7: 1}), np.add),
                  lambda c: apply_batch(c, update_batch(
                      PLUS_TIMES_I64, [0], [9], ops=OP_DELETE),
                      PLUS_TIMES_I64, 0, 0)):
        c, f = _c_and_f()
        write(c)
        assert c.keys() is not f.keys() and _entries(f) == {5: 1, 9: 2}


@_settings
@given(case=_case(), data=st.data(), n_blocks=st.integers(1, 2),
       empty=st.booleans(), delete_all=st.booleans(), read_only=st.booleans())
def test_splice_matches_dict_oracle(case, data, n_blocks, empty, delete_all,
                                    read_only):
    """Overwrites, deletes and inserts in one _splice call, on one block or on
    C and F sharing one key array, against a dict per block: from an empty
    destination, deleting every entry, and with inserted keys and values
    that are read-only views of a message."""
    n_rows, n_cols, dst, batch = case
    dst = {} if empty else dst
    value = st.integers(-100, 100)
    held = [k for k in batch if k in dst]
    gone = (sorted(dst) if delete_all
            else [k for k in held if data.draw(st.booleans())])
    kept = set(dst) - set(gone)
    over = {k: data.draw(value) for k in held if k in kept}
    new = {k: data.draw(value) for k in batch
           if k not in dst and data.draw(st.booleans())}

    def bits(entries):   # F's values: the same changes, as bitfields
        return {k: v % 2 ** 64 for k, v in entries.items()}

    c = _block(n_cols, dst, n_rows)
    f = _block(n_cols, bits(dst), n_rows, np.uint64)
    storage.share_keys(f, c)
    dsts = (c, f)[:n_blocks]
    new_blocks = (_block(n_cols, new, n_rows),
                  _block(n_cols, bits(new), n_rows, np.uint64))
    if read_only:
        new_blocks = tuple(
            dcsr_deserialize(dcsr_serialize(b, codec), codec)
            for b, codec in zip(new_blocks, (semiring_codec(PLUS_TIMES_I64),
                                             BLOOM_CODEC)))
        assert not new_blocks[0].keys().flags.writeable
    keys, new_keys = c.keys(), new_blocks[0].keys()
    at = keys.searchsorted(np.array(sorted(over), dtype=np.int64))
    storage._splice(
        dsts, at, [np.array(list(over.values())), np.array(
            list(bits(over).values()), dtype=np.uint64)][:n_blocks],
        keys.searchsorted(np.array(gone, dtype=np.int64)),
        keys.searchsorted(new_keys), new_keys,
        [b.vals for b in new_blocks][:n_blocks])

    want = {k: dst[k] for k in kept} | over | new
    for d, w in zip(dsts, (want, bits(want))):
        assert _entries(d) == w
        assert d.keys() is c.keys() and d.vals.flags.writeable
    assert c.vals.dtype == np.int64 and f.vals.dtype == np.uint64
    assert (c.keys() is keys) == (not gone and not new)
