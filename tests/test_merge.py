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


@st.composite
def _large_case(draw, held_share: float):
    """(n_rows, n_cols, dst, batch, rng): the 8,000-entry block as a
    {key: value} map, a sorted batch of 200 to 3,000 distinct keys of which
    held_share are held by dst, and a generator for the values."""
    n_rows, n_cols = 512, 256
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cells = rng.permutation(n_rows * n_cols)
    held, free = cells[:8_000], cells[8_000:]
    dst = dict(zip(held.tolist(), rng.integers(-100, 100, len(held)).tolist()))
    n = draw(st.integers(200, 3_000))
    n_held = round(held_share * n)
    batch = np.concatenate([held[:n_held], free[:n - n_held]])
    return n_rows, n_cols, dst, sorted(batch.tolist()), rng


def _frozen(*blocks) -> list:
    """Copies of the blocks' key and value arrays."""
    return [a.copy() for b in blocks for a in (b.keys(), b.vals)]


def _unchanged(frozen: list, *blocks) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(frozen, _frozen(*blocks)))


@pytest.mark.parametrize("held_share", [0, 0.3, 1])
@pytest.mark.parametrize("strict_subset", [False, True])
@settings(max_examples=8, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_replace_touched_large_batches_match_dict_oracle(held_share,
                                                         strict_subset, data):
    """Hundreds to thousands of touched keys, none, about a third or all of
    them held by dst, with src equal to touched or a strict subset of it."""
    n_rows, n_cols, dst, touched, rng = data.draw(_large_case(held_share))
    kept = np.ones(len(touched), dtype=bool)
    if strict_subset:
        kept = rng.random(len(touched)) < 0.5
        kept[rng.integers(len(touched))] = False
    values = rng.integers(-100, 100, len(touched)).tolist()
    src = {k: v for k, v, x in zip(touched, values, kept.tolist()) if x}
    t = _block(n_cols, dict.fromkeys(touched, 0), n_rows)
    s = _block(n_cols, src, n_rows)
    frozen = _frozen(t, s)
    d = _block(n_cols, dst, n_rows)
    deleted = replace_touched(d, t, s)
    gone = set(touched)
    assert _entries(d) == {k: v for k, v in dst.items() if k not in gone} | src
    assert deleted == sum(k in dst and k not in src for k in touched)
    assert _unchanged(frozen, t, s)


@pytest.mark.parametrize("held_share", [0, 0.3, 1])
@settings(max_examples=8, derandomize=True, deadline=None, database=None)
@given(data=st.data(), fold=st.sampled_from([np.add, np.minimum]))
def test_add_into_large_batches_match_dict_oracle(held_share, data, fold):
    n_rows, n_cols, dst, batch, rng = data.draw(_large_case(held_share))
    src = dict(zip(batch, rng.integers(-100, 100, len(batch)).tolist()))
    want = dict(dst)
    for k, v in src.items():
        want[k] = int(fold(want[k], v)) if k in want else v
    s = _block(n_cols, src, n_rows)
    frozen = _frozen(s)
    d = _block(n_cols, dst, n_rows)
    add_into(d, s, fold)
    assert _entries(d) == want
    assert _unchanged(frozen, s)


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


def _c():
    """A product block C."""
    return _block(16, {5: 50, 9: 90})


def test_writers_that_only_overwrite_keep_their_arrays():
    """A write that adds and deletes no key changes the values in place: the
    block keeps its key and value array objects."""
    t = _block(16, {5: 0, 9: 0})
    writes = [
        lambda c: add_into(c, _block(16, {9: 1}), np.add),
        lambda c: or_into(c, _block(16, {5: 4})),
        lambda c: replace_touched(c, t, _block(16, {5: 7, 9: 8})),
        lambda c: apply_batch(c, update_batch(
            PLUS_TIMES_I64, [0, 0], [5, 9], [7, 8]), PLUS_TIMES_I64, 0, 0),
    ]
    for write in writes:
        c = _c()
        arrays = (c.keys(), c.vals)
        before = _entries(c)
        write(c)
        assert all(x is y for x, y in zip((c.keys(), c.vals), arrays))
        assert _entries(c) != before


def test_a_key_added_or_deleted_gives_new_arrays():
    """A write that adds or deletes one key gives the block new key and value
    arrays. The old key array is never written, so a block still holding it
    keeps its positions."""
    writes = [
        lambda c: replace_touched(c, _block(16, {5: 0}), _block(16, {})),
        lambda c: replace_touched(c, _block(16, {7: 0}), _block(16, {7: 1})),
        lambda c: add_into(c, _block(16, {7: 1}), np.add),
        lambda c: apply_batch(c, update_batch(
            PLUS_TIMES_I64, [0], [9], ops=OP_DELETE), PLUS_TIMES_I64, 0, 0),
    ]
    for write in writes:
        c = _c()
        old = DcsrBlock(c.n_rows, c.n_cols, c.keys(), c.vals)
        write(c)
        assert c.keys() is not old.keys() and c.vals is not old.vals
        assert _entries(old) == {5: 50, 9: 90}


@_settings
@given(case=_case(), data=st.data(), empty=st.booleans(),
       delete_all=st.booleans(), read_only=st.booleans())
def test_splice_matches_dict_oracle(case, data, empty, delete_all, read_only):
    """Overwrites, deletes and inserts in one _splice call against a dict:
    from an empty destination, deleting every entry, and with inserted keys
    and values that are read-only views of a message."""
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

    c = _block(n_cols, dst, n_rows)
    new_block = _block(n_cols, new, n_rows)
    if read_only:
        codec = semiring_codec(PLUS_TIMES_I64)
        new_block = dcsr_deserialize(dcsr_serialize(new_block, codec), codec)
        assert not new_block.keys().flags.writeable
    keys, new_keys = c.keys(), new_block.keys()
    storage._splice(
        c, keys.searchsorted(np.array(sorted(over), dtype=np.int64)),
        np.array(list(over.values())),
        keys.searchsorted(np.array(gone, dtype=np.int64)),
        keys.searchsorted(new_keys), new_keys, new_block.vals)

    assert _entries(c) == {k: dst[k] for k in kept} | over | new
    assert c.vals.flags.writeable and c.vals.dtype == np.int64
    assert (c.keys() is keys) == (not gone and not new)


