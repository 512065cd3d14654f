import random

from alcove_hecke import memo
from alcove_hecke.engine import build_engine


def test_memo_computes_once_per_key_and_empties_when_full(monkeypatch):
    monkeypatch.setattr(memo, "MEMO_CAP", 3)
    calls = []
    table = memo.Memo(lambda k: calls.append(k) or k * k)
    assert [table[k] for k in (1, 2, 1, 3, 2, 3)] == [1, 4, 1, 9, 4, 9]
    assert calls == [1, 2, 3]
    # full: the table is emptied before the new value is stored
    assert table[4] == 16
    assert dict(table) == {4: 16}
    assert table[1] == 1
    assert calls == [1, 2, 3, 4, 1]


def test_put_empties_a_full_table(monkeypatch):
    monkeypatch.setattr(memo, "MEMO_CAP", 3)
    table = memo.Memo(lambda k: -k)
    for k in range(3):
        table.put(k, k)
    assert dict(table) == {0: 0, 1: 1, 2: 2}
    table.put(9, 9)
    assert dict(table) == {9: 9}
    assert table[1] == -1 and len(table) == 2


def test_engine_tables_stay_under_a_small_cap(monkeypatch):
    # every write, by a lookup that misses or by put, is checked against the
    # cap, and the answers match an engine whose tables are never emptied
    reference = build_engine("A2_adj")
    monkeypatch.setattr(memo, "MEMO_CAP", 6)
    real_put = memo.Memo.put
    writes = []

    def checked_put(table, key, value):
        real_put(table, key, value)
        writes.append(key)
        assert len(table) <= 6

    monkeypatch.setattr(memo.Memo, "put", checked_put)
    eng = build_engine("A2_adj")
    ext = eng.ext
    a = eng.parabolic(["s1"])
    for x in eng.alc.restricted_elements()[:4]:
        f = eng.groth.projective_filtration(x)
        assert f == reference.groth.projective_filtration(x)
        assert eng.groth.av_psi(f, a) == reference.groth.av_psi(f, reference.parabolic(["s1"]))
    rng = random.Random(101)
    for _ in range(100):
        x, y = ext.random_element(rng, 3), ext.random_element(rng, 3)
        assert eng.order.leq(x, y) == reference.order.leq(x, y)
        assert ext.bruhat_leq(x, y) == reference.ext.bruhat_leq(x, y)
    assert len(writes) > 100 * 6
