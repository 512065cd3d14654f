from alcove_hecke import memo


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
