"""Cayley table constructors, canonical element orders, axiom validation."""

import json
import tracemalloc

import numpy as np
import pytest

from nullity.groups import (MAX_GROUP_ORDER, CayleyGroup, cyclic, from_table, group_from_spec,
                            group_from_table_file, product, q8, s3,
                            validate_group)


def test_cyclic_layout():
    G = cyclic(4)
    assert G.order == 4
    assert G.spec == "C:4"
    assert G.table[1, 3] == 0
    assert G.table[2, 3] == 1
    assert G.is_abelian
    assert validate_group(G.table) is None
    assert list(G.inverses) == [0, 3, 2, 1]


def test_product_layout_first_factor_major():
    G = group_from_spec("C2xC2")
    assert G.order == 4
    assert G.spec == "C:2xC:2"
    assert G.structure == "product"
    # (i1, i2) lives at index i1*2 + i2
    assert G.table[1, 2] == 3
    assert G.table[3, 3] == 0
    assert G.is_abelian
    assert validate_group(G.table) is None
    H = group_from_spec("C:2 x C:3 x C:2")
    assert H.order == 12
    assert validate_group(H.table) is None


def test_s3_canonical_order():
    G = s3()
    assert not G.is_abelian
    assert validate_group(G.table) is None
    # composition applies the right factor first: (12)(13) = (132)
    assert G.table[1, 2] == 5
    assert G.table[2, 1] == 4
    assert G.table[4, 4] == 5
    assert sorted(int(G.table[i, i] == 0) for i in range(6)) == [0, 0, 1, 1, 1, 1]
    assert G.inverses[4] == 5


def test_q8_canonical_order():
    G = q8()
    assert not G.is_abelian
    assert validate_group(G.table) is None
    assert G.table[1, 4] == 5  # a * b = ab
    assert G.table[4, 1] == 7  # b * a = a^3 b
    assert G.table[4, 4] == 2  # b^2 = a^2
    assert G.table[1, 1] == 2
    # the unique element of order 2 is a^2
    assert [i for i in range(1, 8) if G.table[i, i] == 0] == [2]
    assert all(G.table[i, G.inverses[i]] == 0 for i in range(8))


def test_spec_parsing_variants():
    assert group_from_spec("C:6").order == 6
    assert group_from_spec("C6").order == 6
    assert group_from_spec("s3").spec == "S3"
    assert group_from_spec("q8").spec == "Q8"
    for bad in ("", "C:0", "D4", "C2yC2", "S4"):
        with pytest.raises(ValueError):
            group_from_spec(bad)
    for bad in ("C2x", "xC2", "C2xxC2"):
        with pytest.raises(ValueError, match=f"bad group spec '{bad}'"):
            group_from_spec(bad)


def test_group_order_bound_checked_before_building():
    n = MAX_GROUP_ORDER + 1  # 4097 = 17 * 241
    msg = f"group order {n} exceeds the bound {MAX_GROUP_ORDER}"
    with pytest.raises(ValueError, match=msg):
        cyclic(n)
    with pytest.raises(ValueError, match=msg):
        group_from_spec(f"C:{n}")
    with pytest.raises(ValueError, match=msg):
        product(cyclic(17), cyclic(241))
    with pytest.raises(ValueError, match=msg):
        from_table([[0]] * n)


def _peak_bytes(build) -> int:
    tracemalloc.start()
    try:
        build()
    except ValueError:
        pass
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak


def test_group_construction_memory():
    # the whole spec's order is checked before any table is built, and a
    # cyclic table is an n x n view of 2n - 1 integers, not 128 MiB at n = 4096
    with pytest.raises(ValueError, match="group order 8192 exceeds"):
        group_from_spec("C:4096xC:2")
    assert _peak_bytes(lambda: group_from_spec("C:4096xC:2")) < 1 << 20
    assert _peak_bytes(lambda: cyclic(4096)) < 1 << 20
    assert _peak_bytes(lambda: group_from_spec("C:4096")) < 1 << 20


def test_cyclic_table_is_the_addition_table():
    for n in range(1, 65):
        i = np.arange(n)
        assert np.array_equal(cyclic(n).table, np.add.outer(i, i) % n)


def test_validator_rejects_each_axiom_violation():
    ok = cyclic(3).table.copy()
    assert validate_group(ok) is None

    assert "square" in validate_group(np.zeros((2, 3), dtype=int))
    assert "out of range" in validate_group([[0, 1], [1, 9]])

    bad_identity = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
    msg = validate_group(np.array([[1, 0], [0, 1]]))
    assert msg == "identity axiom violated at j=0"
    msg = validate_group(np.array(bad_identity))
    assert msg == "column 1 is not a permutation"

    not_latin = [[0, 1, 2], [1, 0, 0], [2, 2, 1]]
    assert "not a permutation" in validate_group(np.array(not_latin))


def test_validator_catches_nonassociative_loop():
    # a Latin square with two-sided identity that is not a group
    loop = [[0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3]]
    msg = validate_group(np.array(loop))
    assert msg == "associativity violated at (i, j, k) = (1, 1, 2)"
    with pytest.raises(ValueError, match="associativity"):
        from_table(loop)


def test_from_table_and_file_roundtrip(tmp_path):
    G = from_table(s3().table.tolist(), spec="mystery6")
    assert G.order == 6
    assert G.structure == "table"
    assert G.spec == "mystery6"

    path = tmp_path / "klein.json"
    path.write_text(json.dumps(group_from_spec("C2xC2").table.tolist()))
    H = group_from_table_file(path)
    assert H.order == 4
    assert H.spec == "@klein"
    assert H.is_abelian

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not": "a table"}))
    with pytest.raises(ValueError, match="array of arrays"):
        group_from_table_file(bad)


def test_from_table_rejects_non_integer_entries(tmp_path):
    with pytest.raises(ValueError, match=r"\[0\]\[1\] = 1.7"):
        from_table([[0, 1.7], [1, 0.2]])
    with pytest.raises(ValueError, match=r"\[0\]\[0\] = False"):
        from_table([[False, True], [True, False]])
    path = tmp_path / "floats.json"
    path.write_text("[[0, 1], [1, 0.5]]")
    with pytest.raises(ValueError, match=r"\[1\]\[1\] = 0.5 is not an integer"):
        group_from_table_file(path)


def test_table_is_frozen():
    G = cyclic(5)
    with pytest.raises(ValueError):
        G.table[0, 0] = 3


def test_from_table_copies_the_callers_array():
    t = np.array([[0, 1], [1, 0]])
    G = from_table(t)
    assert t.flags.writeable
    t[0, 0] = 1  # the group keeps its own table
    assert G.table.tolist() == [[0, 1], [1, 0]]
    assert not G.table.flags.writeable


def test_from_table_rejects_ragged_rows():
    with pytest.raises(ValueError,
                       match="bad group table: row 1 has 1 entries, expected 2"):
        from_table([[0, 1], [1]])
    with pytest.raises(ValueError, match="row 2 has 2 entries, expected 3"):
        from_table([[0, 1, 2], [1, 2, 0], [2, 0]])


def test_from_table_rejects_bare_integer_rows():
    with pytest.raises(ValueError, match="bad group table: row 1 is not a sequence"):
        from_table([[0, 1], 1])
    with pytest.raises(ValueError, match="row 0 is not a sequence"):
        from_table([0, [1, 0]])
