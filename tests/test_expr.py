import pytest
from hypothesis import given
from hypothesis import strategies as st

import zdgraph as z
from zdgraph.expr import Cyclic, Matrix, Product, TableFile, expr_order


def test_parse_examples():
    assert z.parse_ring_expr("Z6") == Cyclic(6)
    assert z.parse_ring_expr("Z2 x Z2 x Z2") == Product((Cyclic(2), Cyclic(2), Cyclic(2)))
    assert z.parse_ring_expr("M2(Z4)") == Matrix(2, Cyclic(4))
    assert z.parse_ring_expr("M2(Z2 x Z3)") == Matrix(2, Product((Cyclic(2), Cyclic(3))))
    assert z.parse_ring_expr("T(rings/gf4.tbl)") == TableFile("rings/gf4.tbl")


def test_parse_whitespace_and_parens():
    assert z.parse_ring_expr("  Z6  ") == Cyclic(6)
    assert z.parse_ring_expr("(Z2 x Z2) x Z2") == Product((Cyclic(2), Cyclic(2), Cyclic(2)))
    assert z.parse_ring_expr("((Z7))") == Cyclic(7)
    assert z.parse_ring_expr("M 2 ( Z 4 )") == Matrix(2, Cyclic(4))


def test_parse_rejects_zero_arguments():
    with pytest.raises(z.ParseError):
        z.parse_ring_expr("Z0")
    with pytest.raises(z.ParseError):
        z.parse_ring_expr("M0(Z2)")


def test_parse_error_details():
    with pytest.raises(z.ParseError) as err:
        z.parse_ring_expr("Z2 y Z3")
    assert err.value.offset == 3
    with pytest.raises(z.ParseError) as err:
        z.parse_ring_expr("Q5")
    assert err.value.offset == 0
    assert any("Z" in e for e in err.value.expected)
    with pytest.raises(z.ParseError):
        z.parse_ring_expr("M2(Z4")
    with pytest.raises(z.ParseError):
        z.parse_ring_expr("")
    with pytest.raises(z.ParseError):
        z.parse_ring_expr("(" * 5000 + "Z2" + ")" * 5000)


@pytest.mark.parametrize(
    "text, offset, expected, found",
    [
        ("Z", 1, ("an unsigned integer",), "end of input"),
        ("T(abc", 5, ("')'",), "end of input"),
        ("T( )", 2, ("a file path",), "')'"),
        ("(" * 5000 + "Z2" + ")" * 5000, 0, ("an expression nested less deeply",), "too deep a nesting"),
    ],
    ids=["no-integer", "unclosed-table", "empty-table-path", "too-deep"],
)
def test_parse_error_names_what_it_expected(text, offset, expected, found):
    with pytest.raises(z.ParseError) as err:
        z.parse_ring_expr(text)
    assert (err.value.offset, err.value.expected, err.value.found) == (offset, expected, found)


def test_parse_case_sensitive():
    with pytest.raises(z.ParseError):
        z.parse_ring_expr("z6")
    with pytest.raises(z.ParseError):
        z.parse_ring_expr("Z2 X Z3")


def test_unparse():
    assert z.unparse(z.parse_ring_expr("Z2 x Z2 x Z2")) == "Z2 x Z2 x Z2"
    assert z.unparse(z.parse_ring_expr("M2( Z2 x Z3 )")) == "M2(Z2 x Z3)"
    assert z.unparse(z.parse_ring_expr("(Z2 x Z3) x M2(Z2)")) == "Z2 x Z3 x M2(Z2)"
    # a value that is not a ring expression is refused, by unparse and by
    # expr_order alike
    for walk in (z.unparse, expr_order):
        with pytest.raises(TypeError, match="not a ring expression: 'Z6'"):
            walk("Z6")


def _exprs(depth):
    leaf = st.one_of(
        st.integers(min_value=1, max_value=12).map(Cyclic),
        st.just(TableFile("some/file.tbl")),
    )
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        leaf,
        st.builds(Matrix, st.integers(min_value=1, max_value=3), sub),
        st.lists(sub, min_size=2, max_size=3).map(
            lambda fs: Product(
                tuple(g for f in fs for g in (f.factors if isinstance(f, Product) else (f,)))
            )
        ),
    )


@given(_exprs(2))
def test_unparse_parse_roundtrip(expr):
    assert z.parse_ring_expr(z.unparse(expr)) == expr


def test_build_ring(rings):
    assert z.build_ring(z.parse_ring_expr("Z6")) == rings["Z6"]
    assert z.build_ring(z.parse_ring_expr("Z2 x Z2 x Z2")) == rings["Z2xZ2xZ2"]
    assert z.build_ring(z.parse_ring_expr("M2(Z2)")) == rings["M2(Z2)"]


def test_build_ring_table_file(tmp_path, rings):
    r = rings["Z4"]
    lines = [str(r.order)]
    lines += [" ".join(map(str, row)) for row in r.add_table.tolist()]
    lines += [" ".join(map(str, row)) for row in r.mul_table.tolist()]
    path = tmp_path / "z4.tbl"
    path.write_text("\n".join(lines))
    assert z.build_ring(z.parse_ring_expr(f"T({path})")) == r


def test_expr_order_reads_only_the_declared_order(tmp_path):
    path = tmp_path / "big.tbl"
    path.write_text("30000\n")  # a header without a body: only the order is read
    assert expr_order(z.parse_ring_expr("M2(Z2 x Z3)")) == 6**4
    assert expr_order(z.parse_ring_expr(f"Z2 x T({path})"), cap=10**6) == 60000
    # M1000000(Z2) has 2**(10**12) elements: rejected without computing that
    for text in ("M3(M2(Z7))", f"M2(T({path}))", f"T({path})", "M1000000(Z2)"):
        with pytest.raises(z.CapacityError):
            expr_order(z.parse_ring_expr(text))


def test_capacity_messages_print_any_order():
    # under a cap of 3001 digits, Z(cap) x Z(cap) has more digits than str()
    # converts; the message names a power of 2 below it instead
    big = 10**3000
    with pytest.raises(z.CapacityError, match=r"^ring of order at least 2\*\*19931 exceeds"):
        expr_order(z.parse_ring_expr(f"Z{big} x Z{big} x Z2"), cap=big)


def test_build_ring_capacity():
    with pytest.raises(z.CapacityError):
        z.build_ring(z.parse_ring_expr("M3(M2(Z7))"))
    with pytest.raises(z.CapacityError):
        z.build_ring(z.parse_ring_expr("Z100 x Z100"), cap=5000)
