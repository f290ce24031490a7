"""Tower and form documents: parsing, printing, round trips."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, note, settings
from hypothesis import strategies as st

from diffalg import poly
from diffalg.dsl import (TowerDoc, parse_expr, parse_form, parse_tower,
                         print_form, print_tower, tokenize)
from diffalg.errors import (DiffAlgError, FieldMismatch,
                            InvalidDefiningData, NameClash, ParseError,
                            ZeroDenominator)
from diffalg.fmt import _is_atom, format_poly, format_ratfunc
from diffalg.liouville import (LiouvilleForm, LogPhi, LPhi, WPhi,
                               form_derivative, verify_liouville)
from diffalg.ratfunc import RatFunc
from diffalg.tower import FULL_D, GEN_KINDS, Tower

X_ONLY = "var x = d/dx 1\n"


# -- tokens ----------------------------------------------------------------


def test_tokenize_positions():
    toks = tokenize("var x = d/dx 1\ngen t = exp(x)")
    assert [k.kind for k in toks[:3]] == ["NAME", "NAME", "OP"]
    assert toks[0].line == 1 and toks[0].col == 1
    gen = next(k for k in toks if k.text == "gen")
    assert gen.line == 2 and gen.col == 1


def test_tokenize_comments_and_blank_lines():
    toks = tokenize("# heading\n\nconst m  # trailing note\n")
    names = [k.text for k in toks if k.kind == "NAME"]
    assert names == ["const", "m"]


def test_tokenize_comment_advances_the_column():
    # the token after a comment sits past it, not at the "#"
    toks = tokenize("x # abc")
    assert (toks[-1].kind, toks[-1].line, toks[-1].col) == ("EOF", 1, 8)
    with pytest.raises(ParseError) as e:
        parse_tower("var x = d/dx 1\ngen t = exp(x +  # oops\n")
    assert e.value.message == "expected an expression, found '\\n'"
    assert (e.value.line, e.value.column) == (2, 24)


def test_parse_error_without_a_position_is_its_message():
    assert str(ParseError("m")) == "m"


def test_tokenize_rejects_stray_characters():
    with pytest.raises(ParseError) as e:
        tokenize("var x = d/dx 1 @")
    assert e.value.line == 1 and e.value.column == 16


@pytest.mark.parametrize("text", ["x^\u00b2", "x^\u0663"],
                         ids=["superscript-two", "arabic-indic-three"])
def test_tokenize_takes_only_ascii_digits(text):
    # str.isdigit also accepts these; an integer literal is 0-9 only
    with pytest.raises(ParseError) as e:
        tokenize(text)
    assert e.value.message == f"unexpected character {text[2]!r}"
    assert (e.value.line, e.value.column) == (1, 3)


@given(st.text(alphabet="ab_7é09 \t\r\n#+-*/^(),=;", max_size=40))
@settings(max_examples=300, deadline=None)
def test_tokens_are_the_maximal_runs_at_their_positions(text):
    # each token's text sits at its (line, column), a NAME or INT run is
    # never followed by a character it could take, every character that
    # is not blank or in a comment is in a token, and EOF follows the text
    toks = tokenize(text)
    lines = text.split("\n")
    covered = set()
    for tok in toks[:-1]:
        row = lines[tok.line - 1] + "\n "  # a blank follows the last line
        start = tok.col - 1
        assert row[start:start + len(tok.text)] == tok.text
        after = row[start + len(tok.text)]
        if tok.kind == "NAME":
            assert not (after.isalnum() or after == "_")
        if tok.kind == "INT":
            assert not "0" <= after <= "9"
        covered.update((tok.line, start + k) for k in range(len(tok.text)))
    for i, row in enumerate(lines):
        code = row.split("#")[0]
        assert all((i + 1, k) in covered
                   for k, ch in enumerate(code) if ch not in " \t\r")
    assert tuple(toks[-1]) == ("EOF", "", len(lines), len(lines[-1]) + 1)


# -- expressions -------------------------------------------------------------


def expr_tower():
    t = Tower.base().const("m").var("x")
    return t


@pytest.mark.parametrize("text,value", [
    ("2 + 3 * 4", 14),
    ("(2 + 3) * 4", 20),
    ("2 - 3 - 4", -5),
    ("12 / 3 / 2", 2),
    ("-2^2", -4),
    ("1/2 + 1/3", Fraction(5, 6)),
])
def test_expr_constant_folding(text, value):
    t = expr_tower()
    got = parse_expr(text, t)
    assert (got - t.lit(value)).is_zero()


def test_expr_precedence_with_vars():
    t = expr_tower()
    x, m = t["x"], t["m"]
    assert (parse_expr("2*x^2", t) - 2 * x ** 2).is_zero()
    assert (parse_expr("(2*x)^2", t) - 4 * x ** 2).is_zero()
    assert (parse_expr("-x^2", t) + x ** 2).is_zero()
    assert (parse_expr("m*x - x/m", t) - (m * x - x / m)).is_zero()


def test_expr_bindings_scope():
    t = expr_tower()
    u = t["x"] ** 2 + 1
    got = parse_expr("u^2 - u", t, {"u": u})
    assert (got - (u ** 2 - u)).is_zero()


def test_expr_unknown_name_location():
    t = expr_tower()
    with pytest.raises(ParseError) as e:
        parse_expr("x + foo", t)
    assert "foo" in e.value.message
    assert e.value.column == 5


def test_expr_negative_exponent_rejected():
    t = expr_tower()
    with pytest.raises(ParseError):
        parse_expr("x^-2", t)


def test_expr_unbalanced_paren():
    t = expr_tower()
    with pytest.raises(ParseError):
        parse_expr("(x + 1", t)


# -- tower documents ----------------------------------------------------------


def test_parse_tower_exponential_example():
    doc = parse_tower(X_ONLY + "gen t = exp(1/x^2)")
    t = doc.tower
    x, th = t["x"], t["t"]
    want = (-2 / x ** 3) * th
    assert (t.derive(FULL_D, th) - want).is_zero()


def test_parse_tower_const_list_and_sqrt():
    doc = parse_tower("const m, a\nvar x = d/dx 1\ngen s = sqrt((x-1)/(x+1))")
    t = doc.tower
    assert [g.name for g in t.generators] == ["m", "a", "x", "s"]
    s, x = t["s"], t["x"]
    assert (s * s - (x - 1) / (x + 1)).is_zero()


def test_parse_tower_log_and_let():
    doc = parse_tower(X_ONLY + "gen th = log(x)\nlet u = th^2 + x")
    t = doc.tower
    assert (t.derive(FULL_D, t["th"]) - 1 / t["x"]).is_zero()
    u = doc.bindings["u"]
    assert u.tower is t
    assert (u - (t["th"] ** 2 + t["x"])).is_zero()


def test_parse_tower_elliptic_pair():
    doc = parse_tower("const a, b\n" + X_ONLY + "gen p = ellfun(x, a, b)")
    t = doc.tower
    assert [g.name for g in t.generators] == ["a", "b", "x", "p", "p_q"]
    p, q, a, b = t["p"], t["p_q"], t["a"], t["b"]
    assert (q * q - (p ** 3 - a * p - b)).is_zero()


def test_parse_tower_ellint_overlong_kind():
    with pytest.raises(ParseError) as exc:
        parse_tower("var x = d/dx 1\ngen E = ellint(" + "9" * 5000 + ", x, x)")
    assert (exc.value.line, exc.value.column) == (2, 16)
    assert "integer literal of 5000 digits is too long" in str(exc.value)


def test_parse_tower_ellint_with_pole():
    text = ("const a, b, c\n" + X_ONLY +
            "gen p = ellfun(x, a, b)\ngen P = ellint(3, p, p_q, c)")
    doc = parse_tower(text)
    t = doc.tower
    dP = t.derive(FULL_D, t["P"])
    # D p = p_q, so the third-kind integrand collapses to 1/(p - c)
    want = 1 / (t["p"] - t["c"])
    assert (dP - want).is_zero()


def test_parse_tower_var_with_custom_deriv():
    # the derivative expression may only use earlier generators
    doc = parse_tower("const m\nvar x = d/dx m + 2")
    t = doc.tower
    assert (t.derive(FULL_D, t["x"]) - (t["m"] + 2)).is_zero()
    with pytest.raises(ParseError):
        parse_tower("var x = d/dx x^2 + 1")


def test_parse_tower_semicolons():
    doc = parse_tower("const m; var x = d/dx 1; gen t = exp(x)")
    assert [g.name for g in doc.tower.generators] == ["m", "x", "t"]


def test_parse_tower_unknown_keyword():
    with pytest.raises(ParseError) as e:
        parse_tower(X_ONLY + "flub y = exp(x)")
    assert e.value.line == 2


def test_parse_tower_trailing_junk():
    with pytest.raises(ParseError) as e:
        parse_tower("var x = d/dx 1 1")
    assert "trailing" in e.value.message


def test_parse_tower_duplicate_let():
    with pytest.raises(NameClash):
        parse_tower(X_ONLY + "let u = x\nlet u = x + 1")
    with pytest.raises(NameClash):
        parse_tower(X_ONLY + "let x = x + 1")
    # nor may a later gen, var or const take a let name, and ellfun's
    # companion NAME_q counts as a declared name
    for later in ("gen u = log(x)", "var u = d/dx 1", "const u",
                  "const c, u"):
        with pytest.raises(NameClash, match="'u' already bound"):
            parse_tower(X_ONLY + "let u = x + 1\n" + later)
    with pytest.raises(NameClash, match="'p_q' already bound"):
        parse_tower("const a, b\n" + X_ONLY
                    + "let p_q = x\ngen p = ellfun(x, a, b)")


def test_parse_tower_unknown_extension_kind():
    with pytest.raises(ParseError) as e:
        parse_tower(X_ONLY + "gen t = cosh(x)")
    assert "cosh" in e.value.message


@pytest.mark.parametrize("call, takes", [
    ("int(x, x, x)", "g[, G]"), ("log(x, x)", "h"), ("exp(x, x)", "v"),
    ("lambertw(x, 1)", "v"), ("sqrt(x, x)", "r"),
    ("ellfun(x, 1)", "v, a, b"), ("ellint(1, x)", "k, p, q[, c]"),
    ("ellint(3, x, x, 1, 1)", "k, p, q[, c]"),
])
def test_parse_tower_gen_arity(call, takes):
    with pytest.raises(ParseError) as e:
        parse_tower(X_ONLY + "gen g = " + call)
    assert e.value.message == f"{call.split('(')[0]} takes {takes}"
    assert (e.value.line, e.value.column) == (2, 9)


TOWER_CORPUS = [
    X_ONLY.rstrip(),
    X_ONLY + "gen t = exp(1/x^2)",
    X_ONLY + "gen th = log(x)\nlet u = th + 1",
    "const m, a\nvar x = d/dx 1\ngen s = sqrt((x-1)/(x+1))",
    "const a, b\nvar x = d/dx 1\ngen p = ellfun(x, a, b)",
    ("const a, b, c\nvar x = d/dx 1\ngen p = ellfun(x, a, b)\n"
     "gen P = ellint(3, p, p_q, c)"),
    ("const a, b\nvar x = d/dx 1\ngen p = ellfun(x, a, b)\n"
     "gen E = ellint(2, p, p_q)"),
    X_ONLY + "gen w = lambertw(x)\ngen s = sqrt(w + x)",
    X_ONLY + "gen f = int(x^2 + 1)",
    X_ONLY + "gen f = int(x^2 + 1, 1/3*x^3 + x)",
    "const m\nvar x = d/dx m + 2\ngen th = log(x)",
]


def same_tower(t1: Tower, t2: Tower) -> bool:
    if [g.name for g in t1.generators] != [g.name for g in t2.generators]:
        return False
    for g1, g2 in zip(t1.generators, t2.generators):
        if g1.gid != g2.gid or type(g1.kind) is not type(g2.kind):
            return False
    for g in t1.generators:
        d1 = t1.derive(FULL_D, t1[g.name])
        d2 = t2.derive(FULL_D, t2[g.name])
        if d1.rf != d2.rf:
            return False
    return True


@pytest.mark.parametrize("text", TOWER_CORPUS)
def test_tower_round_trip(text):
    doc = parse_tower(text)
    printed = print_tower(doc)
    doc2 = parse_tower(printed)
    assert same_tower(doc.tower, doc2.tower)
    assert print_tower(doc2) == printed  # printing reached a fixpoint
    assert set(doc.bindings) == set(doc2.bindings)
    for name in doc.bindings:
        assert doc.bindings[name].rf == doc2.bindings[name].rf


@st.composite
def tower_docs(draw):
    """Two or three gen draws over every kind of GEN_KINDS above const a, b
    and var x, each generator's data drawn over the generators before it,
    and up to two let bindings.  An int draw records an antiderivative
    half the time; an ellint draw first adds an ellfun for its p and q."""
    t = Tower.base().const("a").const("b").var("x")

    def element(t):
        atoms = [t[g.name] for g in t.generators]
        e = t.lit(draw(st.integers(-2, 2)))
        for _ in range(draw(st.integers(1, 2))):
            term = draw(st.integers(-3, 3)) or 1
            for _ in range(draw(st.integers(1, 2))):
                term = term * draw(st.sampled_from(atoms))
            e = e + term
        if draw(st.booleans()):
            e = e / (t["x"] + draw(st.integers(1, 3)))
        return e

    for i in range(draw(st.integers(2, 3))):
        name = f"g{i}"
        kind = draw(st.sampled_from(sorted(GEN_KINDS)))
        try:
            if kind == "int" and draw(st.booleans()):
                anti = element(t)
                t = t.primitive(name, t.derive(FULL_D, anti), anti)
            elif kind in ("ellfun", "ellint"):
                p = name if kind == "ellfun" else f"p{i}"
                ab = draw(st.sampled_from([(t["a"], t["b"]), (1, 2),
                                           (t["a"], 0)]))
                t = t.elliptic(p, element(t), *ab)
                if kind == "ellint":
                    k = draw(st.integers(1, 3))
                    c = [draw(st.sampled_from([2, t["a"]]))] if k == 3 else []
                    t = t.ellint(name, k, t[p], t[p + "_q"], *c)
            else:
                make, _ = GEN_KINDS[kind]
                t = make(t, name, element(t))
        except InvalidDefiningData:  # a zero, log(1) or a square radicand
            assume(False)
    bindings = {f"u{j}": element(t) for j in range(draw(st.integers(0, 2)))}
    return TowerDoc(t, bindings)


@given(tower_docs())
@settings(max_examples=100, deadline=None)
def test_random_tower_round_trip(doc):
    # the printed document parses back to the same tower, generator by
    # generator with the same defining data, and prints the same again
    printed = print_tower(doc)
    note(printed)
    doc2 = parse_tower(printed)
    assert doc.tower._holds(doc2.tower) and doc2.tower._holds(doc.tower)
    assert print_tower(doc2) == printed
    assert ({k: v.rf for k, v in doc2.bindings.items()}
            == {k: v.rf for k, v in doc.bindings.items()})


# -- form documents -----------------------------------------------------------


def test_parse_form_v0_only():
    doc = parse_tower(X_ONLY + "gen t = exp(1/x^2)")
    form = parse_form("v0 = x*t", doc.tower)
    assert not form.terms
    assert (form.v0 - doc.tower["x"] * doc.tower["t"]).is_zero()


def test_parse_form_log_term():
    doc = parse_tower(X_ONLY)
    form = parse_form("v0 = 0\nterm 1 * log(x)", doc.tower)
    (coeff, term), = form.terms
    assert isinstance(term, LogPhi)
    assert verify_liouville(doc.tower, 1 / doc.tower["x"], form)


def test_parse_form_half_log():
    doc = parse_tower(X_ONLY)
    form = parse_form("v0 = 0; term 1/2 * log((x-1)/(x+1))", doc.tower)
    (coeff, term), = form.terms
    assert (coeff - Fraction(1, 2)).is_zero()
    f = 1 / (doc.tower["x"] ** 2 - 1)
    assert verify_liouville(doc.tower, f, form)


def test_parse_form_coefficient_lookahead():
    # the coefficient expression must stop before `* log(...)`
    doc = parse_tower("const m\n" + X_ONLY)
    form = parse_form("v0 = 0\nterm 2*m * log(x)", doc.tower)
    (coeff, term), = form.terms
    assert (coeff - 2 * doc.tower["m"]).is_zero()


def test_parse_form_curve_terms():
    text = ("const a, b, c\nvar x = d/dx 1\ngen p = ellfun(x, a, b)")
    doc = parse_tower(text)
    src = ("v0 = x\n"
           "term 1 * w1(p, p_q, a, b)\n"
           "term 1/3 * w3(p, p_q, a, b, c)")
    form = parse_form(src, doc.tower)
    assert [type(term) for _, term in form.terms] == [WPhi, WPhi]
    assert form.terms[0][1].kind == 1
    assert form.terms[1][1].kind == 3
    assert (form.terms[1][1].c - doc.tower["c"]).is_zero()


def test_parse_form_legendre_terms():
    text = ("const m\nvar x = d/dx 1\n"
            "gen y = sqrt((1-x^2)*(1-m*x^2))")
    doc = parse_tower(text)
    src = "v0 = 0\nterm 1 * l1(x, y, m)\nterm 2 * l2(x, y, m)"
    form = parse_form(src, doc.tower)
    kinds = [term.kind for _, term in form.terms]
    assert kinds == [1, 2]


def test_parse_form_with_bindings():
    doc = parse_tower(X_ONLY + "let u = x^2 + 1")
    form = parse_form("v0 = u\nterm 1 * log(u)", doc.tower, doc.bindings)
    assert (form.v0 - (doc.tower["x"] ** 2 + 1)).is_zero()


def test_parse_form_rejects_binding_from_sibling_tower():
    x = Tower.base().var("x")
    a = x.exp_ext("t", x["x"])
    b = x.log_ext("u", x["x"])
    with pytest.raises(FieldMismatch):
        form = parse_form("v0 = x\nterm 1 * log(w)", a, {"w": b["u"]})
        verify_liouville(a, a.lit(2), form)


def test_parse_form_must_start_with_v0():
    doc = parse_tower(X_ONLY)
    with pytest.raises(ParseError):
        parse_form("term 1 * log(x)", doc.tower)


def test_parse_form_unknown_kind_and_arity():
    doc = parse_tower(X_ONLY)
    # a name that is no term kind ends up in the coefficient
    with pytest.raises(ParseError) as e:
        parse_form("v0 = 0\nterm 1 * atan(x)", doc.tower)
    assert e.value.message == "unknown name 'atan'"
    for call, takes in (("log(x, x)", "one argument"),
                        ("w1(x, x, x)", "v, q, a, b"),
                        ("w2(x, x, x, x, x)", "v, q, a, b"),
                        ("w3(x, x, x, x)", "v, q, a, b, c"),
                        ("l1(x, x, x, x)", "v, y, m"),
                        ("l2(x, x)", "v, y, m"),
                        ("l3(x, x, x)", "v, y, m, a, delta")):
        with pytest.raises(ParseError) as e:
            parse_form(f"v0 = 0\nterm 1 * {call}", doc.tower)
        assert e.value.message == f"{call.split('(')[0]} takes {takes}"
        assert (e.value.line, e.value.column) == (2, 10)


@pytest.mark.parametrize("text, message, where", [
    ("v0 = 0\nterm 1 *", "expected an expression, found ''", (2, 9)),
    ("v0 = 0\nterm 1 * l3", "unknown name 'l3'", (2, 10)),
    ("v0 = 0\nterm 1 * log(", "expected an expression, found ''", (2, 14)),
    ("v0 = 0\nterm 1 * l3(x, x", "expected ')', found ''", (2, 17)),
    ("v0", "expected '=', found ''", (1, 3)),
    ("", "expected 'NAME', found ''", (1, 1)),
])
def test_parse_errors_at_the_end_of_input(text, message, where):
    # the lookahead after "term c *" reads up to two tokens past the end
    doc = parse_tower(X_ONLY)
    with pytest.raises(ParseError) as e:
        parse_form(text, doc.tower)
    assert e.value.message == message
    assert (e.value.line, e.value.column) == where


FORM_CORPUS = [
    ("const m\n" + X_ONLY + "gen th = log(x)",
     "v0 = x^2/2 + th\nterm 1 * log(x+1)\nterm m * log(x-1)"),
    (X_ONLY + "gen t = exp(1/x^2)", "v0 = x*t"),
    ("const a, b, c\nvar x = d/dx 1\ngen p = ellfun(x, a, b)",
     "v0 = p\nterm 1 * w1(p, p_q, a, b)\nterm 1/2 * w2(p, p_q, a, b)\n"
     "term 1/3 * w3(p, p_q, a, b, c)"),
    ("const m\nvar x = d/dx 1\ngen y = sqrt((1-x^2)*(1-m*x^2))",
     "v0 = 0\nterm 1 * l1(x, y, m)\nterm 1/5 * l2(x, y, m)"),
]


@pytest.mark.parametrize("tower_text,form_text", FORM_CORPUS)
def test_form_round_trip(tower_text, form_text):
    doc = parse_tower(tower_text)
    form = parse_form(form_text, doc.tower, doc.bindings)
    printed = print_form(form)
    form2 = parse_form(printed, doc.tower, doc.bindings)
    assert print_form(form2) == printed
    diff = form_derivative(doc.tower, form) - form_derivative(doc.tower, form2)
    assert diff.is_zero()


def test_l3_form_round_trip():
    text = ("const m, pa\nvar x = d/dx 1\n"
            "gen y = sqrt((1-x^2)*(1-m*x^2))\n"
            "gen delta = sqrt((1-pa^2)*(1-m*pa^2))")
    doc = parse_tower(text)
    src = "v0 = 0\nterm 1 * l3(x, y, m, pa, delta)"
    form = parse_form(src, doc.tower)
    (_, term), = form.terms
    assert isinstance(term, LPhi) and term.kind == 3
    printed = print_form(form)
    form2 = parse_form(printed, doc.tower)
    assert print_form(form2) == printed


def random_tree(rng: random.Random, names: list, depth: int,
                ops: str = "+-*/^", low: int = 1):
    """A name, an int, (op, a, b), ("^", a, k) or ("~", a, None) for -a."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return rng.choice(names)
        return rng.randint(low, 9)
    op = rng.choice(ops)
    if op == "^":
        return (op, random_tree(rng, names, depth - 1, ops, low),
                rng.randint(0, 3))
    if op == "~":
        return (op, random_tree(rng, names, depth - 1, ops, low), None)
    return (op, random_tree(rng, names, depth - 1, ops, low),
            random_tree(rng, names, depth - 1, ops, low))


def render(tree) -> str:
    if not isinstance(tree, tuple):
        return str(tree)
    op, a, b = tree
    if op == "^":
        return f"({render(a)})^{b}"
    if op == "~":
        return f"-{render(a)}"
    return f"({render(a)} {op} {render(b)})"


def random_expr(rng: random.Random, names: list, depth: int) -> str:
    return render(random_tree(rng, names, depth))


def fold(tree, t: Tower, env: dict):
    """The tree evaluated by Element arithmetic, one operator at a time
    and left operand first, as the text is read."""
    if isinstance(tree, int):
        return t.lit(tree)
    if isinstance(tree, str):
        return t.coerce(env[tree])
    op, a, b = tree
    a = fold(a, t, env)
    if op == "^":
        return a ** b
    if op == "~":
        return -a
    b = fold(b, t, env)
    return {"+": operator.add, "-": operator.sub, "*": operator.mul,
            "/": operator.truediv}[op](a, b)


def _outcome(run):
    try:
        return run().rf
    except DiffAlgError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("tower_text", [
    "const m\nvar x = d/dx 1\ngen th = log(x)\ngen s = sqrt(x^3 + m)\n"
    "let u = s/x + th\n",
    # y - x is a zero divisor, so divisions by it must fail alike
    "var x = d/dx 1\ngen y = sqrt(x^2)\nlet u = y - x\n",
], ids=["const-log-sqrt-let", "zero-divisor"])
def test_parse_once_matches_element_arithmetic(tower_text):
    # the parser folds one raw quotient and normalizes it once; that must
    # give the Element value of every operator applied in turn, or the
    # same error, also when a --max-degree style limit cuts products
    doc = parse_tower(tower_text)
    t = doc.tower
    env = {g.name: t.element(g.name) for g in t.generators}
    env.update(doc.bindings)
    rng = random.Random(20261018)
    for i in range(150):
        tree = random_tree(rng, sorted(env), 4, "+-*/^~", 0)
        text = render(tree)
        token = poly.set_degree_limit((None, 4, 6, 10)[i % 4])
        try:
            got = _outcome(lambda: parse_expr(text, t, doc.bindings))
            want = _outcome(lambda: fold(tree, t, env))
        finally:
            poly.reset_degree_limit(token)
        assert got == want, text


def test_random_expr_round_trips():
    rng = random.Random(20240817)
    t = Tower.base().const("m").var("x")
    t = t.log_ext("th", t["x"])
    names = ["m", "x", "th"]
    done = 0
    while done < 40:
        text = random_expr(rng, names, 3)
        try:
            e = parse_expr(text, t)
        except ZeroDenominator:
            continue
        printed = format_ratfunc(e.rf, t.name_of)
        again = parse_expr(printed, t)
        assert (e - again).is_zero(), text
        done += 1


# -- brackets -----------------------------------------------------------------

ATOM_TOWER = Tower.base().const("m").var("x")
ATOM_TOWER = ATOM_TOWER.log_ext("th", ATOM_TOWER["x"])
ATOM_GIDS = [g.gid for g in ATOM_TOWER.generators]
monomials = st.lists(st.tuples(st.sampled_from(ATOM_GIDS), st.integers(1, 3)),
                     max_size=2, unique_by=lambda ge: ge[0]).map(
                         lambda gs: tuple(sorted(gs)))
coefficients = st.fractions(min_value=-3, max_value=3,
                            max_denominator=3).filter(bool)


@given(st.dictionaries(monomials, coefficients, max_size=3))
@settings(max_examples=300, deadline=None)
def test_bracket_rule_is_the_atom_of_the_grammar(terms):
    # an operand of / prints bare exactly when the tokenizer reads it as
    # one NAME or INT token: zero, a positive integer or one generator
    p = poly.MultiPoly.from_dict(terms)
    text = format_poly(p, ATOM_TOWER.name_of)
    note(text)
    toks = tokenize(text)
    assert _is_atom(p) == (len(toks) == 2 and toks[0].kind in ("NAME", "INT"))
    over = RatFunc(p, (ATOM_TOWER["x"] + 1).rf.num)
    assert (format_ratfunc(over, ATOM_TOWER.name_of)
            == (text if _is_atom(p) else f"({text})") + "/(x + 1)")
