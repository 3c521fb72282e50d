import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swsurgery.monodromy import (
    GENERATORS,
    IntegerMatrix2,
    MCGWord,
    WordSyntaxError,
    evaluate,
    parabolic_width,
    parse_word,
    verify_factorization,
)

from .oracles import naive_parabolic_width, naive_word_matrix, squaring_power

E6_WORD = "(ab)^4a^2(Aba)b"
I6_WORD = "a^6(A^3ba^3)(baB)^2b^2(Bab)"


def test_generator_convention():
    assert GENERATORS["a"].rows() == ((1, 1), (0, 1))
    assert GENERATORS["b"].rows() == ((1, 0), (-1, 1))
    assert evaluate("ab").trace == 1


def test_order_six():
    ab = evaluate("ab")
    for k in range(1, 6):
        assert not (ab ** k).is_identity()
    assert (ab ** 6).is_identity()
    minus_id = IntegerMatrix2(-1, 0, 0, -1)
    assert ab ** 3 == minus_id


def test_braid_relation():
    assert evaluate("aba") == evaluate("bab")
    assert evaluate("abaBAB").is_identity()


def test_conjugation_trace_invariance():
    rng = random.Random(3)
    letters = "abAB"
    for _ in range(300):
        w = "".join(rng.choice(letters) for _ in range(rng.randint(0, 8)))
        g = "".join(rng.choice(letters) for _ in range(rng.randint(1, 6)))
        g_inv = "".join({"a": "A", "A": "a", "b": "B", "B": "b"}[x] for x in reversed(g))
        assert evaluate(g + w + g_inv).trace == evaluate(w).trace


def test_parse_expansion():
    assert parse_word("(ab)^6").letters == tuple("ab" * 6)
    assert parse_word("AbA^0a").letters == ("A", "b", "a")
    assert parse_word("a^-1 b a").letters == ("A", "b", "a")
    assert parse_word("").letters == ()
    assert parse_word("(ab)^-1").letters == ("B", "A")
    assert parse_word("a^-3").letters == ("A", "A", "A")


def test_parse_round_trip():
    rng = random.Random(9)
    for _ in range(200):
        w = "".join(rng.choice("abAB") for _ in range(rng.randint(0, 10)))
        assert parse_word(str(parse_word(w))).letters == parse_word(w).letters
    assert parse_word(str(parse_word(I6_WORD))).letters == parse_word(I6_WORD).letters


def test_parse_errors_with_position():
    for bad, pos in (("(ab", 0), ("ab)", 2), ("x", 0), ("a^", 2), ("(ab)^x", 5),
                     ("a((b)", 1), ("((a)^2", 0), ("(a))", 3), ("(((a)^x))", 6)):
        with pytest.raises(WordSyntaxError) as err:
            parse_word(bad)
        assert err.value.position == pos


def test_exponents_are_the_decimal_digits_int_reads():
    # a superscript two is a digit to str.isdigit but not to int()
    with pytest.raises(WordSyntaxError, match=r"^expected integer exponent after '\^' \(at position 2\)$"):
        parse_word("a^\u00b2")
    # an Arabic-Indic three is a decimal digit, read as 3
    word = parse_word("a^\u0663")
    assert word.factors[0].power == 3 and word.letters == ("a",) * 3
    assert evaluate(word) == evaluate("a^3")


def test_empty_word_is_identity():
    assert evaluate("").is_identity()
    assert evaluate(MCGWord(())).is_identity()


def test_e6_factorization():
    report = verify_factorization(E6_WORD, "(ab)^6")
    assert report.equal
    assert evaluate(E6_WORD).is_identity()
    texts = [f.text for f in report.factors]
    assert texts == ["(ab)^4", "a^2", "(Aba)", "b"]
    assert [f.base_trace for f in report.factors] == [1, 2, 2, 2]
    # (ab)^4 = -(ab), so the composed tree-fiber factor has trace -1
    assert report.factors[0].factor_trace == -1


def test_i6_factorization():
    report = verify_factorization(I6_WORD, "(a^3b)^3")
    assert report.equal
    assert evaluate(I6_WORD).is_identity()
    assert evaluate("(a^3b)^3").is_identity()
    assert [f.base_trace for f in report.factors[1:]] == [2, 2, 2, 2]


def test_parabolic_width():
    assert parabolic_width(evaluate("a^6")) == 6
    assert parabolic_width(evaluate("a")) == 1
    assert parabolic_width(evaluate("Bab")) == 1
    assert parabolic_width(evaluate("b^2")) == 2
    assert parabolic_width(IntegerMatrix2.identity()) is None
    assert parabolic_width(evaluate("ab")) is None


def test_verify_against_identity_default():
    report = verify_factorization("(ab)^6")
    assert report.equal
    unequal = verify_factorization("(ab)^3")
    assert not unequal.equal  # reported, not raised


def test_matrix_type():
    for entries in ((1, 0, 0, -1), (2, 0, 0, 1)):
        with pytest.raises(ValueError, match="determinant"):
            IntegerMatrix2(*entries)
    m = evaluate("aabAB")
    assert (m @ m.inverse()).is_identity()
    assert m ** -2 == (m.inverse()) ** 2


def test_powers_by_repeated_squaring():
    assert evaluate("a^1000000") == IntegerMatrix2(1, 1000000, 0, 1)
    assert evaluate("(Ab^3)^0") == IntegerMatrix2.identity()


# +-I and matrices of trace +-2, 0 and +-3, as entries (a, b, c, d)
SPECIAL_MATRICES = ((1, 0, 0, 1), (-1, 0, 0, -1), (1, 5, 0, 1), (-1, 0, 3, -1),
                    (0, -1, 1, 0), (2, 1, 1, 1), (-2, -1, -1, -1), (1, 2, 1, 3))


def _repeated_product(m, n):
    result = IntegerMatrix2.identity()
    for _ in range(abs(n)):
        result = result @ (m if n > 0 else m.inverse())
    return result


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.text("abAB", max_size=8).map(lambda w: evaluate(w)),
                 st.sampled_from(SPECIAL_MATRICES).map(lambda e: IntegerMatrix2(*e))),
       st.integers(-300, 300))
@example(IntegerMatrix2(-1, 0, 0, -1), 300)
@example(IntegerMatrix2(-1, 1, 0, -1), -299)
@example(IntegerMatrix2(0, -1, 1, 0), 7)
@example(IntegerMatrix2(2, 1, 1, 1), -300)
@example(IntegerMatrix2(-2, -1, -1, -1), 0)
def test_powers_match_repeated_multiplication(m, n):
    assert m ** n == _repeated_product(m, n)


def test_powers_match_repeated_squaring_and_make_no_product(monkeypatch):
    rng = random.Random(11)
    matrices = [evaluate(w) for w in ("", "a", "B", "ab", "aB", "abAB", "aabAbbb", "BBaBa")]
    matrices += [IntegerMatrix2(*e) for e in SPECIAL_MATRICES]
    exponents = [0, 1, -1, 2, 10 ** 4, -10 ** 4, 2 ** 13, 2 ** 13 - 1, -(2 ** 13 + 1)]
    exponents += [rng.randint(-10 ** 4, 10 ** 4) for _ in range(40)]
    products = []
    monkeypatch.setattr(IntegerMatrix2, "__matmul__", lambda *args: products.append(args))
    for m in matrices:
        for n in exponents:
            power = m ** n
            assert (power.a, power.b, power.c, power.d) == squaring_power((m.a, m.b, m.c, m.d), n)
    # each power is one matrix from the trace recurrence: repeated squaring
    # took 19 products for n = 10^4
    assert products == []


def test_deep_nesting_parses():
    depth = 3000
    word = parse_word("(" * depth + "a" + ")" * depth)
    assert word.letters == ("a",)
    assert evaluate(word) == GENERATORS["a"]
    with pytest.raises(WordSyntaxError) as err:
        parse_word("(" * depth + "a" + ")" * (depth - 1))
    assert err.value.position == 0


def test_parse_keeps_only_the_factor_tree(monkeypatch):
    import swsurgery.monodromy as monodromy

    def spell(*args):
        raise AssertionError("letters spelled out")

    monkeypatch.setattr(monodromy, "_spell", spell)
    word = parse_word("((a^1000)^1000)^1000")
    assert word.length == 10 ** 9
    assert evaluate(word) == IntegerMatrix2(1, 10 ** 9, 0, 1)
    assert verify_factorization(word, "a^1000000000").equal
    monkeypatch.undo()
    deep = "(" * 3000 + "ab" + ")^2" * 3000
    assert parse_word(deep) == parse_word(deep) != parse_word(deep.replace("ab", "ba"))
    assert repr(parse_word(deep))
    assert parse_word("").letters == () and str(parse_word("")) == ""



def test_zero_power_spells_nothing_of_its_base(monkeypatch):
    import swsurgery.monodromy as monodromy

    spelled = []
    expand = monodromy._expand

    def counted(letters, power):
        out = expand(letters, power)
        spelled.append(len(out))
        return out

    monkeypatch.setattr(monodromy, "_expand", counted)
    word = parse_word("((a^1000)^1000)^0")
    assert word.length == 0
    assert str(word) == "" and word.letters == ()
    assert sum(spelled) == 0
    assert str(parse_word("b(a^5)^0B")) == "bB"

@st.composite
def twist_words(draw, depth=4, budget=400):
    """Text of a random word: nested groups up to ``depth`` deep, empty groups
    included, exponents in [-20, 20] kept small enough that no group expands
    to more than ``budget`` letters.  Returns (text, number of letters)."""
    parts, length = [], 0
    for _ in range(draw(st.integers(0, 4))):
        if depth and draw(st.booleans()):
            inner, size = draw(twist_words(depth - 1, budget))
            atom = f"({inner})"
        else:
            atom, size = draw(st.sampled_from("abAB")), 1
        bound = min(20, budget // max(size, 1))
        power = draw(st.none() | st.integers(-bound, bound))
        if power is not None:
            atom += f"^{power}"
        parts.append(atom)
        length += size * abs(1 if power is None else power)
    return "".join(parts), length


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(twist_words())
def test_factor_tree_matches_letter_product(drawn):
    text, length = drawn
    word = parse_word(text)
    assert len(word.letters) == word.length == length
    assert evaluate(text) == IntegerMatrix2(*naive_word_matrix(word.letters))
    report = verify_factorization(text)
    assert report.lhs == evaluate(text) and report.rhs.is_identity()
    assert len(report.factors) == len(word.factors)
    # products are built unchecked; the public constructor rechecks det = 1
    powers = [f.base ** f.power for f in word.factors]
    for m in [report.lhs, report.rhs, *powers, *(f.base for f in word.factors)]:
        assert IntegerMatrix2(m.a, m.b, m.c, m.d) == m
    for d, f, power in zip(report.factors, word.factors, powers):
        assert (d.factor_trace, d.width) == (power.trace, parabolic_width(power))
        base = naive_word_matrix([x for item in f.inner
                                  for x in (item if isinstance(item, str) else MCGWord((item,)).letters)])
        factor = naive_word_matrix(MCGWord((f,)).letters)
        assert (d.text, d.power) == (f.text, f.power)
        assert d.base_trace == base[0] + base[3]
        assert d.factor_trace == factor[0] + factor[3]
        assert d.parabolic == (base[0] + base[3] == 2 and base != (1, 0, 0, 1))
        assert d.width == naive_parabolic_width(factor)
