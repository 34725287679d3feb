import hashlib

import pytest

from helpers import (
    nf_to_word,
    normal_form_violations,
    perm_to_letters,
    random_braid_word,
    random_cyl_word,
    seeded_rng,
    stdout_under_python_O,
)
from orbibraid.braid import (
    BraidWord,
    braid_eq,
    cyl_braid_eq,
    embed_cyl,
    garside_nf,
    lk_matrix,
)
from orbibraid.braid import garside
from orbibraid.braid.garside import (
    MAX_NF_WORK,
    GarsideNF,
    finishing_set,
    inverse_perm,
    omega_perm,
    starting_set,
)
from orbibraid.coherence import _cable_kappa
from orbibraid.errors import ArityError, SizeCapError


def flip_perm(p: tuple) -> tuple:
    """Conjugation by Delta: omega . p . omega."""
    n = len(p)
    return tuple(n - 1 - p[n - 1 - i] for i in range(n))


def positive_rewriting_class(word: tuple[int, ...], max_size: int = 50_000) -> set:
    """Oracle: all positive words reachable by braid and commutation rewrites."""
    seen = {word}
    frontier = [word]
    while frontier and len(seen) < max_size:
        w = frontier.pop()
        for k in range(len(w)):
            if k + 3 <= len(w):
                a, b, c = w[k : k + 3]
                if a == c and abs(a - b) == 1:
                    new = w[:k] + (b, a, b) + w[k + 3 :]
                    if new not in seen:
                        seen.add(new)
                        frontier.append(new)
            if k + 2 <= len(w):
                a, b = w[k : k + 2]
                if abs(a - b) > 1:
                    new = w[:k] + (b, a) + w[k + 2 :]
                    if new not in seen:
                        seen.add(new)
                        frontier.append(new)
    return seen


def test_half_twist_by_brute_force_rewriting():
    # Independent oracle: the positive rewriting class of s2 s1 s2 contains the
    # canonical half-twist word, so both words are Delta_3.
    delta_word = tuple(i for i, _ in perm_to_letters(omega_perm(3)))
    assert delta_word in positive_rewriting_class((2, 1, 2))
    assert garside_nf(BraidWord.from_text(3, "s1 s2 s1")) == garside_nf(BraidWord(3)).__class__(
        3, 1, ()
    )
    assert garside_nf(BraidWord.from_text(3, "s2 s1 s2")).power == 1
    assert garside_nf(BraidWord.from_text(3, "s2 s1 s2")).factors == ()


def test_nf_inverse_cancellation():
    nf = garside_nf(BraidWord.from_text(2, "s1 S1"))
    assert nf == GarsideNF(2, 0, ())


def test_nf_of_inverse_generator():
    # Delta * s1^-1 is the permutation braid of s1 s2; verified by the
    # Lawrence-Krammer oracle below.
    nf = garside_nf(BraidWord.from_text(3, "S1"))
    assert nf.power == -1
    assert len(nf.factors) == 1
    assert perm_to_letters(nf.factors[0]) == ((1, 1), (2, 1))
    lhs = lk_matrix(BraidWord.from_text(3, "s1 s2 s1 S1"))
    rhs = lk_matrix(BraidWord.from_text(3, "s1 s2"))
    assert lhs == rhs


def test_braid_eq_relations():
    assert braid_eq(BraidWord.from_text(3, "s1 s2 s1"), BraidWord.from_text(3, "s2 s1 s2"))
    assert braid_eq(BraidWord.from_text(4, "s1 s3"), BraidWord.from_text(4, "s3 s1"))
    assert not braid_eq(BraidWord.from_text(2, "s1 s1"), BraidWord(2))
    with pytest.raises(ArityError):
        braid_eq(BraidWord(2), BraidWord(3))


def test_cyl_braid_eq_relations():
    assert cyl_braid_eq(BraidWord.from_text(2, "k s1 k s1", cyl=True), BraidWord.from_text(2, "s1 k s1 k", cyl=True))
    assert cyl_braid_eq(BraidWord.from_text(3, "s2 k", cyl=True), BraidWord.from_text(3, "k s2", cyl=True))
    assert not cyl_braid_eq(BraidWord.from_text(1, "k", cyl=True), BraidWord.from_text(1, "K", cyl=True))
    with pytest.raises(ArityError):
        cyl_braid_eq(BraidWord(2, cyl=True), BraidWord(3, cyl=True))


def test_nf_classifier_idempotent():
    rng = seeded_rng(1)
    for _ in range(150):
        n = rng.randint(2, 5)
        w = random_braid_word(rng, n, rng.randint(0, 12))
        nf = garside_nf(w)
        assert garside_nf(nf_to_word(nf)) == nf


def test_nf_factors_left_weighted_and_proper():
    rng = seeded_rng(2)
    omega_cache = {n: omega_perm(n) for n in range(2, 6)}
    for _ in range(120):
        n = rng.randint(2, 5)
        nf = garside_nf(random_braid_word(rng, n, rng.randint(0, 12)))
        for f in nf.factors:
            assert f != tuple(range(n)) and f != omega_cache[n]
        for a, b in zip(nf.factors, nf.factors[1:]):
            assert starting_set(b) <= finishing_set(a)


def test_uu_inverse_always_trivial():
    rng = seeded_rng(3)
    for _ in range(60):
        n = rng.randint(2, 5)
        u = random_braid_word(rng, n, rng.randint(0, 10))
        assert braid_eq(u * u.inverse(), BraidWord(n))


def test_group_is_not_commutative():
    u = BraidWord.from_text(3, "s1")
    v = BraidWord.from_text(3, "s2 s2")
    assert not braid_eq(u * v, v * u)


def test_eq_agrees_with_nf_comparison_on_cylinder_words():
    # Equality by normal-form comparison and through the triviality of
    # nf(u^-1 v) must agree.
    rng = seeded_rng(4)
    for _ in range(100):
        n = rng.randint(1, 4)
        u = random_cyl_word(rng, n, rng.randint(0, 8))
        v = random_cyl_word(rng, n, rng.randint(0, 8))
        via_quotient = garside_nf(embed_cyl(u.inverse() * v)) == GarsideNF(n + 1, 0, ())
        assert cyl_braid_eq(u, v) == via_quotient


def test_cylinder_words_take_the_form_and_image_of_their_embedding():
    rng = seeded_rng(41)
    for _ in range(60):
        n = rng.randint(1, 5)
        w = random_cyl_word(rng, n, rng.randint(0, 30))
        e = embed_cyl(w)
        assert garside_nf(w) == garside_nf(e)
        assert lk_matrix(w) == lk_matrix(e)


def test_braid_eq_takes_either_word_kind_and_refuses_mixed_ones():
    # Before the normal form embedded cylinder words, k read as an index-0
    # generator and this pair came out equal.
    assert braid_eq(BraidWord.from_text(3, "k", cyl=True), BraidWord.from_text(3, "s1", cyl=True)) is False
    assert braid_eq(BraidWord.from_text(3, "k s2", cyl=True), BraidWord.from_text(3, "s2 k", cyl=True)) is True
    assert garside_nf(BraidWord.from_text(3, "k", cyl=True)) == garside_nf(BraidWord.from_text(4, "s1 s1"))
    for u, v in (
        (BraidWord.from_text(3, "s1", cyl=True), BraidWord.from_text(3, "s1")),
        (BraidWord.from_text(4, "s2"), BraidWord.from_text(3, "s1", cyl=True)),
        (BraidWord(2, cyl=True), BraidWord(3, cyl=True)),
    ):
        with pytest.raises(ArityError):
            braid_eq(u, v)


def seed_nf(w: BraidWord) -> tuple[int, tuple]:
    """The original algorithm, kept as an oracle for the incremental one.

    Every inverse letter conjugates all factors collected so far by Delta;
    then passes over the whole list weight each pair one generator at a
    time until a pass changes nothing.
    """
    n = w.n
    ident, omega = tuple(range(n)), omega_perm(n)

    def swap_entries(p, j):
        return p[:j] + (p[j + 1], p[j]) + p[j + 2 :]

    def swap_values(p, j):
        return tuple(j + 1 if v == j else j if v == j + 1 else v for v in p)

    power, factors = 0, []
    for i, e in w.letters:
        if e == 1:
            factors.append(swap_entries(ident, i - 1))
        else:
            power -= 1
            factors = [flip_perm(f) for f in factors] + [swap_values(omega, i - 1)]
    changed = True
    while changed:
        factors = [f for f in factors if f != ident]
        changed = False
        for k in range(len(factors) - 1):
            a, b = factors[k], factors[k + 1]
            while movable := starting_set(b) - finishing_set(a):
                j = min(movable)
                a, b, changed = swap_values(a, j), swap_entries(b, j), True
            factors[k], factors[k + 1] = a, b
    while factors and factors[0] == omega:
        power, factors = power + 1, factors[1:]
    return power, tuple(factors)


def _mixed_words():
    """The 150-word mix: balanced, 90% positive and 90% negative letters, n <= 10."""
    rng = seeded_rng(5)
    for k in range(150):
        n = rng.randint(2, 10)
        positive = (0.5, 0.9, 0.1)[k % 3]
        letters = tuple(
            (rng.randint(1, n - 1), 1 if rng.random() < positive else -1) for _ in range(rng.randint(0, 60))
        )
        yield BraidWord(n, letters)


def test_nf_matches_the_original_algorithm():
    for w in _mixed_words():
        nf = garside_nf(w)
        assert (nf.power, nf.factors) == seed_nf(w), w.to_text()


def _letterwise_weight_pair(a, b):
    """Move the meet of b and the complement of a from b into a (tuples in, tuples out)."""
    a_inv = list(inverse_perm(a))
    b_out = list(b)
    moved = False
    j = 0
    while j <= len(b) - 2:
        if b_out[j] > b_out[j + 1] and a_inv[j] < a_inv[j + 1]:
            b_out[j], b_out[j + 1] = b_out[j + 1], b_out[j]
            a_inv[j], a_inv[j + 1] = a_inv[j + 1], a_inv[j]
            moved = True
            j = max(j - 1, 0)
        else:
            j += 1
    if not moved:
        return a, b, False
    return inverse_perm(a_inv), tuple(b_out), True


def letterwise_nf(w: BraidWord) -> GarsideNF:
    """The normal form built one letter at a time: the oracle for the run-grouped one.

    Each letter appends its own permutation braid (an inverse letter counts one
    Delta^-1 and appends s_i . omega), then a sweep from the right weights pairs
    until one does not change.
    """
    n = w.n
    ident, omega = tuple(range(n)), omega_perm(n)
    power, odd, factors, lead = 0, False, [], 0
    for i, e in w.letters:
        j = i - 1
        if e == 1:
            f = ident[:j] + (j + 1, j) + ident[j + 2 :]
        else:
            power -= 1
            odd = not odd
            f = tuple(j + 1 if v == j else j if v == j + 1 else v for v in omega)
        factors.append(flip_perm(f) if odd else f)
        k = len(factors) - 1
        while k > lead:
            a, b, moved = _letterwise_weight_pair(factors[k - 1], factors[k])
            if not moved:
                break
            factors[k - 1], factors[k] = a, b
            k -= 1
        if factors[-1] == ident:
            factors.pop()
        while lead < len(factors) and factors[lead] == omega:
            lead += 1
    tail = factors[lead:]
    if odd:
        tail = [flip_perm(f) for f in tail]
    return GarsideNF(n, power + lead, tuple(tail))


def _permutation_braid_word(rng, n: int, sign: int) -> tuple:
    """A random permutation braid's minimal word, or that word's inverse."""
    perm = list(range(n))
    rng.shuffle(perm)
    letters = perm_to_letters(tuple(perm))
    if sign == 1:
        return letters
    return tuple((i, -e) for i, e in reversed(letters))


def test_run_grouped_nf_matches_letterwise_on_permutation_braid_products():
    rng = seeded_rng(11)
    for k in range(120):
        n = rng.randint(2, 9)
        positive = (0.5, 0.9, 0.1)[k % 3]
        letters = ()
        for _ in range(rng.randint(1, 6)):
            letters += _permutation_braid_word(rng, n, 1 if rng.random() < positive else -1)
        w = BraidWord(n, letters)
        assert garside_nf(w) == letterwise_nf(w), w.to_text()


def test_run_grouped_nf_matches_letterwise_on_mixed_words():
    for w in _mixed_words():
        assert garside_nf(w) == letterwise_nf(w), w.to_text()
    rng = seeded_rng(12)
    for _ in range(60):
        n = rng.randint(2, 9)
        letters = ()
        for _ in range(rng.randint(1, 4)):  # permutation braids spliced with random letters
            letters += _permutation_braid_word(rng, n, rng.choice((1, -1)))
            letters += random_braid_word(rng, n, rng.randint(0, 6)).letters
        w = BraidWord(n, letters)
        assert garside_nf(w) == letterwise_nf(w), w.to_text()


@pytest.mark.parametrize("ell, c", [(0, 1), (0, 7), (3, 5), (0, 40), (2, 40)])
def test_run_grouped_nf_matches_letterwise_on_kappa_cables(ell, c):
    w = embed_cyl(BraidWord(ell + c, tuple(_cable_kappa(ell, c)), cyl=True))
    assert garside_nf(w) == letterwise_nf(w)
    assert garside_nf(w.inverse()) == letterwise_nf(w.inverse())


@pytest.mark.parametrize("n", [4, 8])
def test_nf_invariants_on_long_words(n):
    rng = seeded_rng(6 + n)
    w = random_braid_word(rng, n, 800)
    nf = garside_nf(w)
    assert normal_form_violations(w, nf.power, nf.factors) == []
    assert garside_nf(nf_to_word(nf)) == nf


def test_invalid_forms_raise_under_python_O():
    # The checks in GarsideNF must survive -O, which strips assert statements.
    script = (
        "from orbibraid.braid.garside import GarsideNF\n"
        "for factors in [((0, 2, 1), (1, 0, 2)), ((1, 0, 2), (0, 1, 2)), ((2, 1, 0),)]:\n"
        "    try:\n"
        "        GarsideNF(3, 0, factors)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    assert stdout_under_python_O(script).splitlines() == [
        "factor 1 is not left-weighted against factor 0",
        "factor 1 is not a proper permutation braid",
        "factor 0 is not a proper permutation braid",
    ]


def _inversions(p) -> int:
    return sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))


def _work_trace(monkeypatch, w: BraidWord) -> list[tuple]:
    """The uncapped normal form's steps, in order.

    ("run", length) for each run appended, length being the crossings of the
    factor it stores (Delta P^-1 for a negative run P^-1), and ("pair", length
    of b, moves) for each pair weighted; lengths are counted from the lists.
    """
    trace = []
    runs, weight_pair = garside._runs, garside._weight_pair

    def traced_runs(n, letters):
        for run in runs(n, letters):
            crossings = _inversions(run[1])
            trace.append(("run", crossings if run[0] == 1 else n * (n - 1) // 2 - crossings))
            yield run

    def traced_pair(a, a_inv, b, b_inv):
        length = _inversions(b)
        moved = weight_pair(a, a_inv, b, b_inv)
        trace.append(("pair", length, moved))
        return moved

    with monkeypatch.context() as m:
        m.setattr(garside, "MAX_NF_WORK", 10**18)
        m.setattr(garside, "_runs", traced_runs)
        m.setattr(garside, "_weight_pair", traced_pair)
        garside_nf(w)
    return trace


def _checks(trace, n: int, held: int, deltas: list | None = None) -> list[tuple[int, int]]:
    """(units counted, most units the next step adds) at each check the traced steps pass.

    The replay keeps the lengths of the factors held, and checks each pair's b against them.  A run
    adds n + held n, and gives back held n at once when its factor is the identity or Delta, which
    is not held.  A pair adds n + its moves, at most n + b's length; b gives back held n when it is
    left empty.  When a pair's a becomes Delta, a gives back held n, the factors right of it are
    re-stored at n each, checked together, and the sweep ends.  Each such Delta is appended to
    ``deltas``, if given, as (its index, the factors re-stored, whether b was left empty).
    """
    half = n * (n - 1) // 2
    held *= n
    checks = [(0, n + held)]  # before any list of n entries is built
    count, lengths = 0, []
    for step in trace:
        if step[0] == "run":
            checks.append((count, n + held))
            count += n + held
            if 0 < step[1] < half:
                lengths.append(step[1])
                k = len(lengths) - 1
            else:
                count -= held
            continue
        _, length, moved = step
        assert length == lengths[k]
        checks.append((count, n + length))
        count += n + moved
        if not moved:
            continue
        emptied = moved == length
        if emptied:
            del lengths[k]
            count -= held
        else:
            lengths[k] -= moved
        k -= 1
        lengths[k] += moved
        if lengths[k] == half:
            del lengths[k]
            count -= held
            passed = len(lengths) - k
            checks.append((count, n * passed))
            count += n * passed
            if deltas is not None:
                deltas.append((k, passed, emptied))
    return checks


def _refused_at(checks, cap: int) -> int | None:
    """Units counted when the cap stops the checks, else None."""
    return next((count for count, most in checks if count + most > cap), None)


@pytest.mark.parametrize("held", [0, 3, garside.HELD_UNITS])
def test_nf_refuses_before_its_counted_work_passes_the_cap(monkeypatch, held):
    rng = seeded_rng(13)
    for _ in range(60):
        n = rng.randint(2, 7)
        w = random_braid_word(rng, n, rng.randint(0, 30))
        expected = garside_nf(w)
        checks = _checks(_work_trace(monkeypatch, w), n, held)
        need = max(count + most for count, most in checks)  # the least cap that accepts w
        for cap in sorted({0, n, n + held * n, need // 3, need // 2, need - 1, need, rng.randint(0, need)}):
            stop = _refused_at(checks, cap)
            with monkeypatch.context() as m:
                m.setattr(garside, "MAX_NF_WORK", cap)
                m.setattr(garside, "HELD_UNITS", held)
                if stop is None:
                    assert garside_nf(w) == expected, (w.to_text(), cap)
                    continue
                assert 0 <= stop <= cap
                with pytest.raises(SizeCapError) as info:
                    garside_nf(w)
            assert str(info.value) == f"normal form on {n} strands would pass the work cap of {cap} ({stop} units counted)"
        assert _refused_at(checks, need) is None and _refused_at(checks, need - 1) is not None


def test_nf_refuses_after_moves_past_the_cap(monkeypatch):
    # s1 S2 s1 S2 s1 S2 on 40 strands: pairs move hundreds of generators.
    w = BraidWord.from_text(40, "s1 S2 s1 S2 s1 S2")
    trace = _work_trace(monkeypatch, w)
    checks = _checks(trace, 40, garside.HELD_UNITS)
    cap = max(count + most for count, most in checks) - 1
    stop = _refused_at(checks, cap)
    i = next(i for i, (count, most) in enumerate(checks) if count + most > cap)
    assert sum(step[2] for step in trace[: i - 1] if step[0] == "pair") > 1000  # counted before the stop
    monkeypatch.setattr(garside, "MAX_NF_WORK", cap)
    with pytest.raises(SizeCapError, match=rf"\({stop} units counted\)$"):
        garside_nf(w)


def test_garside_nf_raises_the_size_cap_error():
    assert (MAX_NF_WORK, garside.HELD_UNITS) == (15_000_000, 199)
    # Two runs of 200 n, then a pair whose b, Delta S2^-1, has n(n-1)/2 - 1 crossings:
    # with n more for the pair's visit, 5,091 strands fit the cap and 5,092 do not.
    assert 401 * 5091 + 5091 * 5090 // 2 - 1 <= MAX_NF_WORK < 401 * 5092 + 5092 * 5091 // 2 - 1
    message = "normal form on 5092 strands would pass the work cap of 15000000 (2036800 units counted)"
    with pytest.raises(SizeCapError) as info:
        garside_nf(BraidWord.from_text(5092, "s1 S2"))
    assert str(info.value) == message
    with pytest.raises(SizeCapError) as info:
        braid_eq(BraidWord.from_text(5092, "s1 S2"), BraidWord.from_text(5092, "s1"))
    assert str(info.value) == message
    with pytest.raises(SizeCapError) as info:  # embedded: s2 S3, one more strand
        cyl_braid_eq(BraidWord.from_text(5091, "s1 S2", cyl=True), BraidWord.from_text(5091, "s1", cyl=True))
    assert str(info.value) == message
    # Each word's form is capped on its own, and one run each stays far below the cap.
    assert braid_eq(BraidWord.from_text(5092, "S1"), BraidWord.from_text(5092, "S2")) is False
    assert cyl_braid_eq(BraidWord.from_text(5091, "S1", cyl=True), BraidWord.from_text(5091, "S2", cyl=True)) is False
    # S1 s2 has the same strands and letters, but b is s2 (stored conjugated): one crossing.
    assert braid_eq(BraidWord.from_text(5092, "s1"), BraidWord.from_text(5092, "s2")) is False


def test_words_past_the_held_cap_build_no_strand_lists(monkeypatch):
    # One factor on n strands costs n + 199 n: 75,000 strands fit the cap, 75,001 do not.
    def no_runs(n, letters):
        raise AssertionError(f"a run on {n} strands was built")

    monkeypatch.setattr(garside, "_runs", no_runs)
    for text in ("", "s1"):
        with pytest.raises(SizeCapError, match=r"on 75001 strands .* \(0 units counted\)$"):
            garside_nf(BraidWord.from_text(75001, text))
    monkeypatch.undo()
    assert garside_nf(BraidWord(75000)) == GarsideNF(75000, 0, ())
    assert garside_nf(BraidWord.from_text(75000, "s1")).factors == ((1, 0, *range(2, 75000)),)


@pytest.mark.parametrize(
    "n, text, digest",
    [
        (5000, "s1 S2", "63df582a4cbc9b9eeb4d0f950fff4a983205cc414e58465971fb15ece00880de"),
        (300, "S1 s2 S3 s1 S2", "15ba533190686234533317711c6ea99b0c8dabd67c9f735328773f1ccdb8eed9"),
    ],
)
def test_edge_words_of_the_strands_times_letters_rule_keep_their_forms(n, text, digest):
    # The slowest words a cap of 10,000 strands x letters admitted; sha256 of
    # describe() as the normal form gave it before the work was counted.
    nf = garside_nf(BraidWord.from_text(n, text))
    assert nf.power == -1 and len(nf.factors) == 2
    assert hashlib.sha256(nf.describe().encode()).hexdigest() == digest


def _deltas(monkeypatch, w: BraidWord) -> list[tuple]:
    """The Deltas that form in the sweeps, as _checks replays them."""
    deltas = []
    _checks(_work_trace(monkeypatch, w), w.n, garside.HELD_UNITS, deltas)
    return deltas


def _assert_oracles_agree(w: BraidWord) -> None:
    nf = garside_nf(w)
    assert nf == letterwise_nf(w), w.to_text()
    assert lk_matrix(nf_to_word(nf)) == lk_matrix(w), w.to_text()


@pytest.mark.parametrize(
    "n, text, deltas",
    [
        (3, "s1 s1 s2 S2", [(1, 1, False)]),  # a Delta with a factor right of it, re-stored
        (4, "S1 S1 s2 S3", [(1, 2, False)]),  # and with two
        (3, "s1 s2 S2", [(0, 1, False)]),  # a Delta at the front
        (4, "S1 s2 S3", [(0, 2, False)]),
        (3, "s1 S1", [(0, 0, True)]),  # b left empty as a becomes Delta, at the front
        (3, "s1 s1 S1", [(1, 0, True)]),  # and right of a factor
        (6, "s1 s1 s1 s1 s1 s1 s1 s1 s2 s3 s4 s5 S5 S4 S3 S2", [(7, 1, False)]),
    ],
)
def test_a_delta_that_forms_joins_the_power_at_once(monkeypatch, n, text, deltas):
    w = BraidWord.from_text(n, text)
    assert _deltas(monkeypatch, w) == deltas
    _assert_oracles_agree(w)
    _assert_oracles_agree(w.inverse())


def test_negative_runs_on_two_strands_hold_nothing(monkeypatch):
    # On two strands a run is s1 or S1, which is Delta or its inverse: it goes into the power, and
    # no factor is ever held or weighted.
    rng = seeded_rng(14)
    for text in ["S1", "S1 S1 s1 S1", "s1 S1 S1 s1 s1"] + [random_braid_word(rng, 2, 9).to_text() for _ in range(20)]:
        w = BraidWord.from_text(2, text)
        assert [step for step in _work_trace(monkeypatch, w) if step[0] == "pair"] == []
        assert garside_nf(w).factors == ()
        _assert_oracles_agree(w)


def test_deltas_that_form_in_random_words_match_the_oracles(monkeypatch):
    rng = seeded_rng(15)
    kinds = set()
    for _ in range(150):
        n = rng.randint(3, 6)
        w = random_braid_word(rng, n, rng.randint(0, 24))
        for k, passed, emptied in _deltas(monkeypatch, w):
            kinds.add((k > 0, passed > 0, emptied))
        _assert_oracles_agree(w)
    # Deltas at the front and further in, with factors to re-store and with b left empty.
    assert {(False, True, False), (True, True, False), (False, False, True), (True, False, True)} <= kinds


def test_a_delta_that_forms_leaves_without_passing_the_factors_left_of_it(monkeypatch):
    # The last S2 makes the eighth factor Delta.  Carried to the front, it was weighted against
    # each of the seven s1 factors left of it, 14 moves each: 15 pairs and 108 moves.
    w = BraidWord.from_text(6, "s1 s1 s1 s1 s1 s1 s1 s1 s2 s3 s4 s5 S5 S4 S3 S2")
    pairs = [step for step in _work_trace(monkeypatch, w) if step[0] == "pair"]
    assert (len(pairs), sum(step[2] for step in pairs)) == (8, 10)
