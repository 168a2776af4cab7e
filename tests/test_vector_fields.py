import numpy as np
import pytest

from kgz2d.energy_diag import (GhostEnergies, _xnorm_snapshot, jbracket,
                               spectral_energy, xnorm_distance)
from kgz2d.grid import (
    Field,
    FieldPair,
    bump_window,
    laplacian,
    make_grid,
    partial,
)
from kgz2d import vector_fields
from kgz2d.propagator import LinearOperator, free_step
from kgz2d.vector_fields import (
    LETTERS,
    PARTS,
    WORD_WEIGHTS,
    GammaWord,
    WordPlanes,
    all_words,
    apply_gamma,
    apply_letters,
    check_commutators,
    good_derivative,
    word_terms,
)

from conftest import windowed_random_field, windowed_random_jet


def planes_of(grid, t, *levels):
    """The word planes of physical jet levels, each packed by box_rfft."""
    return WordPlanes(grid, t, [
        grid.box_rfft(np.reshape(lv, (-1,) + lv.shape[-2:])) for lv in levels])


def kg_jet_from_pair(pair, t):
    """Free Klein-Gordon jet: u_tt = lap(u) - u."""
    utt = laplacian(pair.u).values - pair.u.values
    return planes_of(pair.grid, t, pair.u.values, pair.ut.values, utt)


class TestWords:
    def test_order_cap(self):
        with pytest.raises(ValueError):
            GammaWord(("dt", "L1", "L2"))

    def test_unknown_letter(self):
        with pytest.raises(ValueError):
            GammaWord(("dx",))

    def test_word_count(self):
        assert len(all_words(0)) == 1
        assert len(all_words(1)) == 7
        assert len(all_words(2)) == 43

    def test_budget_exhaustion(self, grid64):
        jet = windowed_random_jet(grid64, 1)
        with pytest.raises(ValueError):
            apply_letters(("dt", "L1", "L2"), jet)


def depth3_jet(grid, seed, t=0.8, components=1):
    """Windowed random jet that also carries a third time derivative."""
    return windowed_random_jet(grid, seed, t, components, depth=3)


def reference_word(letters, planes):
    """Every time level of a word, letter by letter: each letter pushed
    through all of the jet's levels (the planes' levels made physical),
    multiplying by x_a in physical space and taking every spatial
    derivative with its own forward transform.  This is the letter path
    that the word table replaced, kept as the tests' reference."""
    g, t = planes.grid, planes.t

    def dx(arr, axis):
        return g.irfft(g.spectral["d1" if axis == 1 else "d2"] * g.rfft(arr))

    levels = [g.box_irfft(b) for b in planes.levels]
    for letter in reversed(letters):
        if letter == "dt":
            levels = levels[1:]
        elif letter in ("d1", "d2"):
            levels = [dx(lv, 1 if letter == "d1" else 2) for lv in levels]
        elif letter == "rot":
            levels = [g.X1 * dx(lv, 2) - g.X2 * dx(lv, 1) for lv in levels]
        else:
            axis = 1 if letter == "L1" else 2
            xa = g.X1 if axis == 1 else g.X2
            out = []
            for j in range(len(levels) - 1):
                val = xa * levels[j + 1] + t * dx(levels[j], axis)
                if j >= 1:
                    val = val + j * dx(levels[j - 1], axis)
                out.append(val)
            levels = out
    return levels


def plain_terms(terms, planes):
    """The sum of word terms on whole-plane transforms: each plane the irfft
    of its level's unpacked spectrum times the derivative multipliers, the
    terms summed in order, as WordPlanes.combine sums them."""
    g = planes.grid
    factor = {"t": planes.t, "x1": g.X1, "x2": g.X2}
    total = None
    for term in terms:
        *coef, name = term.lstrip("-").split("*")
        hat = g.unpack(planes.levels[name.count("t")])
        for axis in name.lstrip("ut"):
            hat = g.spectral["d" + axis] * hat
        value = g.irfft(hat)
        for f in coef:
            value = factor[f] * value
        value = -value if term[0] == "-" else value
        total = value if total is None else total + value
    return total


class TestOnePass:
    def test_matches_two_passes_for_every_word(self, grid64):
        # words evaluated on one shared set of planes equal those evaluated
        # each on planes of its own, bit for bit
        shared = depth3_jet(grid64, 30)
        for w in all_words(2):
            for letters in (w.letters, ("dt",) + w.letters):
                fresh = apply_letters(letters, depth3_jet(grid64, 30))
                assert np.array_equal(apply_letters(letters, shared).values,
                                      fresh.values), letters

    def test_bit_identical_to_plain_evaluation(self, grid64):
        # the pruned transforms of the planes give the whole-plane ones
        jet = depth3_jet(grid64, 31, 1.3, components=2)
        for w in all_words(2):
            for letters in (w.letters, ("dt",) + w.letters):
                assert np.array_equal(apply_letters(letters, jet).values,
                                      plain_terms(word_terms(letters), jet)), w

    def test_word_jet_derivatives_match_partial(self, grid128):
        # the d_a rows of a word are the words d_a Gamma, and on a jet whose
        # packed fields stay inside the box they match the spectral
        # derivative of the word's value
        jet = windowed_random_jet(grid128, 32)
        for d in ((), ("dt",)):
            value = Field(grid128, jet.combine(word_terms(d + ("rot",))))
            for a in (1, 2):
                letters = (f"d{a}",) + d + ("rot",)
                row = jet.combine(word_terms(letters))
                assert np.array_equal(row, apply_letters(letters, jet).values)
                ref = partial(value, a).values
                assert np.max(np.abs(row - ref)) <= 1e-10 * np.max(np.abs(ref))
        assert WORD_WEIGHTS[("rot",)][2:] == tuple(
            word_terms((f"d{a}", "rot")) for a in (1, 2))

    def test_budget_counts_the_extra_levels(self, grid64):
        jet = windowed_random_jet(grid64, 33)
        apply_letters(("L1", "L2"), jet)  # reads u_tt, the last level held
        budget = r"plane 'uttt' exceeds the derivative budget .*\(u, ut, utt\)"
        with pytest.raises(ValueError, match=budget):
            apply_letters(("dt", "L1", "L2"), jet)
        with pytest.raises(ValueError, match="derivative budget"):
            apply_letters(("dt", "dt", "L1", "L2"), depth3_jet(grid64, 33))
        with pytest.raises(ValueError, match="derivative budget"):
            apply_letters(("L1",), windowed_random_jet(grid64, 33, depth=0))

    def test_unknown_letter(self, grid64):
        with pytest.raises(ValueError, match="unknown vector field"):
            apply_letters(("dx",), windowed_random_jet(grid64, 34))

    def test_shallow_jet(self, grid64):
        base = windowed_random_jet(grid64, 35)
        jet = WordPlanes(grid64, base.t, base.levels[:2])
        assert len(jet.levels) == 2
        assert np.array_equal(apply_gamma(GammaWord(("L2",)), jet).values,
                              apply_gamma(GammaWord(("L2",)), base).values)
        with pytest.raises(ValueError, match="derivative budget"):
            apply_gamma(GammaWord(("dt", "dt")), jet)


class OneSnapshot:
    """The trajectory interface xnorm_distance reads, with one snapshot:
    each field's packed jet levels."""

    def __init__(self, grid, jets):
        self.grid = grid
        self.times = np.array([jets["E"].t])
        self.levels = {which: jet.levels for which, jet in jets.items()}

    def jet_levels(self, k, which, depth=2):
        return self.levels[which][:depth + 1]


class TestTransformCounts:
    # Each plane is one pruned inverse transform, shared by every word of
    # the jet; only the planes a word reads are made.
    @pytest.mark.parametrize("letter, counts", [
        ("dt", (0, 1)), ("d1", (0, 1)), ("d2", (0, 1)), ("rot", (0, 2)),
        ("L1", (0, 2)), ("L2", (0, 2))])
    def test_single_letter_word(self, grid64, transforms, letter, counts):
        jet = windowed_random_jet(grid64, 40)
        calls = transforms()
        apply_gamma(GammaWord((letter,)), jet)
        assert (calls["rfft"] + calls["irfft"], calls["box_irfft"]) == counts

    def test_words_share_the_jet_transforms(self, grid64, transforms):
        jet = windowed_random_jet(grid64, 41)
        calls = transforms()
        for letter in LETTERS:
            apply_gamma(GammaWord((letter,)), jet)
        # u_t, d_1 u and d_2 u
        assert calls == {"rfft": 0, "irfft": 0, "box_rfft": 0, "box_irfft": 3}

    def test_xnorm_distance_snapshot(self, grid64, transforms):
        def jets(seed):
            return {"E": windowed_random_jet(grid64, seed, components=2),
                    "n": windowed_random_jet(grid64, seed + 1)}

        a, b = OneSnapshot(grid64, jets(42)), OneSnapshot(grid64, jets(44))
        calls = transforms()
        xnorm_distance(a, b)
        # one pruned inverse per plane of the difference levels: u, u_t,
        # u_tt and d_a of u and u_t for dE (7), u, u_t and d_a u for dn
        # (4); E_1 of Gamma dE takes a spectrum of its value row alone,
        # for the gradient term: the jet's packed spectrum for the words
        # whose row is one plane (1, dt, d1, d2) and one rfft each for
        # rot, L1 and L2
        assert calls == {"rfft": 3, "irfft": 0,
                         "box_rfft": 0, "box_irfft": 11}

    @pytest.mark.parametrize("polarised, counts", [
        (False, {"rfft": 6, "irfft": 0, "box_rfft": 0, "box_irfft": 18}),
        (True, {"rfft": 3, "irfft": 0, "box_rfft": 0, "box_irfft": 11})])
    def test_xnorm_distance_snapshot_planes(self, grid64, planes, polarised,
                                            counts):
        # the same transforms counted by component: dE's 7 planes of 2
        # components and dn's 4 of 1 inverse, and rot, L1 and L2's values
        # of 2 components forward.  Polarised E is packed, as the march
        # packs gaussian_data's, to its one live component
        def jets(seed):
            return {"E": windowed_random_jet(
                        grid64, seed, components=1 if polarised else 2),
                    "n": windowed_random_jet(grid64, seed + 1)}

        a, b = OneSnapshot(grid64, jets(42)), OneSnapshot(grid64, jets(44))
        calls = planes()
        xnorm_distance(a, b)
        assert calls == counts

    def test_identical_sides_transform_nothing(self, grid64, planes):
        # a causal map's iterates agree bit for bit on their first steps,
        # where the distance is exactly 0.0 and makes no plane
        side = {"E": windowed_random_jet(grid64, 46).levels,
                "n": windowed_random_jet(grid64, 47).levels[:2]}
        calls = planes()
        assert _xnorm_snapshot(grid64, 0.8, side, side) == 0.0
        assert calls == dict.fromkeys(calls, 0)

    def test_word_table_reads_each_plane_once(self, grid64, transforms):
        # the 7 words |I| <= 1 and their first derivatives read 9 planes
        # without u itself, each one pruned inverse transform
        planes = windowed_random_jet(grid64, 45)
        calls = transforms()
        for rows in WORD_WEIGHTS.values():
            for terms in rows[1:]:
                planes.combine(terms)
        assert calls == {"rfft": 0, "irfft": 0, "box_rfft": 0, "box_irfft": 9}
        planes.combine(WORD_WEIGHTS[()][0])
        assert calls["box_irfft"] == 10


class TestPackedSpectrum:
    @pytest.mark.parametrize("name", ["u", "ut", "u1", "u2"])
    def test_gradient_parseval_of_the_plane(self, grid64, name):
        # levels of random fields, so the planes reach the box edge; the
        # packed spectrum stands for the plane's rfft in E_1's gradient term
        g, rng = grid64, np.random.default_rng(47)
        planes = planes_of(g, 0.8, *rng.standard_normal((2, 2, 64, 64)))
        if name[-1].isdigit():  # d_a u, against the whole-plane derivative
            ref = partial(Field(g, planes["u"]), int(name[-1])).values
            assert np.max(np.abs(planes[name] - ref)) \
                <= 1e-12 * np.max(np.abs(ref))
        rows, cols = g.spectral["box"]
        assert np.array_equal(g.spectral["grad_sq"][rows, :cols],
                              g.spectral["box_k_sq"])
        want = g.parseval(g.rfft(planes[name]), g.spectral["grad_sq"])
        got = g.parseval(planes.packed(name), g.spectral["box_k_sq"])
        assert got == pytest.approx(want, rel=1e-13)


def box_interior_jet(seed, components):
    """The planes of a windowed jet on a box wide enough that its
    band-limited fields reach the edge at 1e-16 of their peak, so the
    sawtooth x_a of the letter path (reference_word) costs nothing."""
    return windowed_random_jet(make_grid(128, 24.0), seed, t=0.8,
                               components=components)


# The table as first written out by hand: each word |I| <= 1 and its d_t,
# d_1 and d_2.  Its term order fixes the order of the ghost energies' sums,
# so the generated table must equal it term for term.
HAND_TABLE = {
    (): (("u",), ("ut",), ("u1",), ("u2",)),
    ("dt",): (("ut",), ("utt",), ("ut1",), ("ut2",)),
    ("d1",): (("u1",), ("ut1",), ("u11",), ("u12",)),
    ("d2",): (("u2",), ("ut2",), ("u12",), ("u22",)),
    ("rot",): (("x1*u2", "-x2*u1"), ("x1*ut2", "-x2*ut1"),
               ("u2", "x1*u12", "-x2*u11"), ("x1*u22", "-u1", "-x2*u12")),
    ("L1",): (("x1*ut", "t*u1"), ("x1*utt", "u1", "t*ut1"),
              ("ut", "x1*ut1", "t*u11"), ("x1*ut2", "t*u12")),
    ("L2",): (("x2*ut", "t*u2"), ("x2*utt", "u2", "t*ut2"),
              ("x2*ut1", "t*u12"), ("ut", "x2*ut2", "t*u22")),
}

FIRST = ((), ("dt",), ("d1",), ("d2",))


def table_errors(planes):
    """Per word |I| <= 2, the largest deviation from the letter path of its
    value and, for |I| <= 1, of its d_t, d_1 and d_2, each relative to the
    letter path's peak.  The terms are generated afresh from PARTS."""
    out = {}
    for w in all_words(2):
        firsts = FIRST if len(w.letters) <= 1 else FIRST[:1]
        refs = [reference_word(d + w.letters, planes)[0] for d in firsts]
        out[w.letters] = max(
            np.max(np.abs(planes.combine(word_terms(d + w.letters)) - ref))
            / np.max(np.abs(ref)) for d, ref in zip(firsts, refs))
    return out


def letter_path_ghost(planes, m, delta):
    """Each word's natural energy (a Parseval sum) and ghost integrand
    int w delta (|G Gamma u|^2 + m^2 |Gamma u|^2), evaluated letter by
    letter (reference_word) on the jet."""
    g = planes.grid
    weight = jbracket(planes.t - g.R) ** (-(1.0 + delta))
    rows, integ = [], []
    for w in all_words(1):
        u, ut = reference_word(w.letters, planes)[:2]
        rows.append(spectral_energy(g, g.rfft(u), g.rfft(ut), m))
        good = sum((rho * ut + reference_word((f"d{a}",) + w.letters,
                                              planes)[0]) ** 2
                   for a, rho in zip((1, 2), g.radial_unit))
        dens = delta * np.sum(good + m**2 * u**2, axis=0)
        integ.append(float(np.sum(weight * dens) * g.cell_area))
    return np.array(rows), np.array(integ)


class TestWordTable:
    def test_generated_table_is_the_hand_table(self):
        assert list(WORD_WEIGHTS.items()) == list(HAND_TABLE.items())
        assert word_terms(("L1", "L1")) == (
            "x1*x1*utt", "x1*u1", "x1*t*ut1", "t*ut", "t*x1*ut1", "t*t*u11")

    def test_table_is_in_word_order(self):
        # the X-distance sums its words in the table's order, so a reordered
        # table would move picard.txt by round-off
        assert list(WORD_WEIGHTS) == [w.letters for w in all_words(1)]

    # The product rule against the letter path, which multiplies by x_a in
    # physical space and transforms the product again: on box-interior
    # fields the two agree to round-off, measured <= 3.6e-13 of each word's
    # peak on these jets, the order-2 words included
    @pytest.mark.parametrize("components", [1, 2])
    @pytest.mark.parametrize("seed", [60, 61])
    def test_rows_match_the_letter_path(self, seed, components):
        errors = table_errors(box_interior_jet(seed, components))
        assert set(errors) == {w.letters for w in all_words(2)}
        assert max(errors.values()) <= 1e-12, errors

    def test_a_flipped_product_rule_sign_is_caught(self, monkeypatch):
        # rot with +x2 d_1 for -x2 d_1 moves every word that holds rot by
        # O(1) of its peak and no other word
        jet = box_interior_jet(60, 1)
        assert PARTS["rot"][1] == ("-x2", "1")
        monkeypatch.setitem(PARTS, "rot", (PARTS["rot"][0], ("x2", "1")))
        errors = table_errors(jet)
        caught = {w for w, err in errors.items() if err > 0.1}
        assert caught == {w for w in errors if "rot" in w}
        assert max(err for w, err in errors.items()
                   if w not in caught) <= 1e-12
        # and the ghost energies, which read the table, move with it
        monkeypatch.setitem(WORD_WEIGHTS, ("rot",), tuple(
            word_terms(d + ("rot",)) for d in FIRST))
        ghost = GhostEnergies(jet.grid, 0.1, "n")
        ghost.add(jet.t, jet.levels)
        rows, _ = letter_path_ghost(jet, 0, 0.1)
        moved = np.abs(ghost.rows[0] - rows) > 1e-14 * rows
        assert list(moved) == [w.letters == ("rot",) for w in all_words(1)]

    def test_the_boost_row_has_no_sawtooth(self):
        # u = 0 and u_t = 1 on the whole box: d_1 (L1 u) = u_t + x1 d_1 u_t
        # + t d_1^2 u is exactly 1 on the table, while the letter path takes
        # the spectral derivative of the sawtooth x1 u_t, whose Gibbs
        # overshoot at the box edge reads from -43.3 to 20.6 with mean 0.
        # This edge error is what the extra-decay ratios read before they
        # moved to the table.
        g = make_grid(64, 12.0)
        ones = np.ones((1, g.n, g.n))
        planes = WordPlanes(g, 0.0, [g.box_rfft(v) for v in (0 * ones, ones)])
        assert np.array_equal(planes.combine(WORD_WEIGHTS[("L1",)][2]), ones)
        letter = reference_word(("d1", "L1"), planes)[0]
        assert np.min(letter) == pytest.approx(-43.3, abs=0.05)
        assert np.max(letter) == pytest.approx(20.6, abs=0.05)
        assert abs(np.mean(letter)) <= 1e-12

    @pytest.mark.parametrize("which, components", [("n", 1), ("E", 2)])
    def test_ghost_energies_match_the_letter_path(self, which, components):
        # both masses; the rows are physical sums here and Parseval sums on
        # the letter path.  Measured at seeds 60-62: <= 5.5e-16 of each row
        # and <= 4.1e-16 of each integrand, the x_a words included
        jet = box_interior_jet(62, components)
        ghost = GhostEnergies(jet.grid, 0.1, which)
        ghost.add(jet.t, jet.levels)
        rows, integ = letter_path_ghost(jet, 1 if which == "E" else 0, 0.1)
        got_rows, got_integ = ghost.rows[0], ghost._prev[1]
        assert np.max(np.abs(got_rows - rows) / rows) <= 1e-14
        assert np.max(np.abs(got_integ - integ) / integ) <= 1e-14


class TestApplyGamma:
    def test_rotation_kills_radial(self, grid64):
        u = np.exp(-grid64.R**2 / 4.0)
        jet = planes_of(grid64, 0.5, u, 0.0 * u, 0.0 * u)
        rot = apply_gamma(GammaWord(("rot",)), jet)
        assert np.max(np.abs(rot.values)) <= 1e-10 * np.max(np.abs(u))

    def test_boost_of_coordinate_field(self):
        # u = x1 (windowed), u_t = 0: L1 u = t d1(x1) = t on the plateau;
        # an exact-plateau C-infinity bump keeps the window out of the value.
        # Packing to the dealias box drops 2.1e-5 of t on the plateau at
        # n=128 and 8.8e-7 at n=192
        g = make_grid(192, 12.0)

        def f(s):
            out = np.zeros_like(s)
            pos = s > 0
            out[pos] = np.exp(-1.0 / s[pos])
            return out

        a = f((10.0 - g.R) / 8.5)
        b = f((g.R - 1.5) / 8.5)
        w = a / (a + b + 1e-300)
        u = g.X1 * w
        t = 1.7
        jet = planes_of(g, t, u, 0.0 * u, 0.0 * u)
        val = apply_gamma(GammaWord(("L1",)), jet).values[0]
        plateau = g.R < 1.2
        assert np.max(np.abs(val[plateau] - t)) <= 1e-5 * t

    def test_identity_word(self, grid64):
        jet = windowed_random_jet(grid64, 5)
        out = apply_gamma(GammaWord(()), jet)
        assert np.array_equal(out.values, grid64.box_irfft(jet.levels[0]))

    def test_dt_returns_ut(self, grid64):
        jet = windowed_random_jet(grid64, 6)
        out = apply_gamma(GammaWord(("dt",)), jet)
        assert np.array_equal(out.values, grid64.box_irfft(jet.levels[1]))

    def test_boost_against_time_stencil(self):
        # free KG plane-wave packet; independent 4-point stencil in t for
        # the time-derivative part of L1
        g = make_grid(96, 12.0)
        w = bump_window(g, 4.0)
        u0 = Field(g, np.cos(3.0 * g.X1) * w)
        pair = FieldPair(u0, Field(g, np.zeros_like(u0.values)))
        dt = 0.02
        op = LinearOperator(g, 1)
        k = 4
        t = k * dt
        at_t = free_step(op, pair, t)
        jet = kg_jet_from_pair(at_t, t)
        lhs = apply_gamma(GammaWord(("L1",)), jet).values
        us = [free_step(op, pair, (k + j) * dt).u.values for j in (-2, -1, 1, 2)]
        ut_fd = (us[0] - 8 * us[1] + 8 * us[2] - us[3]) / (12 * dt)
        oracle = g.X1 * ut_fd + t * partial(at_t.u, 1).values
        scale = np.max(np.abs(lhs))
        assert np.max(np.abs(lhs - oracle)) <= 1e-4 * scale

    def test_leibniz_first_order(self, grid128):
        # Gamma(fg) = Gamma(f) g + f Gamma(g) for order-1 words; the grid
        # keeps the products inside the dealias box that packing keeps
        f_levels = [windowed_random_field(grid128, s) for s in (10, 11, 12)]
        g_levels = [windowed_random_field(grid128, s) for s in (20, 21, 22)]
        prod_levels = [
            f_levels[0] * g_levels[0],
            f_levels[1] * g_levels[0] + f_levels[0] * g_levels[1],
            (f_levels[2] * g_levels[0] + 2 * f_levels[1] * g_levels[1]
             + f_levels[0] * g_levels[2]),
        ]
        t = 0.6
        jf = planes_of(grid128, t, *f_levels)
        jg = planes_of(grid128, t, *g_levels)
        jfg = planes_of(grid128, t, *prod_levels)
        scale = np.max(np.abs(prod_levels[0]))
        for letter in ("dt", "d1", "d2", "rot", "L1", "L2"):
            word = GammaWord((letter,))
            left = apply_gamma(word, jfg).values
            right = (apply_gamma(word, jf).values * g_levels[0]
                     + f_levels[0] * apply_gamma(word, jg).values)
            assert np.max(np.abs(left - right)) <= 1e-7 * scale, letter


class TestCommutators:
    def test_zero_field(self, grid64):
        z = np.zeros((1, 64, 64))
        rep = check_commutators(planes_of(grid64, 1.0, z, z, z))
        assert rep.max_residual == 0.0

    def test_windowed_polynomial(self, grid64):
        # u = x1 x2 (windowed), with an arbitrary jet continuation
        w = bump_window(grid64, 0.4 * grid64.length)
        u = grid64.X1 * grid64.X2 * w
        ut = grid64.X2 * w
        utt = 0.3 * w
        rep = check_commutators(planes_of(grid64, 0.9, u, ut, utt))
        assert rep.max_relative() <= 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_random_fields(self, grid64, seed):
        rep = check_commutators(windowed_random_jet(grid64, 100 + seed))
        assert rep.max_relative() <= 1e-8

    def test_a_dropped_coefficient_derivative_is_caught(self, monkeypatch):
        # a product rule that forgets where a letter's derivative hits a
        # coefficient (x_a or t) moves criterion 3's 20 fields far past its
        # 1e-8: [d1,L1]-dt leaves -u_t
        def plane_rule_only(letter, terms):
            out = []
            for coef, d in PARTS[letter]:
                head = [coef.lstrip("-")] if coef.lstrip("-") else []
                for term in terms:
                    flip = term.startswith("-") != coef.startswith("-")
                    sign = "-" if flip else ""
                    *factors, plane = term.lstrip("-").split("*")
                    axes = "".join(sorted(plane.lstrip("ut") + d.strip("t")))
                    dplane = "u" + "t" * (plane.count("t") + (d == "t")) + axes
                    out.append(sign + "*".join(head + factors + [dplane]))
            return tuple(out)

        g = make_grid(128, 24.0)
        jets = [windowed_random_jet(g, 500 + seed) for seed in range(20)]
        assert max(check_commutators(j).max_relative() for j in jets) <= 1e-8
        monkeypatch.setattr(vector_fields, "apply_parts", plane_rule_only)
        reports = [check_commutators(j) for j in jets]
        assert min(rep.max_relative() for rep in reports) > 1e-8
        for jet, rep in zip(jets, reports):
            assert rep.residuals["[d1,L1]-dt"] == np.max(np.abs(jet["ut"]))

    def test_report_names(self, grid64):
        rep = check_commutators(windowed_random_jet(grid64, 3))
        assert "[dt,L1]-d1" in rep.residuals
        assert "[d1,rot]-d2" in rep.residuals
        assert len(rep.residuals) == 9


class TestFlowCommutation:
    def test_boost_commutes_with_free_flow(self):
        # evolve L1-data freely vs apply L1 to the evolved jet
        g = make_grid(96, 12.0)
        amp = np.exp(-g.R**2 / 2.0)
        u0 = Field(g, amp)
        ut0 = Field(g, 0.5 * amp)
        op = LinearOperator(g, 1)
        T = 2.0
        jet0 = kg_jet_from_pair(FieldPair(u0, ut0), 0.0)
        v0 = Field(g, g.X1 * jet0["ut"])          # L1 u at t=0
        v1 = Field(g, g.X1 * jet0["utt"] + partial(u0, 1).values)
        jetT = kg_jet_from_pair(free_step(op, FieldPair(u0, ut0), T), T)
        direct = apply_gamma(GammaWord(("L1",)), jetT).values
        evolved = free_step(op, FieldPair(v0, v1), T).u.values
        scale = max(np.max(np.abs(direct)), 1e-30)
        assert np.max(np.abs(direct - evolved)) <= 1e-6 * scale


class TestGoodDerivative:
    def test_constant_field(self, grid64):
        ones = np.ones((1, 64, 64))
        jet = planes_of(grid64, 1.0, ones, 0 * ones, 0 * ones)
        for a in (1, 2):
            assert np.max(np.abs(good_derivative(a, jet).values)) <= 1e-12

    def test_finite_at_origin(self, grid64):
        jet = windowed_random_jet(grid64, 42)
        for a in (1, 2):
            vals = good_derivative(a, jet).values
            assert np.all(np.isfinite(vals))

    def test_invalid_axis(self, grid64):
        jet = windowed_random_jet(grid64, 43)
        with pytest.raises(ValueError):
            good_derivative(3, jet)

    def test_outgoing_wave_improvement(self):
        # along the light cone the good derivative beats the full gradient
        g = make_grid(128, 16.0)
        amp = np.exp(-g.R**2 / 2.0)
        op = LinearOperator(g, 0)
        t = 6.0
        pair = free_step(op, FieldPair(Field(g, amp),
                                       Field(g, np.zeros_like(amp))), t)
        jet = planes_of(g, t, pair.u.values, pair.ut.values,
                       laplacian(pair.u).values)
        shell = np.abs(g.R - t) <= 1.0
        good = np.sqrt(sum(good_derivative(a, jet).values[0] ** 2
                           for a in (1, 2)))
        full = np.sqrt(pair.ut.values[0] ** 2
                       + partial(pair.u, 1).values[0] ** 2
                       + partial(pair.u, 2).values[0] ** 2)
        ratio = np.max(good[shell]) / np.max(full[shell])
        assert ratio < 1.0
