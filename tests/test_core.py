import dataclasses
import random
import string

import pytest

from pacloud.core import (
    BuildKey,
    DependencyAtom,
    PackageId,
    Specifier,
    UseFlagSet,
    Version,
    atom_matches,
    compare_versions,
    parse_version,
    select_best_version,
)
from pacloud.errors import (
    MalformedBuildKey,
    MalformedPackageId,
    MalformedVersion,
)

_CATEGORY = string.ascii_lowercase + string.digits + "+_.-"
_NAME = string.ascii_letters + string.digits + "+_.-"
_FLAG = string.ascii_letters + string.digits + "_@-"

FIG8_VERSIONS = ["5.9-r101", "6.0-r1", "6.0-r2", "6.1-r2"]


def random_version(rng: random.Random) -> Version:
    components = tuple(
        rng.randint(0, 20) for _ in range(rng.randint(1, 4))
    )
    letter = rng.choice([None, None, "a", "b", "z"])
    revision = rng.choice([0, 0, 1, 2, 101])
    return Version(components, letter, revision)


class TestParseVersion:
    def test_revision(self):
        v = parse_version("6.1-r2")
        assert v.components == (6, 1)
        assert v.letter is None
        assert v.revision == 2

    def test_single_component(self):
        v = parse_version("0")
        assert v.components == (0,)
        assert v.letter is None
        assert v.revision == 0

    def test_letter_and_revision(self):
        v = parse_version("1.2.3a-r1")
        assert v.components == (1, 2, 3)
        assert v.letter == "a"
        assert v.revision == 1

    @pytest.mark.parametrize(
        "text",
        [
            "r1", "", "1..2", "1.2ab", "1.2-r", "1.2-rx", "1.2_alpha", "a.1", "-r1",
            # digits outside ASCII, which ``\d`` would match
            pytest.param("\u0661.\u0660", id="arabic-indic-digits"),
            pytest.param("1.0-r\u0661", id="arabic-indic-revision"),
            pytest.param("\uff11.0", id="fullwidth-digit"),
            # past int's limit on digits for a string conversion
            pytest.param("1" + "0" * 5000, id="5001-digit-component"),
            pytest.param("1.0-r" + "1" * 5000, id="5000-digit-revision"),
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(MalformedVersion):
            parse_version(text)

    @pytest.mark.parametrize("text", [
        pytest.param("1.0_" + "x" * 100000, id="no-match"),
        pytest.param("1" + "0" * 100000, id="past-int-limit"),
    ])
    def test_the_error_quotes_at_most_60_characters_of_the_input(self, text):
        with pytest.raises(MalformedVersion) as caught:
            parse_version(text)
        assert str(caught.value) == f"not a valid version: {text!r:.60}"
        assert len(str(caught.value)) == len("not a valid version: ") + 60

    def test_normalization(self):
        assert parse_version("1.08").render() == "1.8"
        assert parse_version("1.2-r0").render() == "1.2"
        assert parse_version("1.2-r01").render() == "1.2-r1"

    def test_parse_render_round_trip(self):
        rng = random.Random(1)
        for _ in range(500):
            v = random_version(rng)
            assert parse_version(v.render()) == v


class TestCompareVersions:
    def test_fig8_neighbours(self):
        assert compare_versions(parse_version("5.9-r101"), parse_version("6.0-r1")) < 0

    def test_revision_tiebreak(self):
        assert compare_versions(parse_version("6.0-r1"), parse_version("6.0-r2")) < 0

    def test_numeric_not_lexicographic(self):
        assert compare_versions(parse_version("1.10"), parse_version("1.9")) > 0

    def test_reflexive(self):
        v = parse_version("6.1-r2")
        assert compare_versions(v, v) == 0

    def test_letter_above_plain(self):
        assert compare_versions(parse_version("1.2"), parse_version("1.2a")) < 0

    def test_shorter_prefix_sorts_first(self):
        assert compare_versions(parse_version("1.2"), parse_version("1.2.0")) < 0

    def test_total_order_axioms(self):
        rng = random.Random(2)
        for _ in range(300):
            a, b, c = (random_version(rng) for _ in range(3))
            ab, ba = compare_versions(a, b), compare_versions(b, a)
            assert ab == -ba  # antisymmetry
            if ab == 0:
                assert a.sort_key() == b.sort_key()
            if ab <= 0 and compare_versions(b, c) <= 0:
                assert compare_versions(a, c) <= 0  # transitivity


class TestAtomMatches:
    def test_ge(self):
        atom = DependencyAtom(
            Specifier.GE, PackageId.parse("sys-libs/ncurses"), parse_version("6.0-r2")
        )
        assert atom_matches(atom, parse_version("6.1-r2"))

    def test_tilde_ignores_revision(self):
        atom = DependencyAtom(
            Specifier.TILDE, PackageId.parse("a/b"), parse_version("1.2")
        )
        assert atom_matches(atom, parse_version("1.2-r5"))
        assert atom_matches(atom, parse_version("1.2"))
        assert not atom_matches(atom, parse_version("1.2a"))
        assert not atom_matches(atom, parse_version("1.2.0"))

    def test_eq_requires_exact_revision(self):
        atom = DependencyAtom(
            Specifier.EQ, PackageId.parse("a/b"), parse_version("1.2")
        )
        assert not atom_matches(atom, parse_version("1.2-r1"))
        assert atom_matches(atom, parse_version("1.2"))

    def test_any_matches_everything(self):
        atom = DependencyAtom(Specifier.ANY, PackageId.parse("a/b"))
        rng = random.Random(3)
        for _ in range(20):
            assert atom_matches(atom, random_version(rng))

    def test_lt_and_le(self):
        v = parse_version("2.0")
        lt = DependencyAtom(Specifier.LT, PackageId.parse("a/b"), v)
        le = DependencyAtom(Specifier.LE, PackageId.parse("a/b"), v)
        assert atom_matches(lt, parse_version("1.9"))
        assert not atom_matches(lt, parse_version("2.0"))
        assert atom_matches(le, parse_version("2.0"))

    def test_specifier_version_agreement(self):
        from pacloud.errors import MalformedAtom

        with pytest.raises(MalformedAtom):
            DependencyAtom(Specifier.GE, PackageId.parse("a/b"), None)
        with pytest.raises(MalformedAtom):
            DependencyAtom(Specifier.ANY, PackageId.parse("a/b"), parse_version("1"))


class TestSelectBestVersion:
    def setup_method(self):
        self.available = {parse_version(v) for v in FIG8_VERSIONS}
        self.pkg = PackageId.parse("sys-libs/ncurses")

    def brute_force(self, atom):
        matching = [v for v in self.available if atom_matches(atom, v)]
        return max(matching, key=Version.sort_key) if matching else None

    def test_ge_picks_highest(self):
        atom = DependencyAtom(Specifier.GE, self.pkg, parse_version("6.0-r2"))
        assert select_best_version(atom, self.available) == parse_version("6.1-r2")
        assert select_best_version(atom, self.available) == self.brute_force(atom)

    def test_lt_picks_highest_below(self):
        atom = DependencyAtom(Specifier.LT, self.pkg, parse_version("6.0"))
        assert select_best_version(atom, self.available) == parse_version("5.9-r101")
        assert select_best_version(atom, self.available) == self.brute_force(atom)

    def test_nothing_above_maximum(self):
        atom = DependencyAtom(Specifier.GT, self.pkg, parse_version("6.1-r2"))
        assert select_best_version(atom, self.available) is None

    def test_agrees_with_brute_force_on_random_sets(self):
        rng = random.Random(4)
        for _ in range(200):
            pool = {random_version(rng) for _ in range(rng.randint(0, 8))}
            specifier = rng.choice(list(Specifier))
            if specifier is Specifier.ANY:
                atom = DependencyAtom(Specifier.ANY, self.pkg)
            else:
                atom = DependencyAtom(specifier, self.pkg, random_version(rng))
            expected_pool = [v for v in pool if atom_matches(atom, v)]
            expected = (
                max(expected_pool, key=Version.sort_key) if expected_pool else None
            )
            assert select_best_version(atom, pool) == expected


class TestPackageId:
    def test_parse_render_round_trip(self):
        pid = PackageId.parse("x11-libs/gtk+")
        assert pid.category == "x11-libs"
        assert pid.name == "gtk+"
        assert PackageId.parse(pid.render()) == pid

    @pytest.mark.parametrize(
        "text",
        [
            "noslash", "a/b/c", "/name", "cat/", "UPPER/name", "cat/na me",
            "../..", "./name", "cat/..", "cat/.",
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(MalformedPackageId):
            PackageId.parse(text)


class TestBuildKey:
    def test_canonical_sorts_flags(self):
        key = BuildKey(
            PackageId.parse("sys-libs/ncurses"),
            parse_version("6.1-r2"),
            UseFlagSet.of(["unicode", "mousewheel"]),
        )
        assert key.canonical() == "sys-libs/ncurses-6.1-r2[mousewheel,unicode]"

    def test_empty_flags(self):
        key = BuildKey(
            PackageId.parse("sys-libs/ncurses"), parse_version("6.1-r2"), UseFlagSet()
        )
        assert key.canonical() == "sys-libs/ncurses-6.1-r2[]"

    def test_flag_order_insensitive(self):
        rng = random.Random(5)
        flags = ["a", "b2", "c-d", "e_f", "@g"]
        reference = None
        for _ in range(10):
            shuffled = flags[:]
            rng.shuffle(shuffled)
            key = BuildKey(
                PackageId.parse("a/b"), parse_version("1"), UseFlagSet.of(shuffled)
            )
            if reference is None:
                reference = key
            assert key == reference
            assert key.canonical() == reference.canonical()

    def test_parse_round_trip(self):
        texts = [
            "sys-libs/ncurses-6.1-r2[mousewheel,unicode]",
            "sys-libs/ncurses-6.1-r2[]",
            "x11-libs/gtk+-2.24.32[]",
            "a/b-c-d-1.2.3a-r4[x]",
        ]
        for text in texts:
            assert BuildKey.parse(text).canonical() == text

    @pytest.mark.parametrize(
        "text",
        ["a/b-1.2", "a/b-1.2[", "ab-1.2[]", "a/b[]", "a/b-x[]", "a/b-1[f l]"],
    )
    def test_malformed(self, text):
        with pytest.raises(MalformedBuildKey):
            BuildKey.parse(text)

    def test_path_token_has_no_slash(self):
        rng = random.Random(4)

        def word(alphabet):
            return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))

        keys = {
            BuildKey.parse("sys-libs/ncurses-6.1-r2[unicode]"),
            # '/' -> '_' once gave these two the same file name
            BuildKey.parse("a_b/c-1.0[]"),
            BuildKey.parse("a/b_c-1.0[]"),
        }
        while len(keys) < 500:
            try:
                package = PackageId(word(_CATEGORY), word(_NAME))
            except MalformedPackageId:  # "." and ".."
                continue
            flags = UseFlagSet.of(word(_FLAG) for _ in range(rng.randint(0, 3)))
            keys.add(BuildKey(package, random_version(rng), flags))
        tokens = {key.path_token() for key in keys}
        assert len(tokens) == len(keys)
        for key in keys:
            assert "/" not in key.path_token()
            assert BuildKey.from_path_token(key.path_token()) == key

    def test_canonical_is_rendered_once_per_key(self, monkeypatch):
        renders = []
        render = UseFlagSet.render
        monkeypatch.setattr(
            UseFlagSet, "render", lambda flags: renders.append(1) or render(flags)
        )
        text = "sys-libs/ncurses-6.1-r2[mousewheel,unicode]"
        key = BuildKey.parse(text)
        assert [key.canonical(), str(key), key.canonical()] == [text] * 3
        token = key.path_token()
        assert len(renders) == 1
        same = BuildKey.from_path_token(token)  # renders its own, once
        assert same.canonical() == text
        assert same.path_token() == token
        assert len(renders) == 2

    def test_the_kept_canonical_is_not_a_field(self):
        text = "sys-libs/ncurses-6.1-r2[unicode]"
        rendered, fresh = BuildKey.parse(text), BuildKey.parse(text)
        rendered.canonical()
        assert rendered == fresh
        assert hash(rendered) == hash(fresh)
        assert repr(rendered) == repr(fresh)
        assert {rendered: 1}[fresh] == 1
        assert BuildKey.from_path_token(rendered.path_token()) == fresh
        assert dataclasses.replace(rendered).canonical() == text
        other = dataclasses.replace(rendered, useflags=UseFlagSet())
        assert other.canonical() == "sys-libs/ncurses-6.1-r2[]"

    @pytest.mark.parametrize(
        "token", ["a/b-1[]", "a%2fb-1[]", "a%2Fb-01[]", "a%2Fb-1[y,x]", "a_b-1[]"]
    )
    def test_from_path_token_takes_only_tokens(self, token):
        with pytest.raises(MalformedBuildKey):
            BuildKey.from_path_token(token)
