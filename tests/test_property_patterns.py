"""Property-based tests for pattern construction and matching invariants."""

import string

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.patterns import (
    Pattern,
    PatternKind,
    PatternSet,
    PatternSetBuilder,
    find_occurrences,
    match_strength,
    select_top_patterns,
)
from repro.corpus.corpus import Corpus
from repro.corpus.paper import Section
from repro.index.inverted import InvertedIndex
from repro.ontology.ontology import Ontology, Term

words = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
token_lists = st.lists(words, max_size=30)
phrases = st.lists(words, min_size=1, max_size=4).map(tuple)


class TestFindOccurrencesProperties:
    @given(token_lists, phrases)
    def test_every_occurrence_matches(self, tokens, phrase):
        for start in find_occurrences(tokens, phrase):
            assert tuple(tokens[start : start + len(phrase)]) == phrase

    @given(token_lists, phrases)
    def test_occurrences_sorted_unique(self, tokens, phrase):
        hits = find_occurrences(tokens, phrase)
        assert hits == sorted(set(hits))

    @given(token_lists, phrases)
    def test_count_never_exceeds_possible_windows(self, tokens, phrase):
        hits = find_occurrences(tokens, phrase)
        assert len(hits) <= max(len(tokens) - len(phrase) + 1, 0)

    @given(token_lists, words)
    def test_single_word_occurrences_match_count(self, tokens, word):
        hits = find_occurrences(tokens, (word,))
        assert len(hits) == tokens.count(word)

    @given(phrases)
    def test_phrase_found_in_itself(self, phrase):
        assert find_occurrences(list(phrase), phrase) == [0]


class TestMatchStrengthProperties:
    pattern_strategy = st.builds(
        Pattern,
        left=st.lists(words, max_size=2).map(tuple),
        middle=phrases,
        right=st.lists(words, max_size=2).map(tuple),
        kind=st.just(PatternKind.REGULAR),
        score=st.floats(min_value=0.1, max_value=10.0),
    )

    @given(pattern_strategy, token_lists, st.sampled_from(list(Section)))
    @settings(max_examples=80)
    def test_strength_bounded(self, pattern, tokens, section):
        if section in (Section.AUTHORS, Section.REFERENCES):
            return
        start = min(2, max(len(tokens) - len(pattern.middle), 0))
        strength = match_strength(pattern, tokens, start, section)
        assert 0.0 <= strength <= 1.0

    @given(pattern_strategy)
    def test_perfect_surround_is_section_weight(self, pattern):
        tokens = list(pattern.left) + list(pattern.middle) + list(pattern.right)
        strength = match_strength(
            pattern, tokens, len(pattern.left), Section.TITLE
        )
        # Perfect surround similarity -> weight * (0.5 + 0.5 * 1.0) = weight.
        # Jaccard over sets can fall below 1.0 only when surround words
        # repeat across tuples; allow that slack.
        assert 0.5 <= strength <= 1.0

    @given(pattern_strategy, token_lists)
    def test_title_strength_dominates_body(self, pattern, tokens):
        title = match_strength(pattern, tokens, 0, Section.TITLE)
        body = match_strength(pattern, tokens, 0, Section.BODY)
        assert title >= body


class TestPatternSetProperties:
    pattern_lists = st.lists(
        st.builds(
            Pattern,
            left=st.lists(words, max_size=2).map(tuple),
            middle=phrases,
            right=st.lists(words, max_size=2).map(tuple),
            kind=st.sampled_from(list(PatternKind)),
            score=st.floats(min_value=0.0, max_value=5.0),
        ),
        max_size=12,
    )

    @given(pattern_lists)
    def test_middles_is_set_of_all_middles(self, patterns):
        pattern_set = PatternSet(term_id="t", patterns=patterns)
        assert pattern_set.middles() == {p.middle for p in patterns}

    @given(pattern_lists)
    def test_first_word_index_complete(self, patterns):
        pattern_set = PatternSet(term_id="t", patterns=patterns)
        indexed = pattern_set.by_first_middle_word()
        total_indexed = sum(len(group) for group in indexed.values())
        with_middle = [p for p in patterns if p.middle]
        assert total_indexed == len(with_middle)
        for first_word, group in indexed.items():
            for pattern in group:
                assert pattern.middle[0] == first_word


def _reference_extract(training_tokens, significant, window):
    """Brute-force extraction: one ``find_occurrences`` scan per phrase."""
    counts = {}
    phrases = sorted(significant, key=len, reverse=True)
    for tokens in training_tokens:
        seen_here = set()
        for phrase in phrases:
            for start in find_occurrences(tokens, phrase):
                left = tuple(tokens[max(start - window, 0) : start])
                end = start + len(phrase)
                right = tuple(tokens[end : end + window])
                key = (left, phrase, right)
                entry = counts.setdefault(key, {"occ": 0, "papers": 0})
                entry["occ"] += 1
                if key not in seen_here:
                    entry["papers"] += 1
                    seen_here.add(key)
    return counts


# A four-word alphabet makes repeated tokens and overlapping phrases common.
small_words = st.sampled_from(["a", "b", "c", "d"])
streams = st.lists(small_words, min_size=1, max_size=20).map(tuple)
sources = st.sampled_from(["context", "frequent", "both"])


@st.composite
def extraction_inputs(draw):
    training = draw(st.lists(streams, min_size=1, max_size=4))
    phrases = draw(
        st.lists(st.lists(small_words, min_size=1, max_size=3).map(tuple), max_size=6)
    )
    for tokens in training:
        # A stream suffix (a phrase ending at the end of the stream) and
        # its first word (a phrase nested inside it).
        if draw(st.booleans()):
            length = draw(st.integers(1, min(3, len(tokens))))
            phrases += [tokens[-length:], tokens[-length:][:1]]
    significant = {phrase: draw(sources) for phrase in phrases}
    return training, significant, draw(st.integers(0, 3))


class TestExtractionProperties:
    @staticmethod
    def _builder(window):
        ontology = Ontology([Term("t", "term")])
        return PatternSetBuilder(ontology, Corpus(), InvertedIndex(), window=window)

    @given(extraction_inputs())
    @example(([("a",)], {("a",): "context"}, 2))
    @example(([("a", "a", "a")], {("a", "a"): "frequent", ("a",): "both"}, 1))
    @settings(max_examples=200)
    def test_positional_extraction_matches_brute_force(self, inputs):
        training, significant, window = inputs
        extracted = self._builder(window)._extract_regular(training, significant)
        expected = _reference_extract(training, significant, window)
        assert list(extracted.items()) == list(expected.items())


class TestTopPatternSelection:
    candidates = st.dictionaries(
        st.tuples(
            st.lists(small_words, max_size=2).map(tuple),
            st.lists(small_words, min_size=1, max_size=2).map(tuple),
            st.lists(small_words, max_size=2).map(tuple),
        ),
        # Few distinct scores, so ties between different keys are common.
        st.sampled_from([0.5, 1.0, 2.0]),
        max_size=20,
    )

    @given(candidates, st.integers(0, 25))
    def test_matches_full_sort(self, candidates, k):
        scored = [(score, key) for key, score in candidates.items()]
        patterns = [
            Pattern(*key, kind=PatternKind.REGULAR, score=score)
            for score, key in scored
        ]
        expected = sorted(patterns, key=lambda p: (-p.score, p.key()))[:k]
        assert select_top_patterns(iter(scored), k) == expected
