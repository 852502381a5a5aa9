"""Corpora for tests, built from sentence objects.

kiqa builds a :class:`~kiqa.corpus.KnowledgeCorpus` from its columns only;
tests that spell a corpus sentence by sentence go through :func:`corpus_of`.
"""

from kiqa.corpus import KnowledgeCorpus, KnowledgeSentence


def corpus_of(sentences, paragraphs=None) -> KnowledgeCorpus:
    """The corpus of ``sentences`` in order, with ``paragraphs`` ranges if given."""
    sentences: list[KnowledgeSentence] = list(sentences)
    return KnowledgeCorpus([s.id for s in sentences], [s.text for s in sentences],
                           [s.source_tag for s in sentences], [s.title for s in sentences],
                           paragraphs)
