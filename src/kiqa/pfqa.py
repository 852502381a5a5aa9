"""Synthetic family-relations MCQ generator.

From a flat list of child→parent facts this builds three question types —
parent, grandparent (parent of parent), sibling (shares at least one
parent) — with four first-name options each.  Distractors are nearby
misspellings: names from the global pool at the smallest available edit
distance from the gold answer, preferring distance 1, then 2.

Each question carries the parent facts that derive its answer, rendered as
"The parent of X is Y." sentences.  Grandparent and sibling questions get
only those constituent facts, never a sentence stating the answer
directly, so answering them requires composing two facts.

Splits are assigned per person: every question about one person lands in
the same split.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from .datasets import McqDataset, McqItem
from .textio import read_text

QTYPES = ("parent", "grandparent", "sibling")


class FactsError(ValueError):
    pass


@dataclass(frozen=True)
class ParentFact:
    child: str
    parent: str

    def __post_init__(self):
        if not self.child.strip() or not self.parent.strip():
            raise FactsError("names must be non-empty")
        if self.child == self.parent:
            raise FactsError(f"{self.child!r} cannot be their own parent")


@dataclass(frozen=True)
class PfqaQuestion:
    person: str
    qtype: str
    question: str
    options: tuple[str, ...]
    gold: int
    knowledge: tuple[str, ...]

    def __post_init__(self):
        if self.qtype not in QTYPES:
            raise FactsError(f"unknown question type {self.qtype!r}")
        if len(self.options) != 4 or len(set(self.options)) != 4:
            raise FactsError("need exactly 4 pairwise distinct options")
        if not 0 <= self.gold < 4:
            raise FactsError("gold index out of range")


def first_name(name: str) -> str:
    return name.split()[0]


def load_facts(path: str | Path) -> list[ParentFact]:
    """TSV with ``child<TAB>parent`` per line; exact duplicates collapse."""
    path = Path(path)
    facts: list[ParentFact] = []
    seen: set[tuple[str, str]] = set()
    for lineno, line in enumerate(read_text(path, FactsError).splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise FactsError(f"{path}:{lineno}: expected child<TAB>parent")
        child, parent = parts[0].strip(), parts[1].strip()
        try:
            fact = ParentFact(child=child, parent=parent)
        except FactsError as exc:
            raise FactsError(f"{path}:{lineno}: {exc}") from exc
        if (child, parent) not in seen:
            seen.add((child, parent))
            facts.append(fact)
    if not facts:
        raise FactsError(f"no facts in {path}")
    return facts


def edit_distance(a: str, b: str) -> int:
    """Unit-cost Levenshtein distance, case-sensitive, two-row DP."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(
                    previous[j] + 1,  # delete from a
                    current[j - 1] + 1,  # insert into a
                    previous[j - 1] + (ca != cb),  # substitute
                )
            )
        previous = current
    return previous[-1]


def select_distractors(
    gold_first_name: str, name_pool: list[str], count: int = 3, seed: int = 0
) -> list[str]:
    """Pick ``count`` names near the gold answer by edit distance.

    Fills from the smallest available distance upward (1, then 2, then
    whatever is nearest); ties within one distance are shuffled by the
    seeded RNG.  The gold name itself is never returned.
    """
    rng = random.Random(seed)
    candidates = sorted({n for n in name_pool if n != gold_first_name})
    if len(candidates) < count:
        raise FactsError(
            f"name pool has only {len(candidates)} candidates excluding the gold answer"
        )
    by_distance: dict[int, list[str]] = {}
    for name in candidates:
        by_distance.setdefault(edit_distance(name, gold_first_name), []).append(name)
    picked: list[str] = []
    for distance in sorted(by_distance):
        group = by_distance[distance]
        rng.shuffle(group)
        for name in group:
            picked.append(name)
            if len(picked) == count:
                return picked
    raise AssertionError("unreachable: pool size checked above")


# ---------------------------------------------------------------------------
# Relation graph
# ---------------------------------------------------------------------------

def _adjacency(facts: list[ParentFact]) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    parents: dict[str, set[str]] = {}
    children: dict[str, set[str]] = {}
    for f in facts:
        parents.setdefault(f.child, set()).add(f.parent)
        children.setdefault(f.parent, set()).add(f.child)
    return (
        {k: sorted(v) for k, v in parents.items()},
        {k: sorted(v) for k, v in children.items()},
    )


def render_fact(fact: ParentFact) -> str:
    return f"The parent of {fact.child} is {fact.parent}."


def _derivations(
    person: str, qtype: str, parents: dict, children: dict
) -> list[tuple[str, tuple[ParentFact, ...]]]:
    """``(answer, facts)`` for each path from ``person`` to a ``qtype``
    relative, with the parent facts that the path composes."""
    if qtype == "parent":
        return [(p, (ParentFact(person, p),)) for p in parents.get(person, [])]
    if qtype == "grandparent":
        return [
            (gp, (ParentFact(person, p), ParentFact(p, gp)))
            for p in parents.get(person, []) for gp in parents.get(p, [])
        ]
    return [
        (c, (ParentFact(person, p), ParentFact(c, p)))
        for p in parents.get(person, []) for c in children.get(p, []) if c != person
    ]


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def generate_questions(facts: list[ParentFact], seed: int = 0) -> list[PfqaQuestion]:
    """One question per (person, question type) with a derivable answer.

    The gold answer is a seeded uniform choice among the true answers'
    first names; every other true answer is barred from the distractor
    pool, so exactly one option is correct.  (Person, qtype) pairs that
    cannot field three distinct distractors are skipped.
    """
    parents, children = _adjacency(facts)
    persons = sorted(set(parents) | set(children))
    pool = sorted({first_name(p) for p in persons})
    rng = random.Random(seed)
    questions: list[PfqaQuestion] = []
    for person in persons:
        for qtype in QTYPES:
            derivations = _derivations(person, qtype, parents, children)
            if not derivations:
                continue
            answer_firsts = sorted({first_name(a) for a, _ in derivations})
            gold_first = rng.choice(answer_firsts)
            available = [n for n in pool if n not in answer_firsts]
            try:
                distractors = select_distractors(
                    gold_first, available, count=3, seed=rng.randrange(2**32)
                )
            except FactsError:
                continue
            options = [gold_first] + distractors
            rng.shuffle(options)
            questions.append(
                PfqaQuestion(
                    person=person,
                    qtype=qtype,
                    question=f"Who is the {qtype} of {person}?",
                    options=tuple(options),
                    gold=options.index(gold_first),
                    knowledge=tuple(dict.fromkeys(
                        render_fact(f) for answer, path in derivations
                        if first_name(answer) == gold_first for f in path
                    )),
                )
            )
    return questions


def assign_splits(
    questions: list[PfqaQuestion], seed: int = 0
) -> tuple[list[PfqaQuestion], list[PfqaQuestion], list[PfqaQuestion]]:
    """Partition by person, 80/10/10 into train/dev/test, so no person straddles splits."""
    by_person: dict[str, list[PfqaQuestion]] = {}
    for q in questions:
        by_person.setdefault(q.person, []).append(q)
    persons = sorted(by_person)
    random.Random(seed).shuffle(persons)
    total = len(questions)
    boundaries = (0.8 * total, (0.8 + 0.1) * total)  # the float sum, just above 0.9
    splits: tuple[list, list, list] = ([], [], [])
    assigned = 0
    bucket = 0
    for person in persons:
        while bucket < 2 and assigned >= boundaries[bucket]:
            bucket += 1
        splits[bucket].extend(by_person[person])
        assigned += len(by_person[person])
    return splits


def to_dataset(questions: list[PfqaQuestion]) -> McqDataset:
    """Convert to the generic MCQ schema with knowledge embedded."""
    items = [
        McqItem(
            id=f"pfqa-{n:06d}",
            question=q.question,
            options=list(q.options),
            gold=q.gold,
            knowledge=list(q.knowledge),
            extras={"person": q.person, "qtype": q.qtype},
        )
        for n, q in enumerate(questions)
    ]
    return McqDataset(items=items)
