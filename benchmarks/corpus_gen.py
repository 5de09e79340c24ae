"""Seeded Zipf corpus generator for the benchmark.

Each sentence follows the filing template of the test fixtures: a head
entity, then one or two counterparties, spread by a Zipf law over a
vocabulary of three-word capitalised names. Every name of the vocabulary
occurs at least once, so the tail is as long as the vocabulary allows.

Run ``python3 benchmarks/corpus_gen.py --seed 0 --docs 10 > corpus.jsonl``
to inspect a corpus by hand.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys

_FIRST = [
    "Amber", "Basalt", "Cobalt", "Drift", "Ember", "Fjord", "Garnet", "Halcyon",
    "Indigo", "Juniper", "Krypton", "Lattice", "Meridian", "Nimbus", "Opal",
    "Pylon", "Quartz", "Rustic", "Sable", "Tundra",
]
_SECOND = [
    "Arch", "Bay", "Cliff", "Dale", "Elm", "Ford", "Glen", "Heath", "Isle",
    "Knoll", "Lake", "Moor", "North", "Oak", "Pine", "Ridge", "Stone", "Vale",
    "West", "York",
]
_THIRD = [
    "Analytics", "Biologics", "Cartage", "Dynamics", "Energy", "Foundry",
    "Gateway", "Holdings", "Instruments", "Junction", "Kinetics", "Logistics",
    "Metals", "Networks", "Orchards", "Partners", "Quarry", "Robotics",
    "Systems", "Terminal",
]
MAX_VOCAB = len(_FIRST) * len(_SECOND) * len(_THIRD)


def entity_names(vocab: int, rng: random.Random) -> list[str]:
    """``vocab`` distinct three-word names in a seeded order (rank 0 = head)."""
    if not 2 <= vocab <= MAX_VOCAB:
        raise ValueError(f"vocab must be in [2, {MAX_VOCAB}]")
    grid = [" ".join(parts) for parts in itertools.product(_FIRST, _SECOND, _THIRD)]
    return rng.sample(grid, vocab)


def _sentence(names: list[str], mentions: list[int], d: int, j: int) -> str:
    rest = " plus ".join(names[m] for m in mentions[1:])
    return (
        f"{names[mentions[0]]} posted segment {j} results and named {rest} "
        f"as counterparties in filing {d}-{j}."
    )


def generate_corpus(
    seed: int,
    *,
    docs: int,
    sentences: int,
    vocab: int,
    zipf_s: float,
    mentions: tuple[int, int] = (2, 3),
) -> list[dict]:
    """Documents as ``{doc_id, title, text}`` dicts; same arguments, same corpus.

    The number of mentions per sentence and the number of mentions of each
    vocabulary rank are fixed by the arguments: sentences get ``lo`` to
    ``hi`` mentions in equal shares, and every rank gets one mention plus
    its Zipf share of the rest (largest remainders round up). The seed
    picks the names, which rank each name has, and where each mention
    goes. So corpora of different seeds differ in who co-occurs with whom,
    not in size or skew: at 40 docs and 400 names, path and record counts
    stay within 1% across seeds, where independent draws per mention spread
    them over 7% and the subset count between 14 and 15.
    """
    lo, hi = mentions
    if not 2 <= lo <= hi <= vocab:
        raise ValueError("mentions per sentence must satisfy 2 <= lo <= hi <= vocab")
    rng = random.Random(f"graphsynth-bench:{seed}")
    names = entity_names(vocab, rng)
    n = docs * sentences
    sizes = [lo + k * (hi - lo + 1) // n for k in range(n)]
    rng.shuffle(sizes)
    spare = sum(sizes) - vocab
    if spare < 0:
        raise ValueError("fewer mention slots than vocabulary names")
    weights = [1.0 / (i + 1) ** zipf_s for i in range(vocab)]
    shares = [spare * w / sum(weights) for w in weights]
    quota = [1 + int(x) for x in shares]
    by_remainder = sorted(range(vocab), key=lambda i: int(shares[i]) - shares[i])
    for i in by_remainder[: spare - sum(int(x) for x in shares)]:
        quota[i] += 1
    stream = [i for i in range(vocab) for _ in range(quota[i])]
    rng.shuffle(stream)
    stream.reverse()  # pop() from the end takes them in shuffled order
    deferred: list[int] = []  # repeats of a name already in the sentence, for the next one
    out = []
    for d in range(docs):
        parts = []
        for j in range(sentences):
            want = sizes[d * sentences + j]
            picked: list[int] = []
            repeats: list[int] = []
            while len(picked) < want and (deferred or stream):
                i = deferred.pop(0) if deferred else stream.pop()
                (repeats if i in picked else picked).append(i)
            deferred = repeats + deferred
            while len(picked) < lo:  # only when the last sentences run out of mentions
                i = rng.randrange(vocab)
                if i not in picked:
                    picked.append(i)
            parts.append(_sentence(names, picked, d, j))
        out.append({"doc_id": f"doc{d:04d}", "title": f"Filing digest {d}", "text": " ".join(parts)})
    return out


def write_corpus(path, corpus: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for doc in corpus:
            f.write(json.dumps(doc, sort_keys=True))
            f.write("\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--docs", type=int, default=100)
    ap.add_argument("--sentences", type=int, default=20)
    ap.add_argument("--vocab", type=int, default=1000)
    ap.add_argument("--zipf", type=float, default=1.1)
    ap.add_argument("--min-mentions", type=int, default=2)
    ap.add_argument("--max-mentions", type=int, default=3)
    args = ap.parse_args(argv)
    corpus = generate_corpus(
        args.seed, docs=args.docs, sentences=args.sentences, vocab=args.vocab,
        zipf_s=args.zipf, mentions=(args.min_mentions, args.max_mentions),
    )
    for doc in corpus:
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
