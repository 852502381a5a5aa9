#!/usr/bin/env python3
"""Run the full pipeline on the planted-evidence task and print a head table.

The task plants the answer for every question inside the knowledge corpus,
so a closed-book baseline is stuck near chance while any open-book fusion
head can read the verdict out of the retrieved premises.  The script trains
one model per head and prints train/eval accuracy for each, which makes it
a quick end-to-end check that retrieval, re-ranking, fusion, and training
are wired together correctly.

Example:
    python scripts/run_toy_pipeline.py --seed 0 --epochs 15
"""

import argparse
import sys
import time

from kiqa.datasets import McqDataset
from kiqa.encoder import EncoderConfig, EncoderModel, TrainConfig
from kiqa.evalreport import evaluate
from kiqa.fusion import HEADS, FusionModel, train
from kiqa.toytasks import make_planted_evidence_task, route_premises, training_vocab


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-items", type=int, default=500)
    parser.add_argument("--n-train", type=int, default=300)
    parser.add_argument("--d", type=int, default=16, help="encoder width")
    parser.add_argument("--epochs", type=int, default=15)
    parser.add_argument("--lr", type=float, default=0.3)
    parser.add_argument("--m", type=int, default=1, help="premises per option")
    args = parser.parse_args(argv)

    corpus, dataset = make_planted_evidence_task(n_items=args.n_items, seed=args.seed)
    attached = route_premises(dataset, corpus, m=args.m)
    train_set = McqDataset(items=attached.items[: args.n_train])
    eval_set = McqDataset(items=attached.items[args.n_train :])
    vocab = training_vocab(attached)
    config = TrainConfig(
        seed=args.seed + 2, lr=args.lr, epochs=args.epochs, batch_size=32
    )

    print(f"items {len(dataset)} (train {len(train_set)} / eval {len(eval_set)}), "
          f"corpus {len(corpus)} sentences, m={args.m}, d={args.d}")
    print(f"{'head':<14} {'train':>7} {'eval':>7} {'secs':>6}")
    for head in HEADS:
        encoder = EncoderModel.init(vocab, EncoderConfig(d=args.d), seed=args.seed)
        model = FusionModel(encoder, head, seed=args.seed + 1)
        start = time.perf_counter()
        train(model, train_set, config)
        elapsed = time.perf_counter() - start
        acc_train = evaluate(model, train_set).accuracy
        acc_eval = evaluate(model, eval_set).accuracy
        print(f"{head:<14} {acc_train:>7.3f} {acc_eval:>7.3f} {elapsed:>6.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
