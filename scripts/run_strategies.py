#!/usr/bin/env python3
"""Compare knowledge-infusion strategies on the paraphrase-transfer task.

Four arms trained on the same questions, differing only in whether the
encoder is pretrained on the knowledge corpus with the masked-token
objective (revision) and whether retrieved premises reach the scoring
head (openbook):

    closed book            no revision, no premises (baseline head)
    only openbook          premises at the head, fresh encoder
    only revision          pretrained encoder, no premises
    revision & openbook    both

Evaluation questions restate the training facts with held-out verdict
words, so doing well requires the encoder to place paraphrases near the
verdicts it saw supervised labels for — which is exactly what corpus
pretraining buys.  Open-book arms use a frozen-encoder probe (only the
head trains) so the table isolates representation quality.

Example:
    python scripts/run_strategies.py --seed 0
"""

import argparse
import sys
import time

from kiqa.encoder import EncoderConfig, EncoderModel, TrainConfig, revision_train
from kiqa.evalreport import evaluate
from kiqa.fusion import FusionModel, train
from kiqa.toytasks import make_paraphrase_transfer_task, route_premises, training_vocab

ARMS = (
    ("closed book", False, False),
    ("only openbook", False, True),
    ("only revision", True, False),
    ("revision & openbook", True, True),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--d", type=int, default=24, help="encoder width")
    parser.add_argument("--rev-epochs", type=int, default=200)
    parser.add_argument("--epochs", type=int, default=30)
    args = parser.parse_args(argv)

    corpus, train_raw, eval_raw = make_paraphrase_transfer_task(seed=args.seed)
    train_open = route_premises(train_raw, corpus, m=1)
    eval_open = route_premises(eval_raw, corpus, m=1)
    vocab = training_vocab(train_open, corpus)

    print(f"train {len(train_raw)} / eval {len(eval_raw)} questions, "
          f"corpus {len(corpus)} sentences, d={args.d}")
    print(f"{'strategy':<22} {'train':>7} {'eval':>7} {'secs':>6}")
    for name, revision, openbook in ARMS:
        start = time.perf_counter()
        encoder = EncoderModel.init(vocab, EncoderConfig(d=args.d), seed=args.seed)
        if revision:
            revision_train(
                encoder, corpus,
                TrainConfig(seed=args.seed + 3, lr=0.05, epochs=args.rev_epochs,
                            batch_size=32, mask_prob=0.3),
            )
        head = "concat" if openbook else "baseline"
        train_set = train_open if openbook else train_raw
        eval_set = eval_open if openbook else eval_raw
        model = FusionModel(encoder, head, seed=args.seed + 1)
        train(
            model, train_set,
            TrainConfig(seed=args.seed + 2, lr=0.3, epochs=args.epochs, batch_size=32),
            freeze_encoder=openbook,
        )
        elapsed = time.perf_counter() - start
        acc_train = evaluate(model, train_set).accuracy
        acc_eval = evaluate(model, eval_set).accuracy
        print(f"{name:<22} {acc_train:>7.3f} {acc_eval:>7.3f} {elapsed:>6.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
