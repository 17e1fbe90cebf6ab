"""End-to-end through the command line: train, build a topic timeline,
score it against ground truth.

Everything here shells through the same entry points as the installed
``topicdrift`` command, so reruns with the same seed are byte-identical.
"""

import tempfile
from pathlib import Path

from topicdrift.cli import main
from topicdrift.corpus import Vocabulary, read_canonical, write_canonical, write_vocabulary
from topicdrift.synthetic import three_topic_corpus

tmp = tempfile.TemporaryDirectory(prefix="topicdrift_demo_")  # removed at the end, or at exit on a failure
work = Path(tmp.name)
docs, _ = three_topic_corpus(n_docs=150, vocab_size=30, seed=12, mix_alpha=0.1)
write_canonical(docs, work / "corpus.jsonl")
terms = [f"w{i:03d}" for i in range(30)]
write_vocabulary(Vocabulary({t: i for i, t in enumerate(terms)}, terms), work / "vocab.txt")

print("training a drifting-topic model through the CLI ...")
code = main([
    "train", "--model", "cidtm",
    "--corpus", str(work / "corpus.jsonl"), "--vocab", str(work / "vocab.txt"),
    "--checkpoint", str(work / "model.json"), "--tsv", str(work / "scores.tsv"),
    "--k-corpus", "8", "--t-doc", "4", "--batch-size", "15", "--seed", "12",
])
assert code == 0

# ground truth: documents whose dominant true topic is topic block 0
labels = work / "labels.tsv"
block0 = set(range(10))
with open(labels, "w") as f:
    for doc in read_canonical(work / "corpus.jsonl"):
        mass = sum(c for w, c in doc.counts.items() if w in block0)
        f.write(f"{doc.id}\t{int(mass > sum(doc.counts.values()) / 2)}\n")

print("assigning documents to each inferred topic's timeline ...")
for topic in range(4):
    code = main([
        "timeline", "--checkpoint", str(work / "model.json"),
        "--corpus", str(work / "corpus.jsonl"),
        "--topic", str(topic), "--threshold", "0.5", "--labels", str(labels),
        "--out-assign", str(work / f"assign{topic}.tsv"),
        "--out-confusion", str(work / f"conf{topic}.tsv"),
    ])
    assert code == 0
    header, row = (work / f"conf{topic}.tsv").read_text().splitlines()
    values = dict(zip(header.split("\t"), row.split("\t")))
    print(f"  topic {topic}: tp={values['tp']:>3} fp={values['fp']:>3} "
          f"accuracy={float(values['accuracy']):.3f} "
          f"recall={values['recall']} precision={values['precision']}")

tmp.cleanup()
print("\nexactly one inferred topic lines up with word block 0; the others")
print("collect no true positives")
