"""Seeded raw newswire archives for the benchmark workloads.

Two layouts, matching the two parsers of ``topicdrift ingest``:

* ``write_sgml``: ``<REUTERS>`` records with distinct, centisecond-stamped
  ``<DATE>`` values (the hourly workloads);
* ``write_line_records``: tab-separated line records whose timestamps are
  whole days, so many documents share one timestamp (the daily workload).

Documents mix a few latent topics that are active in bursts of 15-45 days
separated by dormant stretches of 100-160 days, longer than the drifting
model's default 90-day lifecycle timer, so topics die and come back.  The
topics, their bursts and the daily layout's news days are fixed per layout;
the seed draws the documents and their times, so seeds differ in sampling
noise only.  The same ``(seed, layout)`` always gives byte-identical files.
"""

from datetime import datetime, timedelta, timezone

import numpy as np

_CONSONANTS = "bdfgklmprstvz"
_VOWELS = "aeiou"
_FINALS = "kxz"  # no English stopword ends in these, so every term survives the tokenizer
_FILLER = ("the", "of", "and", "to", "in", "said", "for", "on", "with", "was")
_MONTHS = ("JAN", "FEB", "MAR", "APR", "MAY", "JUN", "JUL", "AUG", "SEP", "OCT", "NOV", "DEC")

START = datetime(1987, 1, 5, tzinfo=timezone.utc)
ZIPF = 0.8          # word weights within a topic's block fall as rank**-ZIPF
BACKGROUND = 0.03   # share of each topic spread over the whole vocabulary
DOC_TOKENS = (30, 60)
SPAN_DAYS = 400
LAYOUT_CODE = {"sgml": 1, "lines": 2}
WORLD_SEED = 20130228  # one news source for every seed; --seed draws the documents


def term(index):
    """The index-th vocabulary term: consonant-vowel-consonant-vowel-final, e.g. ``bakox``."""
    c, v, f = len(_CONSONANTS), len(_VOWELS), len(_FINALS)
    index, last = divmod(index, f)
    index, v2 = divmod(index, v)
    index, c2 = divmod(index, c)
    index, v1 = divmod(index, v)
    c1 = index % c
    return _CONSONANTS[c1] + _VOWELS[v1] + _CONSONANTS[c2] + _VOWELS[v2] + _FINALS[last]


class TopicWorld:
    """Latent topics with Zipf-weighted word blocks and bursty activity."""

    def __init__(self, rng, n_topics, vocab_size):
        self.terms = [term(i) for i in range(vocab_size)]
        block = vocab_size // n_topics
        self.word_probs = np.full((n_topics, vocab_size), BACKGROUND / vocab_size)
        weights = 1.0 / np.arange(1, block + 1) ** ZIPF
        weights *= (1.0 - BACKGROUND) / weights.sum()
        for k in range(n_topics):
            self.word_probs[k, k * block : (k + 1) * block] += rng.permutation(weights)
        self.word_probs /= self.word_probs.sum(axis=1, keepdims=True)
        self.bursts = [self._bursts(rng) for _ in range(n_topics)]

    @staticmethod
    def _bursts(rng):
        """(start, end) days of one topic's active bursts over the archive span."""
        out = []
        day = -rng.uniform(0.0, 150.0)
        while day < SPAN_DAYS:
            on = rng.uniform(15.0, 45.0)
            out.append((day, day + on))
            day += on + rng.uniform(100.0, 160.0)
        return out

    def active(self, day):
        return [k for k, spans in enumerate(self.bursts) if any(a <= day < b for a, b in spans)]

    def draw(self, rng, day):
        """Body and title text of one document published on ``day``."""
        active = self.active(day) or [int(rng.integers(len(self.bursts)))]
        n_mix = min(len(active), 1 if rng.random() < 0.6 else 2)
        chosen = rng.choice(active, size=n_mix, replace=False)
        mixture = rng.dirichlet(np.ones(n_mix))
        length = int(rng.integers(DOC_TOKENS[0], DOC_TOKENS[1] + 1))
        counts = rng.multinomial(length, mixture @ self.word_probs[chosen])
        words = [self.terms[w] for w in np.repeat(np.arange(counts.size), counts)]
        rng.shuffle(words)
        for pos in sorted(rng.choice(len(words), size=len(words) // 5, replace=False), reverse=True):
            words.insert(int(pos), _FILLER[int(rng.integers(len(_FILLER)))])
        body = " ".join(words)
        title = " ".join(words[:4]).upper()
        return title, body[0].upper() + body[1:]


def _world(seed, layout, n_topics, vocab_size):
    """The layout's fixed topics and calendar, their generator, and one seeded for the documents."""
    world_rng = np.random.default_rng([WORLD_SEED, LAYOUT_CODE[layout]])
    world = TopicWorld(world_rng, n_topics, vocab_size)
    return np.random.default_rng([seed, LAYOUT_CODE[layout]]), world, world_rng


def write_sgml(path, seed, n_docs, n_topics=20, vocab_size=2000):
    """SGML archive with ``n_docs`` records at distinct times over ``SPAN_DAYS``."""
    rng, world, _ = _world(seed, "sgml", n_topics, vocab_size)
    centis = np.sort(rng.choice(SPAN_DAYS * 86400 * 100, size=n_docs, replace=False))
    parts = ['<!DOCTYPE lewis SYSTEM "lewis.dtd">\n']
    for i, cs in enumerate(centis.tolist()):
        seconds, frac = divmod(cs, 100)
        ts = START + timedelta(seconds=seconds)
        title, body = world.draw(rng, seconds / 86400.0)
        date = f"{ts.day:2d}-{_MONTHS[ts.month - 1]}-{ts.year} {ts:%H:%M:%S}.{frac:02d}"
        parts.append(
            f'<REUTERS TOPICS="NO" LEWISSPLIT="TRAIN" NEWID="{i + 1}">\n'
            f"<DATE>{date}</DATE>\n<TOPICS></TOPICS>\n<TEXT>\n"
            f"<TITLE>{title}</TITLE>\n<BODY>{body}\n Reuter\n</BODY></TEXT>\n</REUTERS>\n"
        )
    with open(path, "w", encoding="latin-1") as f:
        f.write("".join(parts))


def write_line_records(path, seed, n_docs, n_days, n_topics=20, vocab_size=1000):
    """Line-record archive: ``n_docs`` stories on ``n_days`` fixed news days, every day used."""
    rng, world, world_rng = _world(seed, "lines", n_topics, vocab_size)
    days = np.sort(world_rng.choice(SPAN_DAYS, size=n_days, replace=False))
    day_of_doc = np.sort(np.concatenate([days, rng.choice(days, size=n_docs - n_days)]))
    lines = []
    for i, day in enumerate(day_of_doc.tolist()):
        title, body = world.draw(rng, day + 0.5)
        ts = START + timedelta(days=day, hours=12)
        related = f"\tstory-{int(rng.integers(i)):05d}" if i and rng.random() < 0.3 else ""
        lines.append(f"story-{i:05d}\t{ts:%Y/%m/%d %H:%M:%S}\t{title}\t{body}{related}\n")
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(lines))
