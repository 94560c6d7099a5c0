"""The trainable PCFG-CKY backend: train, parse, confidence, persistence.

The backend is the desk-scale stand-in for a neural parser: it implements
the same two-method contract (train, parse-with-confidence) the
self-training loop needs, so swapping in a heavier model later changes no
pipeline code.
"""

import os
import tempfile

from spskit import ParserModel, Sentence, serialize, train
from spskit.parser import parse
from spskit.synthetic import sample_corpus, source_grammar

treebank = sample_corpus(source_grammar(), 300, seed=1, name="demo-train")
model = train(treebank)
print("rules:", len(model.rules), " lexical entries:", len(model.lexical))

# Parse a held-out sentence; confidence is exp(mean per-token logprob).
held_out = sample_corpus(source_grammar(), 5, seed=2, name="demo-dev")
for gold in held_out[:3]:
    result = parse(model, gold.sentence())
    marker = "=" if result.tree == gold else "≠"
    print(f"conf {result.confidence:.3f} {marker} {serialize(result.tree)}")

# Unknown words are tagged through each preterminal's UNK slot, so coverage
# never collapses on new-domain vocabulary.
novel = parse(model, Sentence(("brandnew", "va", "nb")))
print("with an unseen word:", serialize(novel.tree))

# A sentence no derivation covers degrades to a flat fallback, confidence 0.
fallback = parse(model, Sentence(("na",) * 40))
print("fallback confidence:", fallback.confidence)

# Models persist as versioned JSON and are validated on load.
with tempfile.TemporaryDirectory(prefix="spskit-demo-") as tmp:
    path = os.path.join(tmp, "model.json")
    model.save(path)
    reloaded = ParserModel.load(path)
    sentence = held_out[0].sentence()
    assert parse(reloaded, sentence) == parse(model, sentence)
    print("saved, reloaded, and verified at", path)
