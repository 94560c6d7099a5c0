"""Prompt sampling and sentence generation with the offline mock backend.

Each generation request packs three constraints into the prompt: syntactic
rules (sampled by corpus frequency), target-domain example sentences, and a
Gaussian-sampled target length.  The mock backend ancestrally samples a
PCFG under those constraints and returns the rules each derivation used, so
instruction adherence is measurable.
"""

from spskit import MockPcfgGenerator, PromptConfig, corpus_stats, render_prompt, sample_prompt
from spskit.seeding import substream
from spskit.synthetic import sample_corpus, target_grammar

corpus = sample_corpus(target_grammar(), 120, seed=3, name="demo-gen")
stats = corpus_stats(corpus)
examples = [t.sentence() for t in corpus[:20]]

rng = substream(0, "demo-prompts")
spec = sample_prompt(stats, examples, rng, PromptConfig(min_length=4))
print(render_prompt(spec))
print("-" * 60)

generator = MockPcfgGenerator(target_grammar(), seed=7, batch_size=12)
batch = generator.generate(spec)
print("prompt sha:", batch.provenance["prompt_sha256"][:12], "...")

prompted = set(spec.rules)
for sentence, used in zip(batch.sentences, batch.derivations):
    adhered = "prompted-rule" if used & prompted else "free         "
    print(f"[{adhered}] {sentence.text()}")

# The backend is stateless per prompt: the same request is bit-identical.
assert generator.generate(spec) == batch

rate = sum(1 for used in batch.derivations if used & prompted) / len(batch.derivations)
print(f"adherence in this batch: {rate:.0%}")
