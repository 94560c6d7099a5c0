"""Word-segmentation granularity transfer: merge, split, misalignment.

Aligning one treebank's tokenization with another corpus's lexicon takes
three moves: re-merge leaves that are finer than the lexicon, split coarse
leaves using their annotated decomposition, and flag whatever cannot be
reconciled for human review.  Nothing is repaired silently; the report says
exactly what happened where.
"""

from spskit import Lexicon, SplitTable, parse_bracketed, serialize, transfer_corpus

# A four-word target lexicon is enough to show all three scenarios.
lexicon = Lexicon(["圣诞节", "武侠", "小说", "火儿"])
split_table = SplitTable(
    {
        "武侠小说": ["武侠", "小说"],   # a dynamic word with annotated parts
        "惹火": ["惹", "火"],
        "儿了": ["儿", "了"],
    }
)

corpus = [
    parse_bracketed("(s (n 圣诞) (n 节))"),      # finer than the lexicon: merge
    parse_bracketed("(s (n 武侠小说))"),          # coarser than the lexicon: split
    parse_bracketed("(vp (v 惹火) (u 儿了))"),    # crossing boundaries: realign
]

out, report = transfer_corpus(corpus, lexicon, split_table=split_table)
for before, after in zip(corpus, out):
    print(f"{serialize(before):40s} -> {serialize(after)}")

print("merged:", report.merged, " split:", report.split)
print("unmatched:", report.unmatched_logged)

# Each surviving merge is recorded with its parts and their original POS
# labels.
for record in report.merges:
    print("merge record:", record.surface, "<-", record.parts, record.pos_labels)

# Ambiguity: a word that is also a prefix of a longer word.  The greedy merge
# makes 中国人; the word-first resolve disagrees, undoes the merge and
# surfaces the conflict as a misaligned (tree, leaf, surface) entry.
ambiguous_lexicon = Lexicon(["中国", "中国人", "人"])
tree = parse_bracketed("(s (n 中国) (n 人))")
(final,), ambiguous = transfer_corpus([tree], ambiguous_lexicon)
print("transferred:", serialize(final))
print("merged:", ambiguous.merged, " split back:", ambiguous.split)
print("flagged for annotation:", ambiguous.misaligned)
