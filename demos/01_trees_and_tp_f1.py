"""
Bracket trees and tree-path F1
==============================

Parse a compositional utterance into a tree, look at the paths the metric
scores, and see how one wrong token deep in a nested slot costs two paths.
"""

from treepatch.metrics import extract_paths, per_class_tp_f1, tp_f1
from treepatch.treebank import parse_top, serialize

# A query with a nested intent inside the destination slot: "when should I
# leave for my dentist appointment at 4 pm".
gold = parse_top(
    "[IN:GET_DEPARTURE when should i leave for my "
    "[SL:DESTINATION [IN:GET_EVENT [SL:NAME_EVENT dentist ] "
    "[SL:CATEGORY_EVENT appointment ] ] ] at [SL:TIME_ARRIVAL 4 pm ] ]")

print("canonical form:")
print(" ", serialize(gold))
print("classes:", sorted(gold.classes))

# Each path runs from the root to a slot and carries the slot's serialized
# contents as its value, so nested mistakes propagate upward.
print("\npaths:")
for path in sorted(extract_paths(gold), key=str):
    print(" ", path)

# The same tree with a single wrong token ("doctor" instead of "dentist").
pred = parse_top(
    "[IN:GET_DEPARTURE when should i leave for my "
    "[SL:DESTINATION [IN:GET_EVENT [SL:NAME_EVENT doctor ] "
    "[SL:CATEGORY_EVENT appointment ] ] ] at [SL:TIME_ARRIVAL 4 pm ] ]")

report = tp_f1([gold], [pred])
print(f"\ntp-f1: {report.f1:.2f} "
      f"({report.n_correct}/{report.n_expected} paths correct)")

# The NAME_EVENT path itself is wrong, and the DESTINATION path that
# contains it is wrong too; restricted to that class, F1 drops to zero.
cls = per_class_tp_f1([gold], [pred], "SL:NAME_EVENT")
print(f"per-class SL:NAME_EVENT f1: {cls.f1:.2f}")
