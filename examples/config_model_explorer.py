#!/usr/bin/env python3
"""Explore the configuration models of every registered protocol target.

For each target: run identification over its real configuration surface
(CLI help text, key-value / XML / custom config files), print the 4-tuple
entities, quantify pairwise relations and show the strongest ones, then
print the cohesive groups Algorithm 2 would hand to four instances.

    python examples/config_model_explorer.py [target ...]
"""

import sys

from repro import ModelBuildConfig, allocate_groups, extract_model, quantify_relations
from repro.targets import get_target, target_names


def explore(name, target_cls):
    print("=" * 72)
    print("%s (%s, port %d)" % (name, target_cls.PROTOCOL, target_cls.PORT))
    print("=" * 72)

    model = extract_model(name)
    mutable = model.mutable_entities()
    print("entities: %d total, %d mutable" % (len(model), len(mutable)))
    for entity in model.entities():
        marker = "*" if entity.mutable else " "
        print(" %s %-28s %-7s %s" % (marker, entity.name, entity.type.value,
                                     list(entity.values)[:4]))

    startup_bugs = []
    relation_model, report = quantify_relations(
        name, model, ModelBuildConfig(max_combinations=8),
        on_fault=startup_bugs.append,
    )
    for fault in {str(f) for f in startup_bugs}:
        print("  !! startup crash while probing:", fault)
    print("\nrelations: %d edges (%d launches, %d startup conflicts)"
          % (relation_model.number_of_edges(), report.launches,
             report.failures))
    for a, b, weight in relation_model.edges_by_weight()[:8]:
        print("  %.2f  %s <-> %s" % (weight, a, b))

    allocation = allocate_groups(relation_model, 4)
    print("\nallocation to 4 instances (cohesion %.2f):" % allocation.cohesion)
    for index, group in enumerate(allocation.groups):
        print("  #%d: %s" % (index, ", ".join(sorted(group))))
    print()


def main():
    names = target_names()
    wanted = sys.argv[1:] or names
    for name in wanted:
        if name not in names:
            print("unknown target %r (choose from %s)" % (name, list(names)))
            continue
        explore(name, get_target(name).target_cls)


if __name__ == "__main__":
    main()
