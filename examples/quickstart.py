#!/usr/bin/env python3
"""Quickstart: the whole CMFuzz pipeline on one protocol in ~30 lines.

Runs configuration model identification, relation quantification,
cohesive allocation and a short parallel campaign against the
Mosquitto-style MQTT broker, then prints what each stage produced.
Everything goes through the stable facade in :mod:`repro.api`.

    python examples/quickstart.py
"""

from repro import (
    CampaignConfig,
    ModelBuildConfig,
    allocate_groups,
    extract_model,
    quantify_relations,
    run_campaign,
)


def main():
    # 1. Identification: extract configuration items -> 4-tuple entities.
    model = extract_model("mosquitto")
    print("Identified %d configuration entities, e.g.:" % len(model))
    for entity in model.entities()[:5]:
        print("  ", entity)

    # 2. Scheduling: quantify pairwise relations via startup coverage.
    #    workers=2 fans the probes across processes; results are
    #    bit-identical to probing in-process.
    relation_model, report = quantify_relations(
        "mosquitto", model, ModelBuildConfig(max_combinations=8, workers=2)
    )
    print("\nQuantified relations: %d edges from %d startup launches "
          "(%d conflicting combinations)"
          % (relation_model.number_of_edges(), report.launches,
             report.failures))

    # 3. Cohesive grouping: one configuration group per fuzzing instance.
    allocation = allocate_groups(relation_model, n_instances=4)
    for index, group in enumerate(allocation.groups):
        print("  instance %d <- %s" % (index, ", ".join(sorted(group))))
    print("cohesion (intra-group weight share): %.2f" % allocation.cohesion)

    # 4. Run a short parallel campaign (simulated 4 hours).
    result = run_campaign(
        "mosquitto", mode="cmfuzz",
        config=CampaignConfig(n_instances=4, duration_hours=4.0, seed=42),
    )
    print("\nCampaign: %d branches covered, %d unique bugs, %d iterations"
          % (result.final_coverage, len(result.bugs), result.iterations))
    for bug in result.bugs.unique_bugs():
        print("  bug:", bug.kind.value, "in", bug.function)


if __name__ == "__main__":
    main()
