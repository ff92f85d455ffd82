"""The paper's published reference values.

Every table and figure of the paper runs through the scenario pipeline
(:mod:`repro.pipeline`: ``run_scenario("fig5")``, ``python -m repro run
fig5``); :func:`repro.experiments.common.paper_expectations` holds the
published numbers the benchmarks and tests compare the reproduction against.
"""
