"""2LDAG — a reproduction of "A Novel Two-Layer DAG-Based Reactive
Protocol for IoT Data Reliability in Metaverse" (ICDCS 2023).

Import each name from the module that defines it; :mod:`repro.scenario`,
the declarative spec → runner → result pipeline, is the entry point.

Quickstart
----------
>>> from repro.scenario import ScenarioRunner, get_scenario
>>> runner = ScenarioRunner(get_scenario("quickstart"))
>>> result = runner.run()
>>> result.total_blocks > 0
True
"""

__version__ = "1.0.0"
