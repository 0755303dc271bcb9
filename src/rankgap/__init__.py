"""rankgap: rank-truncating recommender simulations and collective strategies.

Each public name is imported from the module that defines it, for example
``rankgap.scenario.generate_scenario`` or ``rankgap.cli.run``; importing the
package itself loads no submodule.
"""

__version__ = "0.1.0"
