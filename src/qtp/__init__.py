"""Quantum technology predictor: route circuits to the right hardware class.

Pipeline: parse a circuit, compile it against device profiles, score each
compilation with a depth/fidelity cost, label it with the winning technology,
encode it as a feature-annotated DAG and learn the mapping with a small GNN.
"""

__version__ = "0.1.0"


class DataError(ValueError):
    """Bad input: the base of every error a malformed file, profile, config or flag raises."""
