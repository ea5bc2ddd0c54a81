"""Exact quasi-pseudometric extensions and norms on free groups.

The package works over finite quasi-pseudometric spaces with rational
distances and keeps every value exact.  It provides word algebra for free
and free abelian groups, the two-stage extension of a bounded
quasi-pseudometric to the signed alphabet, non-crossing pairings and
their cost, the induced group norms and distances with minimizing
witnesses, and a toolkit for entourage chains, finite topologies and
pair-sum neighborhood decompositions.

Every public name is imported from its module on first use (PEP 562), so
``import graevext`` and a command line call load only what they run.
"""

from importlib import import_module

from .errors import CapExceeded, DomainError, FormatError

__version__ = "0.1.0"

_HOMES = {
    "norms": ("NormWitness", "PairingWitness", "abelian_dist", "abelian_norm",
              "abelian_norm_balanced", "ball_member", "graev_dist",
              "graev_norm", "norm"),
    "qpspace": ("QPSpace", "Violation", "load_space", "parse_rational",
                "signed_extension"),
    "quniform": ("Entourage", "EntourageSequence", "FiniteSpace",
                 "PrefixDecomposition", "SubsetDecomposition",
                 "composition_contained", "decompose_prefix",
                 "decompose_subset", "frink_metric",
                 "load_entourage", "load_sequence", "load_topology",
                 "universal_base"),
    "schemes": ("Scheme", "enumerate_schemes", "pairing_cost"),
    "words": ("AbelianWord", "Letter", "Word", "parse_abelian", "parse_word"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(["CapExceeded", "DomainError", "FormatError", *_HOME])


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
