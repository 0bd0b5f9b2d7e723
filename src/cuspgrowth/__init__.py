"""cuspgrowth: exact arithmetic for ball-quotient covering towers.

Weight-tuple integrality checks and contractions, Smith normal form and
finite-abelian-group indices, covering-tower cusp and b1 accounting,
exact classical group orders with brute-force oracles, and log-log
growth-exponent fits.

Each exported name is listed once, under its module, and that module is
imported when the name is first read (PEP 562), so `from cuspgrowth
import WeightTuple` loads `weights` and `errors` only.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "counts": "DEFAULT_BRUTE_CAP DTowerDatum GroupFamily GroupOrder Method brute_force_order "
              "cusp_index_proxy d_tower_columns d_tower_series psl2_order sl2_order sl_order "
              "su_order u_order unitriangular_u_order",
    "errors": "CuspGrowthError ResourceLimitError ValidationError",
    "fitting": "ExponentFit exponent_checks fit_exponent match_verdict",
    "lattice": "AbelianHom FiniteAbelianGroup IntMatrix SmithDecomposition cokernel "
               "image_index is_surjective kernel_contains smith_normal_form",
    "primes": "primes_in_range",
    "towers": "HIRZEBRUCH BaseSpace CTowerLevel CuspData FibrationData LevelReport TowerReport "
              "TowerSpec a_tower_report analyze_level analyze_tower b1_bound_for b_tower_report "
              "build_a_tower build_b_tower c_tower_report",
    "weights": "ContractionPartition IntStatus IntVerdict PairWitness WeightTuple check_int "
               "contract enumerate_tuples find_contraction",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value
