"""Deterministic noise-control simulation and product-economics toolkit.

The business modules (``econ``, ``costing``, ``planning``) use the standard
library only. The noise-control names, which need numpy, are imported from
``anc`` and ``signals`` on first access (PEP 562), so importing the package
loads no numpy.
"""
import importlib

from .costing import (ASSEMBLY_COLUMNS, BOM_COLUMNS, CENT_TOL, AssemblyOp,
                      BomLine, BomSummary, Discrepancy, OverheadRates,
                      assembly_cost, bom_rollup, check_discrepancies,
                      cost_reduction_report, dfa_index, gross_margin,
                      load_assembly_csv, load_bom_csv, overhead_cost,
                      round_half_away)
from .econ import (COST, IRR_NPV_TOL, PRICE, SALES_TARGETS, UNITS, Adjustment,
                   EconResult, ExpenseLine, LineDelta, ModelSpec, SalesBlock,
                   apply_adjustments, break_even, build_cash_flows, evaluate,
                   irr, irr_interpolate, npv, sensitivity_row)
from .errors import ValidationError
from .planning import (CRITICAL, DEFAULT_RISK_THRESHOLD, LOW, MONITOR, URGENT,
                       ConceptMatrix, MarketParams, RiskItem, concept_score,
                       load_concept_csv, load_risk_csv, market_size_estimate,
                       risk_score_and_map)

_LAZY = {
    **dict.fromkeys(("ALGORITHMS", "ATTENUATION_WINDOW_S", "DEFAULT_STEP_SIZE",
                     "DIVERGENCE_POWER_RATIO", "EXACT", "NLMS_EPS", "AncConfig",
                     "AncResult", "anc_run"), "anc"),
    **dict.fromkeys(("ATTENUATION_CAP_DB", "FirPath", "SampleBuffer",
                     "attenuation_db", "convolve_path", "generate_broadband",
                     "generate_tone", "invert_phase"), "signals"),
}


def __getattr__(name):
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS", "ATTENUATION_CAP_DB", "ATTENUATION_WINDOW_S",
    "ASSEMBLY_COLUMNS", "BOM_COLUMNS", "CENT_TOL", "COST", "CRITICAL",
    "DEFAULT_RISK_THRESHOLD", "DEFAULT_STEP_SIZE", "DIVERGENCE_POWER_RATIO",
    "EXACT", "IRR_NPV_TOL", "LOW", "MONITOR", "NLMS_EPS", "PRICE",
    "SALES_TARGETS", "UNITS", "URGENT",
    "Adjustment", "AncConfig", "AncResult", "AssemblyOp", "BomLine",
    "BomSummary", "ConceptMatrix", "Discrepancy", "EconResult", "ExpenseLine",
    "FirPath", "LineDelta", "MarketParams", "ModelSpec", "OverheadRates",
    "RiskItem", "SalesBlock", "SampleBuffer", "ValidationError",
    "anc_run", "apply_adjustments", "assembly_cost", "attenuation_db",
    "bom_rollup", "break_even", "build_cash_flows", "check_discrepancies",
    "concept_score", "convolve_path", "cost_reduction_report", "dfa_index",
    "evaluate", "generate_broadband", "generate_tone", "gross_margin",
    "invert_phase", "irr", "irr_interpolate", "load_assembly_csv",
    "load_bom_csv", "load_concept_csv", "load_risk_csv",
    "market_size_estimate", "npv", "overhead_cost", "risk_score_and_map",
    "round_half_away", "sensitivity_row",
]
