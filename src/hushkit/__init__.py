"""Deterministic noise-control simulation and product-economics toolkit.

Every exported name is imported from its module on first access (PEP 562),
so importing the package loads no numpy and no business module: the
business modules (``econ``, ``costing``, ``planning``) use the standard
library only, and the noise-control ones (``anc``, ``signals``) need numpy.
"""
import importlib

# exported name -> the module that defines it
_LAZY = {
    "ValidationError": "_records",
    "round_half_away": "cli",
    **dict.fromkeys(("ASSEMBLY_COLUMNS", "BOM_COLUMNS", "CENT_TOL", "AssemblyOp",
                     "BomLine", "BomSummary", "Discrepancy", "OverheadRates",
                     "assembly_cost", "bom_rollup", "check_discrepancies",
                     "cost_reduction_report", "dfa_index", "load_assembly_csv",
                     "load_bom_csv"),
                    "costing"),
    **dict.fromkeys(("COST", "IRR_NPV_TOL", "PRICE", "SALES_TARGETS", "UNITS",
                     "Adjustment", "EconResult", "ExpenseLine", "LineDelta",
                     "ModelSpec", "SalesBlock", "apply_adjustments", "break_even",
                     "build_cash_flows", "discounted_flows", "evaluate", "irr",
                     "npv", "sensitivity", "sensitivity_row"),
                    "econ"),
    **dict.fromkeys(("CRITICAL", "DEFAULT_RISK_THRESHOLD", "LOW", "MONITOR",
                     "URGENT", "ConceptMatrix", "MarketEstimate", "MarketParams",
                     "RiskItem", "concept_score", "load_concept_csv",
                     "load_risk_csv", "market_size_estimate", "risk_score_and_map"),
                    "planning"),
    **dict.fromkeys(("ALGORITHMS", "ATTENUATION_CAP_DB", "ATTENUATION_WINDOW_S",
                     "DEFAULT_STEP_SIZE", "DIVERGENCE_POWER_RATIO", "EXACT", "NLMS_EPS",
                     "AncConfig", "AncResult", "anc_run"), "anc"),
    **dict.fromkeys(("FirPath", "SampleBuffer", "convolve_path", "generate_broadband",
                     "generate_tone"), "signals"),
}


def __getattr__(name):
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = list(_LAZY)
