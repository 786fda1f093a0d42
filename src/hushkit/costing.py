"""Bill-of-materials roll-up, assembly cost, overhead, and DFM figures.

BOM arithmetic follows the source tables: each line's purchased/processing/
labor figures are treated as per-device aggregates (``qty`` multiplies
nothing), overhead is a rate on purchased materials plus a rate on assembly
labor (with an optional override for tables that restate a fixed overhead),
and the manufacturing total stacks direct costs, shipment, overhead and
warranty. Reported currency is rounded half-away-from-zero at cent precision.
"""
from __future__ import annotations

import math
import re
from typing import List, Optional, Sequence, Tuple

from ._records import Record, ValidationError
from ._tables import names_file, read_rows

#: Tolerance for cent-level equality checks and discrepancy flags.
CENT_TOL = 0.005

#: Column set of a BOM CSV file.
BOM_COLUMNS = ("Component", "Qty required", "Purchased Costs", "Processing",
               "Assembly (labor)", "Total Unit Variable", "Suppliers")

ASSEMBLY_COLUMNS = ("Part", "Quantity", "Handling Time (s)", "Insertion Time (s)")


class BomLine(Record):
    """One BOM row; ``supplier`` defaults to ""."""

    component: str
    qty: int
    purchased: float
    processing: float
    assembly_labor: float
    supplier: str = ""

    def _check(self):
        if int(self.qty) < 1:
            raise ValidationError(f"BOM line {self.component!r}: qty must be >= 1")
        for name in ("purchased", "processing", "assembly_labor"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValidationError(
                    f"BOM line {self.component!r}: {name} must be finite and >= 0")

    @property
    def line_total(self) -> float:
        return self.purchased + self.processing + self.assembly_labor


class BomSummary(Record):
    direct_materials: float
    direct_processing: float
    direct_labor: float
    shipment: float
    #: direct cost including shipment (the tables' Total Direct Cost row)
    direct_total: float
    overhead: float
    warranty: float
    total_manufacturing: float


class AssemblyOp(Record):
    part: str
    qty: int
    handling_s: float
    insertion_s: float

    def _check(self):
        if not (math.isfinite(self.handling_s) and math.isfinite(self.insertion_s)):
            raise ValidationError(f"assembly op {self.part!r}: times must be finite")
        if self.handling_s < 0 or self.insertion_s < 0:
            raise ValidationError(f"assembly op {self.part!r}: times must be >= 0")

    @property
    def total_s(self) -> float:
        return self.handling_s + self.insertion_s


class OverheadRates(Record):
    materials_rate: float
    labor_rate: float

    def _check(self):
        for name, value in zip(self._fields, self):
            if not 0 <= value <= 10:
                raise ValidationError(f"{name} must lie in [0, 10]")


class Discrepancy(Record):
    """A computed value that disagrees with a stated expectation."""

    label: str
    computed: float
    expected: float

    @property
    def delta(self) -> float:
        return self.computed - self.expected


def bom_rollup(lines: Sequence[BomLine], shipment: float, rates: OverheadRates,
               warranty: float,
               overhead_override: Optional[float] = None) -> BomSummary:
    """Roll per-line costs into a manufacturing-cost summary.

    Overhead is computed from ``rates`` unless ``overhead_override`` restates
    a fixed figure; the total stacks direct (shipment included) + overhead +
    warranty, in that order.
    """
    if shipment < 0:
        raise ValidationError("shipment must be >= 0")
    if warranty < 0:
        raise ValidationError("warranty must be >= 0")
    if overhead_override is not None and overhead_override < 0:
        raise ValidationError("overhead_override must be >= 0")
    materials = float(sum(line.purchased for line in lines))
    processing = float(sum(line.processing for line in lines))
    labor = float(sum(line.assembly_labor for line in lines))
    overhead = float(overhead_override if overhead_override is not None else
                     materials * rates.materials_rate + labor * rates.labor_rate)
    shipment, warranty = float(shipment), float(warranty)
    direct = materials + processing + labor + shipment
    return BomSummary(
        direct_materials=materials,
        direct_processing=processing,
        direct_labor=labor,
        shipment=shipment,
        direct_total=direct,
        overhead=overhead,
        warranty=warranty,
        total_manufacturing=direct + overhead + warranty,
    )


def assembly_cost(ops: Sequence[AssemblyOp],
                  hourly_rate: float) -> Tuple[float, float]:
    """(total seconds, labor cost) for a list of assembly operations."""
    if hourly_rate < 0:
        raise ValidationError("hourly_rate must be >= 0")
    total_s = float(sum(op.total_s for op in ops))
    return total_s, total_s / 3600.0 * hourly_rate


def dfa_index(min_parts: int, total_assembly_s: float) -> float:
    """Assembly-efficiency index: (theoretical minimum parts x 3 s) / total time."""
    if int(min_parts) < 1:
        raise ValidationError("min_parts must be >= 1")
    if not total_assembly_s > 0:
        raise ValidationError("total_assembly_s must be > 0")
    return min_parts * 3.0 / total_assembly_s


def cost_reduction_report(old_total: float,
                          new_total: float) -> Tuple[float, float]:
    """(savings, fractional saving) going from old_total to new_total."""
    if not old_total > 0:
        raise ValidationError("old_total must be > 0")
    savings = old_total - new_total
    return savings, savings / old_total


def check_discrepancies(pairs: Sequence[Tuple[str, float, float]]) -> List[Discrepancy]:
    """Flag every (label, computed, expected) pair differing by more than
    :data:`CENT_TOL`."""
    return [Discrepancy(label, computed, expected)
            for label, computed, expected in pairs
            if abs(computed - expected) > CENT_TOL]


# One leading $, and commas only between groups of three digits before any
# decimal point; float() rejects any other $ or comma
_GROUPED = re.compile(r"\s*[-+]?\$?([0-9]{1,3}(,[0-9]{3})*|[0-9]*)(\.[0-9]*)?\s*")


def _money(text: str) -> float:
    if ("$" in text or "," in text) and _GROUPED.fullmatch(text):
        text = text.replace("$", "").replace(",", "")
    return float(text)


@names_file
def load_bom_csv(path) -> List[BomLine]:
    """Read a BOM file with the :data:`BOM_COLUMNS` header.

    Each row's Total Unit Variable column must equal purchased + processing +
    labor within half a cent.
    """
    _, rows = read_rows(path, BOM_COLUMNS, (str.strip, int, *[_money] * 4, str.strip))
    lines = []
    for *cells, stated, supplier in rows:
        line = BomLine(*cells, supplier)
        if abs(stated - line.line_total) > CENT_TOL:
            raise ValidationError(
                f"line {line.component!r}: Total Unit Variable {stated} "
                f"does not equal purchased + processing + labor")
        lines.append(line)
    return lines


@names_file
def load_assembly_csv(path) -> List[AssemblyOp]:
    """Read an assembly-operation file with the :data:`ASSEMBLY_COLUMNS` header."""
    _, rows = read_rows(path, ASSEMBLY_COLUMNS, (str.strip, int, _money, _money))
    return [AssemblyOp(*row) for row in rows]
