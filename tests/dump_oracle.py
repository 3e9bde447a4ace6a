"""The per-interval PDDF dump read back, and its former CSV text form.

Each dump is a 0-d structured ``.npy`` record. The golden dump digest was
taken over the text dumps that csv.writer would write, so the golden test
rebuilds that text from the records with ``pddf_dump_oracle``.
"""

import csv
from pathlib import Path

import numpy as np

from heatfleet.aggregator import ControlDecision


class DensityPair:
    """Only what the dump writer reads of a PowerDensityPair, without its
    validation, so that any float can be written."""

    def __init__(self, phi0, phi1):
        self.phi0, self.phi1 = phi0, phi1
        self.resolution = phi0.size - 1


def read_dump(path) -> tuple[int, ControlDecision, DensityPair]:
    """(k, decision, densities) of one dump record, as Python ints and floats."""
    record = np.load(path)
    decision = ControlDecision(*(record[name].item() for name in ControlDecision._fields))
    return record["k"].item(), decision, DensityPair(record["phi0"], record["phi1"])


def _fmt(x):
    return repr(float(x))


def pddf_dump_oracle(path, k, pddf, decision):
    """The csv.writer form of the per-interval PDDF dump."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("w", newline="") as fh:
        fh.write(f"# k={k} ms_min={decision.ms_min} ms_max={decision.ms_max} "
                 f"phi_min={_fmt(decision.phi_min)} phi_max={_fmt(decision.phi_max)} "
                 f"ms_star={decision.ms_star} u={_fmt(decision.u)} "
                 f"phi_target={_fmt(decision.phi_target)} "
                 f"phi_predicted={_fmt(decision.phi_predicted)}\n")
        writer = csv.writer(fh)
        writer.writerow(["m", "phi0", "phi1"])
        for m in range(pddf.resolution + 1):
            writer.writerow([m, _fmt(pddf.phi0[m]), _fmt(pddf.phi1[m])])
