"""The reference writer for instance files.

``save_json`` as the package wrote it before it wrote its bytes from the
instance's columns: the document built from the activities one at a time and
put through ``json.dumps(doc, indent=2)``.  ``tests/test_instance.py``
requires the package's writer to give the same bytes.
"""

import json

from mixopt import Instance

from activity_reference import activities

KEYS = ("id", "s", "l", "u", "delta", "theta", "phi", "psi")


def save_json(inst: Instance) -> bytes:
    doc = {"rho": inst.rho, "m": inst.m,
           "activities": [{k: getattr(a, k) for k in KEYS} for a in activities(inst)],
           "extras": [{"coeffs": list(ex.coeffs), "sense": ex.sense, "rhs": ex.rhs}
                      for ex in inst.extras]}
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")
