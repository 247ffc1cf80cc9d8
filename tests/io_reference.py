"""Reference route to the `distribution` document: one dict per atom.

`reference_distribution_document` builds the document's "atoms" and
"atom_count" as plain dicts, each atom on its own, for `json.dumps` to
write; `egalloc.io.distribution_document` renders the same document as
text from shared fragments, so the two agree byte for byte when the
writer's fragments and joins are right.
"""

from __future__ import annotations

from fractions import Fraction

from egalloc.io import allocation_document
from egalloc.model import Atom, Instance, OutcomeDistribution


def reference_atom_document(atom: Atom, inst: Instance) -> dict:
    doc = {
        "weight": str(Fraction(atom.weight)),
        "priority": [inst.agent_names[a] for a in atom.priority],
    }
    if atom.held_out is not None:
        doc["held_out"] = [inst.item_names[a] for a in atom.held_out]
    doc.update(allocation_document(atom.allocation, inst))
    return doc


def reference_distribution_document(dist: OutcomeDistribution, inst: Instance) -> dict:
    return {
        "atoms": [reference_atom_document(atom, inst) for atom in dist.atoms],
        "atom_count": len(dist.atoms),
    }
