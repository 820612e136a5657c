"""Pivot encoding of the document (JSON) data model.

Following the paper (Section III), a document collection is described with a
small set of virtual relations:

* ``Document(docID, name)`` — a document of the collection;
* ``Root(docID, nodeID)`` — the root node of a document;
* ``Node(nodeID, name)`` — a node and its tag / field name;
* ``Child(parentID, childID)`` — the parent/child edges;
* ``Descendant(ancestorID, descendantID)`` — the transitive closure;
* ``Value(nodeID, value)`` — the scalar value of a leaf node.

The axioms are those quoted in the paper: every node has exactly one tag and
one parent, every child is a descendant, descendants compose transitively,
and every document has exactly one root.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence

from repro.core.constraints import EGD, TGD, ConstraintSet
from repro.core.terms import Atom, Variable
from repro.datamodel.encoding import DataModelEncoding, RelationSignature

__all__ = ["DocumentEncoding", "DOCUMENT_RELATIONS"]

DOCUMENT_RELATIONS = {
    "Document": ("docID", "name"),
    "Root": ("docID", "nodeID"),
    "Node": ("nodeID", "name"),
    "Child": ("parentID", "childID"),
    "Descendant": ("ancestorID", "descendantID"),
    "Value": ("nodeID", "value"),
}


class DocumentEncoding(DataModelEncoding):
    """Pivot encoding of JSON-style documents with the paper's virtual relations.

    The optional ``prefix`` namespaces the relation names (``cartsNode`` etc.)
    so that several document collections can coexist in one pivot schema.
    """

    model_name = "document"

    def __init__(self, prefix: str = "") -> None:
        self._prefix = prefix
        self._id_counter = itertools.count()

    # -- naming ----------------------------------------------------------------
    def relation(self, base: str) -> str:
        """The (possibly prefixed) pivot name of one of the document relations."""
        return f"{self._prefix}{base}" if self._prefix else base

    def signatures(self) -> Sequence[RelationSignature]:
        return [
            RelationSignature(self.relation(name), columns)
            for name, columns in DOCUMENT_RELATIONS.items()
        ]

    # -- axioms ------------------------------------------------------------------
    def constraints(self) -> ConstraintSet:
        node = self.relation("Node")
        child = self.relation("Child")
        descendant = self.relation("Descendant")
        root = self.relation("Root")
        value = self.relation("Value")

        n, m, p, c, a, d, x = (Variable(s) for s in "nmpcadx")
        t1, t2 = Variable("t1"), Variable("t2")

        constraints = ConstraintSet()
        # Every node has a single tag.
        constraints.add(EGD(
            [Atom(node, [n, t1]), Atom(node, [n, t2])], [(t1, t2)], name=f"{node}_single_tag"
        ))
        # Every node has a single parent.
        constraints.add(EGD(
            [Atom(child, [p, c]), Atom(child, [m, c])], [(p, m)], name=f"{child}_single_parent"
        ))
        # Every leaf has a single value.
        constraints.add(EGD(
            [Atom(value, [n, t1]), Atom(value, [n, t2])], [(t1, t2)], name=f"{value}_single_value"
        ))
        # Every document has a single root.
        constraints.add(EGD(
            [Atom(root, [d, t1]), Atom(root, [d, t2])], [(t1, t2)], name=f"{root}_single_root"
        ))
        # Every child edge is a descendant edge.
        constraints.add(TGD(
            [Atom(child, [p, c])], [Atom(descendant, [p, c])], name=f"{child}_is_descendant"
        ))
        # Descendant composes with child (transitivity generator).
        constraints.add(TGD(
            [Atom(descendant, [a, x]), Atom(child, [x, d])],
            [Atom(descendant, [a, d])],
            name=f"{descendant}_transitive",
        ))
        return constraints

    # -- instance encoding ---------------------------------------------------------
    def fresh_node_id(self) -> str:
        """A fresh node identifier (used when encoding concrete documents)."""
        return f"{self._prefix or 'doc'}_n{next(self._id_counter)}"

    def encode(self, data: Mapping[str, object] | Sequence[Mapping[str, object]],
               **options: object) -> list[Atom]:
        """Encode one document (or a list of documents) into pivot facts.

        ``options`` may carry ``document_name`` (defaults to ``"doc<i>"``).
        """
        documents: Sequence[Mapping[str, object]]
        if isinstance(data, Mapping):
            documents = [data]
        else:
            documents = list(data)
        facts: list[Atom] = []
        for index, document in enumerate(documents):
            name = str(options.get("document_name", f"doc{index}"))
            facts.extend(self.encode_document(document, document_name=name))
        return facts

    def encode_document(self, document: Mapping[str, object], document_name: str) -> list[Atom]:
        """Encode a single JSON object into the virtual relations."""
        facts: list[Atom] = []
        doc_id = f"{document_name}#id"
        root_id = self.fresh_node_id()
        facts.append(Atom(self.relation("Document"), [doc_id, document_name]))
        facts.append(Atom(self.relation("Root"), [doc_id, root_id]))
        facts.append(Atom(self.relation("Node"), [root_id, "$root"]))
        facts.extend(self._encode_children(root_id, document))
        facts.extend(self._close_descendants(facts))
        return facts

    def _encode_children(self, parent_id: str, value: object) -> list[Atom]:
        facts: list[Atom] = []
        node = self.relation("Node")
        child = self.relation("Child")
        leaf_value = self.relation("Value")
        if isinstance(value, Mapping):
            for key, sub_value in value.items():
                child_id = self.fresh_node_id()
                facts.append(Atom(node, [child_id, str(key)]))
                facts.append(Atom(child, [parent_id, child_id]))
                facts.extend(self._encode_children(child_id, sub_value))
        elif isinstance(value, (list, tuple)):
            for index, item in enumerate(value):
                child_id = self.fresh_node_id()
                facts.append(Atom(node, [child_id, f"[{index}]"]))
                facts.append(Atom(child, [parent_id, child_id]))
                facts.extend(self._encode_children(child_id, item))
        else:
            facts.append(Atom(leaf_value, [parent_id, value]))
        return facts

    def _close_descendants(self, facts: Sequence[Atom]) -> list[Atom]:
        """Materialize the Descendant closure of the Child edges in ``facts``."""
        child = self.relation("Child")
        descendant = self.relation("Descendant")
        edges = [
            (atom.terms[0], atom.terms[1]) for atom in facts if atom.relation == child
        ]
        children_of: dict[object, list[object]] = {}
        for parent, child_node in edges:
            children_of.setdefault(parent, []).append(child_node)
        closure: list[Atom] = []
        for parent in children_of:
            stack = list(children_of[parent])
            seen: set[object] = set()
            while stack:
                node_id = stack.pop()
                if node_id in seen:
                    continue
                seen.add(node_id)
                closure.append(Atom(descendant, [parent, node_id]))
                stack.extend(children_of.get(node_id, ()))
        return closure
