"""orbibraid: exact algebra of orbifold disk operations and cylinder braids.

Subpackages:

- ``braid``: words in B_n and B^cyl_n, Garside normal forms, the
  Lawrence-Krammer oracle, pole windings.
- ``operad``: signed-permutation classes of operations, the object each
  builds from Phi, tensor and the module action, composition as
  substitution of those objects, with a one-dimensional interval oracle.
- ``dsl``: formal objects and structural isomorphisms of a Z2-braided
  pair, parsing, typing, and single-strand normalisation.
- ``coherence``: underlying (cylinder) braids and the three coherence
  decision procedures.
- ``reflect``: exact rational-function linear algebra, Yang-Baxter and
  (twisted) reflection verification, matrix semantics of the DSL.

All values are immutable records (``record.Record``: slotted, frozen,
compared and hashed by their fields) and all operations are pure functions.
"""

__version__ = "0.1.0"
