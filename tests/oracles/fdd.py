"""The FDD algebra without its caches."""

from repro.netkat.fdd import FDD, FDDBuilder


class _Forgetful(dict):
    """A memo table that never stores, so every lookup misses."""

    def __setitem__(self, key, value) -> None:
        pass


class ReferenceFDDBuilder(FDDBuilder):
    """:class:`FDDBuilder` on its original, uncached routes.

    * ``ite_test`` guards both branches with predicate FDDs and unions
      the two masked halves (two guard FDDs, two applies, one union)
      instead of sinking the test in one ordered-insert walk.
    * ``of_policy``/``of_predicate`` re-walk every AST node: the id-keyed
      memos never store.
    * ``of_keyed_predicate`` compiles the caller's fresh AST every time,
      so the path compiler's knowledge predicates are never cached.

    Hash-consing stays, so a diagram built here is pointer-comparable
    with itself and ``repr``-comparable with the production builder's.
    """

    def __init__(self, order=None):
        super().__init__(order)
        self._memo_of_policy = _Forgetful()
        self._memo_of_predicate = _Forgetful()

    def ite_test(self, field: str, value: int, hi: FDD, lo: FDD) -> FDD:
        if hi is lo:
            return hi
        guard = self.branch(field, value, self.id, self.drop)
        n_guard = self.branch(field, value, self.drop, self.id)
        return self.union(self.mask(guard, hi), self.mask(n_guard, lo))

    def of_keyed_predicate(self, key, make) -> FDD:
        return self.of_predicate(make())
