"""Seeded MOA1104: held resources escaping their declared scope.

``stash`` stores a held admission on an attribute no ``SHARED_STATE``
declaration covers; ``grab`` returns one from a
function that never declared itself an ``@acquires`` factory.  Either
way the resource's release obligation silently changes owner.
``adopt`` shows the sanctioned shape: the attribute is declared, so
the store is an ownership transfer and must NOT be flagged.  Analyzed
syntactically, never imported.
"""


class Stasher:
    def stash(self, tenant):
        admission = self.quotas.admit(tenant)
        # BUG: undeclared attribute takes ownership of a held slot
        self.saved = admission

    def grab(self, tenant):
        admission = self.quotas.admit(tenant)
        # BUG: returned from a non-factory — the caller has no
        # declared obligation to release it
        return admission


class DeclaredOwner:
    SHARED_STATE = {
        "slot": "_lock",
    }

    def adopt(self, tenant):
        slot = self.quotas.admit(tenant)
        # sanctioned: 'slot' is declared shared state, ownership moves
        # to the object
        self.slot = slot
