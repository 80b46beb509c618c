"""A flat file server that charges for disk space (§3.6).

"To obtain permission to create a file, a client would present a
capability for one of his accounts ... by having the file server charge x
dollars per kiloblock of disk space, quotas can be implemented by
limiting how many dollars each client has.  In some cases (e.g., disk
blocks, but not typesetter pages), returning the resource might result in
the client getting his money [back]."

The client attaches a *withdraw-capable* capability for its bank account
as an extra capability on CREATE and WRITE; the server — itself just a
bank client — transfers the charge into its own account.  Destroying a
file refunds the paid storage.  Running out of dollars *is* the quota.
"""

import math

from repro.errors import BadRequest, PermissionDenied
from repro.ipc.server import command
from repro.servers.flatfile import (
    FILE_CREATE,
    FILE_WRITE,
    MAX_TRANSFER,
    R_WRITE,
    FlatFileServer,
)


class ChargingFlatFileServer(FlatFileServer):
    """Flat files with per-kiloblock pricing through the bank server.

    Parameters
    ----------
    bank_client:
        A :class:`~repro.servers.bank.BankClient` bound to the bank.
    revenue_cap:
        Deposit-capable capability for *this server's* account.
    price:
        Dollars charged per ``charge_unit`` bytes of growth.
    currency:
        Which currency storage is priced in (disk space is "dollars" in
        the paper's example).
    """

    service_name = "charging flat file server"

    def __init__(
        self,
        node,
        bank_client,
        revenue_cap,
        price=1,
        charge_unit=1024,
        currency="USD",
        refund_on_destroy=True,
        **kwargs,
    ):
        super().__init__(node, **kwargs)
        self.bank_client = bank_client
        self.revenue_cap = revenue_cap
        self.price = price
        self.charge_unit = charge_unit
        self.currency = currency
        self.refund_on_destroy = refund_on_destroy
        #: file object id(data) -> (payer capability, total paid).
        self._billing = {}
        #: Refund transfers that failed for any reason other than a payer
        #: capability without the deposit right, and the
        #: ``(payer capability, dollars)`` each still owes — the file is
        #: gone either way, the debt is not: :meth:`sweep` retries it.
        self.refunds_failed = self.refunds_paid = 0
        self.refunds_owed = []

    def _units(self, nbytes):
        return math.ceil(nbytes / self.charge_unit)

    def _pay(self, source, target, dollars):
        self.bank_client.transfer(source, target, self.currency, dollars)

    def _charge(self, payer_cap, old_size, new_size):
        """Charge for growth from old_size to new_size; returns dollars."""
        delta_units = self._units(new_size) - self._units(old_size)
        if delta_units <= 0:
            return 0
        cost = delta_units * self.price
        # The server is an ordinary bank client; InsufficientFunds from
        # the bank propagates to our client untouched — that is the quota.
        self._pay(payer_cap, self.revenue_cap, cost)
        return cost

    def _payer_from(self, ctx):
        if not ctx.request.extra_caps:
            raise BadRequest(
                "storage here costs money: attach a bank account capability"
            )
        return ctx.request.extra_caps[0]

    @command(FILE_CREATE)
    def _create(self, ctx):
        if len(ctx.request.data) > MAX_TRANSFER:
            raise BadRequest("initial contents exceed %d bytes" % MAX_TRANSFER)
        payer_cap = self._payer_from(ctx)
        f = self._new_file(b"")
        paid = self._charge(payer_cap, 0, max(len(ctx.request.data), 1))
        if ctx.request.data:
            f.write(0, ctx.request.data)
        cap = self.table.create(f)
        self._billing[id(f)] = [payer_cap, paid]
        return ctx.ok(capability=cap)

    @command(FILE_WRITE)
    def _write(self, ctx):
        entry, _ = ctx.lookup(R_WRITE)
        if len(ctx.request.data) > MAX_TRANSFER:
            raise BadRequest("transfer larger than %d bytes" % MAX_TRANSFER)
        f = entry.data
        new_end = ctx.request.offset + len(ctx.request.data)
        if new_end > f.size:
            billing = self._billing.get(id(f))
            payer_cap = (
                ctx.request.extra_caps[0]
                if ctx.request.extra_caps
                else (billing[0] if billing else None)
            )
            if payer_cap is None:
                raise BadRequest("growth requires a bank account capability")
            paid = self._charge(payer_cap, f.size, new_end)
            if billing is not None:
                billing[1] += paid
        f.write(ctx.request.offset, ctx.request.data)
        return ctx.ok(size=f.size)

    def on_destroy(self, entry):
        """Disk blocks come back, and so does the money (§3.6)."""
        billing = self._billing.pop(id(entry.data), None)
        if billing is not None and self.refund_on_destroy and billing[1] > 0:
            payer_cap, paid = billing
            # Refund flows from the server's account back to the payer.
            # The payer capability must allow deposits for this to work;
            # a withdraw-only capability simply forfeits the refund.
            try:
                self._pay(self.revenue_cap, payer_cap, paid)
            except PermissionDenied:
                pass
            except Exception:
                # A dead or unreachable bank must not fail the destroy,
                # and must not cost the payer the money either.
                self.refunds_failed += 1
                self.refunds_owed.append((payer_cap, paid))
        super().on_destroy(entry)

    def sweep(self):
        """Retry each owed refund, then age the table; a debt leaves
        ``refunds_owed`` only after its transfer has returned."""
        for debt in list(self.refunds_owed):
            try:
                self._pay(self.revenue_cap, *debt)
            except Exception:
                continue  # still owed: the next sweep retries it
            self.refunds_owed.remove(debt)
            self.refunds_paid += 1
        return super().sweep()
