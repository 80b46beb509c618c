"""The bank server (§3.6): accounting and resource control.

"The principal operation on bank accounts is transferring virtual money
from one account to another."  Accounts hold balances "in different,
possibly convertible, possibly inconvertible, currencies", and servers
charge for resources — "CPU time could be charged in francs,
phototypesetter pages in yen" — so quotas fall out of pricing.

A transfer presents *two* capabilities: the payer's account (withdraw
right) in the header and the payee's account (deposit right) as an extra
capability, so a client can hand a server a deposit-only capability for
its account without exposing withdrawal — rights restriction doing real
policy work.
"""

from repro.core.rights import Rights
from repro.errors import (
    BadRequest,
    InconvertibleCurrency,
    InsufficientFunds,
    UnknownCurrency,
)
from repro.ipc.client import ServiceClient
from repro.ipc.server import ObjectServer, command
from repro.ipc.stdops import USER_BASE

R_INSPECT = Rights(0x01)
R_WITHDRAW = Rights(0x02)
R_DEPOSIT = Rights(0x04)
#: Creating money from nothing: held only by the bank's own root account.
R_MINT = Rights(0x40)

BANK_OPEN = USER_BASE + 0
BANK_BALANCE = USER_BASE + 1
BANK_TRANSFER = USER_BASE + 2
BANK_CONVERT = USER_BASE + 3
BANK_MINT = USER_BASE + 4


class Account:
    """One bank account: integer balances per currency."""

    def __init__(self):
        self.balances = {}

    def balance(self, currency):
        return self.balances.get(currency, 0)

    def deposit(self, currency, amount):
        self.balances[currency] = self.balance(currency) + amount

    def withdraw(self, currency, amount):
        if currency not in self.balances:
            # Never held this currency at all — distinct from having
            # spent it down to zero, which is InsufficientFunds below.
            raise UnknownCurrency("account holds no %s" % currency)
        held = self.balances[currency]
        if held < amount:
            raise InsufficientFunds(
                "balance %d %s cannot cover %d" % (held, currency, amount)
            )
        self.balances[currency] = held - amount


def _parse_amount(text):
    """Parse ``currency:amount`` (amounts are positive integers)."""
    try:
        currency, amount_text = text.split(":")
        amount = int(amount_text)
    except ValueError:
        raise BadRequest(
            "expected 'currency:amount', got %r" % text
        ) from None
    if not currency:
        raise BadRequest("empty currency name")
    if amount <= 0:
        raise BadRequest("amounts must be positive, got %d" % amount)
    return currency, amount


class BankServer(ObjectServer):
    """Multi-currency accounts with transfer, conversion, and minting."""

    service_name = "bank server"

    def __init__(self, node, exchange_rates=None, **kwargs):
        super().__init__(node, **kwargs)
        #: (from_currency, to_currency) -> (numerator, denominator).
        #: Absent pairs are inconvertible.
        self.exchange_rates = dict(exchange_rates or {})
        #: Total money minted per currency (conservation bookkeeping).
        self.minted = {}

    def create_account(self, initial=None, mint_right=False):
        """Open an account locally (bank-operator bootstrap, not wire).

        Returns the owner capability; ``mint_right`` accounts can create
        money and are how an economy is seeded.
        """
        account = Account()
        for currency, amount in (initial or {}).items():
            account.deposit(currency, amount)
            self.minted[currency] = self.minted.get(currency, 0) + amount
        cap = self.table.create(account)
        if not mint_right:
            cap = self.table.restrict(cap, Rights(0xFF).without(R_MINT))
        return cap

    @command(BANK_OPEN)
    def _open(self, ctx):
        """Open a fresh, empty account (no mint right)."""
        cap = self.table.create(Account())
        restricted = self.table.restrict(cap, Rights(0xFF).without(R_MINT))
        return ctx.ok(capability=restricted)

    @command(BANK_BALANCE, needs=R_INSPECT)
    def _balance(self, ctx):
        account = self._as_account(ctx.entry)
        listing = ",".join(
            "%s:%d" % (currency, amount)
            for currency, amount in sorted(account.balances.items())
            if amount
        )
        return ctx.ok(data=listing.encode("utf-8"))

    @command(BANK_TRANSFER, needs=R_WITHDRAW, extra=R_DEPOSIT)
    def _transfer(self, ctx):
        """Move money: payer capability in the header (withdraw right),
        payee capability as the first extra capability (deposit right)."""
        payer = self._as_account(ctx.entry)
        if not ctx.extras:
            raise BadRequest("TRANSFER requires the payee capability")
        payee = self._as_account(ctx.extras[0])
        currency, amount = _parse_amount(ctx.request.data.decode("utf-8"))
        payer.withdraw(currency, amount)
        payee.deposit(currency, amount)
        return ctx.ok()

    @command(BANK_CONVERT, needs=R_WITHDRAW)
    def _convert(self, ctx):
        """Exchange within one account: data is ``from:to:amount``."""
        account = self._as_account(ctx.entry)
        parts = ctx.request.data.decode("utf-8").split(":")
        if len(parts) != 3:
            raise BadRequest("expected 'from:to:amount'")
        src, dst, amount_text = parts
        try:
            amount = int(amount_text)
        except ValueError:
            raise BadRequest("bad amount %r" % amount_text) from None
        if amount <= 0:
            raise BadRequest("amounts must be positive")
        rate = self.exchange_rates.get((src, dst))
        if rate is None:
            raise InconvertibleCurrency(
                "no exchange rate from %s to %s" % (src, dst)
            )
        numerator, denominator = rate
        converted = amount * numerator // denominator
        if converted <= 0:
            raise BadRequest("amount too small to convert at this rate")
        account.withdraw(src, amount)
        account.deposit(dst, converted)
        # Conversion changes per-currency totals by design; record it so
        # conservation checks can account for exchanges.
        self.minted[src] = self.minted.get(src, 0) - amount
        self.minted[dst] = self.minted.get(dst, 0) + converted
        return ctx.ok(data=("%s:%d" % (dst, converted)).encode("utf-8"))

    @command(BANK_MINT, needs=R_MINT)
    def _mint(self, ctx):
        """Create money (R_MINT only — the central bank's privilege)."""
        account = self._as_account(ctx.entry)
        currency, amount = _parse_amount(ctx.request.data.decode("utf-8"))
        account.deposit(currency, amount)
        self.minted[currency] = self.minted.get(currency, 0) + amount
        return ctx.ok()

    # ------------------------------------------------------------------
    # invariants and helpers
    # ------------------------------------------------------------------

    def total_in_circulation(self, currency):
        """Sum of this currency over all accounts (conservation checks)."""
        total = 0
        for number in self.table.numbers():
            entry = self.table._entry(number)
            if isinstance(entry.data, Account):
                total += entry.data.balance(currency)
        return total

    @staticmethod
    def _as_account(entry):
        if not isinstance(entry.data, Account):
            raise BadRequest("object %d is not an account" % entry.number)
        return entry.data


class BankClient(ServiceClient):
    """Typed client for the bank server."""

    def open_account(self):
        """Open an empty account; the returned capability cannot mint."""
        return self.call(BANK_OPEN).capability

    def balance(self, account_cap):
        """Balances as a dict currency -> amount."""
        text = self.call(BANK_BALANCE, capability=account_cap).data.decode("utf-8")
        if not text:
            return {}
        out = {}
        for pair in text.split(","):
            currency, amount = pair.split(":")
            out[currency] = int(amount)
        return out

    def transfer(self, payer_cap, payee_cap, currency, amount):
        """Move ``amount`` of ``currency`` from payer to payee."""
        self.call(
            BANK_TRANSFER,
            capability=payer_cap,
            extra_caps=(payee_cap,),
            data=("%s:%d" % (currency, amount)).encode("utf-8"),
        )

    def convert(self, account_cap, src, dst, amount):
        """Exchange currencies inside one account; returns the proceeds."""
        reply = self.call(
            BANK_CONVERT,
            capability=account_cap,
            data=("%s:%s:%d" % (src, dst, amount)).encode("utf-8"),
        )
        currency, got = reply.data.decode("utf-8").split(":")
        return int(got)

    def mint(self, account_cap, currency, amount):
        """Create money (requires the mint right)."""
        self.call(
            BANK_MINT,
            capability=account_cap,
            data=("%s:%d" % (currency, amount)).encode("utf-8"),
        )
