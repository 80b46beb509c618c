"""Tests for the charging file server: §3.6 quota-by-pricing."""

import pytest

from repro.crypto.randomsrc import RandomSource
from repro.errors import BadRequest, InsufficientFunds, NoSuchObject
from repro.net.faults import FaultPlan
from repro.net.network import SimNetwork
from repro.net.nic import Nic
from repro.servers.bank import R_DEPOSIT, R_INSPECT, R_WITHDRAW, BankClient, BankServer
from repro.servers.charging import ChargingFlatFileServer
from repro.servers.flatfile import (
    FILE_CREATE, FILE_WRITE, MAX_TRANSFER, FlatFileClient,
)


def build(faults=None):
    net = SimNetwork(faults=faults)
    server_nic = Nic(net)
    bank = BankServer(Nic(net), rng=RandomSource(seed=1)).start()
    revenue = bank.create_account()
    files = ChargingFlatFileServer(
        server_nic,
        bank_client=BankClient(server_nic, bank.put_port, rng=RandomSource(seed=2)),
        revenue_cap=revenue,
        price=2,
        charge_unit=1024,
        rng=RandomSource(seed=3),
    ).start()
    client_nic = Nic(net)
    bank_client = BankClient(
        client_nic, bank.put_port, rng=RandomSource(seed=4),
        expect_signature=bank.signature_image,
    )
    file_client = FlatFileClient(
        client_nic, files.put_port, rng=RandomSource(seed=5),
        expect_signature=files.signature_image,
    )
    central = bank.create_account({"USD": 100_000}, mint_right=True)
    wallet = bank_client.open_account()
    bank_client.transfer(central, wallet, "USD", 100)
    # The server needs withdraw+deposit on the wallet to charge/refund;
    # a real client would keep inspect too.
    pay_cap = bank_client.restrict(wallet, R_WITHDRAW | R_DEPOSIT | R_INSPECT)
    return bank, bank_client, files, file_client, wallet, pay_cap, revenue


@pytest.fixture
def world():
    return build()


class TestCharging:
    def test_create_charges(self, world):
        bank, bank_client, _, file_client, wallet, pay_cap, revenue = world
        file_client.call(FILE_CREATE, data=b"x" * 100, extra_caps=(pay_cap,))
        # 100 bytes -> 1 unit -> 2 dollars.
        assert bank_client.balance(wallet)["USD"] == 98
        assert bank.table.data(revenue).balances == {"USD": 2}

    def test_growth_charges_by_kiloblock(self, world):
        _, bank_client, _, file_client, wallet, pay_cap, _ = world
        cap = file_client.call(
            FILE_CREATE, data=b"", extra_caps=(pay_cap,)
        ).capability
        balance_after_create = bank_client.balance(wallet)["USD"]
        file_client.call(
            FILE_WRITE, capability=cap, offset=0, data=b"y" * 3000,
            extra_caps=(pay_cap,),
        )
        # Growth from 0 to 3000 bytes = 3 units at 2 dollars each (the
        # creation fee was a flat 1 unit on top).
        assert bank_client.balance(wallet)["USD"] == balance_after_create - 6

    def test_rewrite_within_paid_size_is_free(self, world):
        _, bank_client, _, file_client, wallet, pay_cap, _ = world
        cap = file_client.call(
            FILE_CREATE, data=b"z" * 500, extra_caps=(pay_cap,)
        ).capability
        before = bank_client.balance(wallet)["USD"]
        file_client.write(cap, 0, b"overwrite")
        assert bank_client.balance(wallet)["USD"] == before

    def test_create_without_payment_refused(self, world):
        _, _, _, file_client, _, _, _ = world
        with pytest.raises(BadRequest):
            file_client.create(b"freeloader")


class TestQuota:
    def test_running_out_of_dollars_is_the_quota(self, world):
        """'Quotas can be implemented by limiting how many dollars each
        client has.'"""
        _, bank_client, _, file_client, wallet, pay_cap, _ = world
        cap = file_client.call(
            FILE_CREATE, data=b"", extra_caps=(pay_cap,)
        ).capability
        # Wallet holds 98 dollars = 49 more units of 1024 bytes; the
        # write ends at 60 units (one transfer carries at most 48).
        with pytest.raises(InsufficientFunds):
            file_client.call(
                FILE_WRITE, capability=cap, offset=20 * 1024,
                data=b"x" * (40 * 1024 - 1), extra_caps=(pay_cap,),
            )

    def test_quota_failure_writes_nothing(self, world):
        _, _, _, file_client, _, pay_cap, _ = world
        cap = file_client.call(
            FILE_CREATE, data=b"", extra_caps=(pay_cap,)
        ).capability
        try:
            file_client.call(
                FILE_WRITE, capability=cap, offset=20 * 1024,
                data=b"x" * (40 * 1024 - 1), extra_caps=(pay_cap,),
            )
        except InsufficientFunds:
            pass
        assert file_client.size(cap) == 0

    def test_refused_oversized_write_costs_nothing(self, world):
        _, bank_client, _, file_client, wallet, pay_cap, _ = world
        cap = file_client.call(
            FILE_CREATE, data=b"x", extra_caps=(pay_cap,)
        ).capability
        before = bank_client.balance(wallet)["USD"]
        with pytest.raises(BadRequest):
            file_client.call(
                FILE_WRITE, capability=cap, offset=0,
                data=b"x" * (MAX_TRANSFER + 1), extra_caps=(pay_cap,),
            )
        assert bank_client.balance(wallet)["USD"] == before
        assert file_client.size(cap) == 1


class TestRefund:
    def test_destroy_refunds(self, world):
        """'Returning the resource might result in the client getting his
        money back' (disk blocks, unlike typesetter pages)."""
        _, bank_client, files, file_client, wallet, pay_cap, _ = world
        cap = file_client.call(
            FILE_CREATE, data=b"x" * 2048, extra_caps=(pay_cap,)
        ).capability
        assert bank_client.balance(wallet)["USD"] == 96
        file_client.destroy(cap)
        assert bank_client.balance(wallet)["USD"] == 100
        assert files.refunds_failed == 0 and files.refunds_owed == []

    def test_no_refund_server(self):
        """Typesetter-page mode: refund_on_destroy=False keeps the money."""
        net = SimNetwork()
        server_nic = Nic(net)
        bank = BankServer(Nic(net), rng=RandomSource(seed=11)).start()
        revenue = bank.create_account()
        files = ChargingFlatFileServer(
            server_nic,
            bank_client=BankClient(server_nic, bank.put_port,
                                   rng=RandomSource(seed=12)),
            revenue_cap=revenue,
            price=1,
            refund_on_destroy=False,
            rng=RandomSource(seed=13),
        ).start()
        client_nic = Nic(net)
        bank_client = BankClient(client_nic, bank.put_port,
                                 rng=RandomSource(seed=14))
        file_client = FlatFileClient(client_nic, files.put_port,
                                     rng=RandomSource(seed=15))
        central = bank.create_account({"USD": 50}, mint_right=True)
        wallet = bank_client.open_account()
        bank_client.transfer(central, wallet, "USD", 10)
        cap = file_client.call(
            FILE_CREATE, data=b"page", extra_caps=(wallet,)
        ).capability
        assert bank_client.balance(wallet)["USD"] == 9
        file_client.destroy(cap)
        assert bank_client.balance(wallet)["USD"] == 9  # no refund


class TestRefundThatCannotBePaid:
    """A refund the bank never made is counted and stays owed; it neither
    fails the destroy nor vanishes (it used to, silently)."""

    def _destroyed_unpaid(self, world, break_bank):
        bank, bank_client, files, file_client, wallet, pay_cap, _ = world
        cap = file_client.call(
            FILE_CREATE, data=b"x" * 2048, extra_caps=(pay_cap,)
        ).capability
        assert bank_client.balance(wallet)["USD"] == 96
        break_bank()
        file_client.destroy(cap)  # replies OK: nothing raised into it
        with pytest.raises(NoSuchObject):
            file_client.size(cap)
        assert files.refunds_failed == 1
        assert files.refunds_owed == [(pay_cap, 4)]

    def test_bank_stopped(self, world):
        bank = world[0]
        self._destroyed_unpaid(world, bank.stop)
        bank.start()
        assert world[1].balance(world[4])["USD"] == 96  # still unpaid

    def test_the_next_sweep_pays_exactly_once(self, world):
        """Bank down at destroy -> up -> one sweep pays the debt, a
        second pays nothing; while the bank is down a sweep keeps it."""
        bank, bank_client, files, _, wallet, _, _ = world
        self._destroyed_unpaid(world, bank.stop)
        files.sweep()
        assert len(files.refunds_owed) == 1 and files.refunds_paid == 0
        bank.start()
        files.sweep()
        assert bank_client.balance(wallet)["USD"] == 100
        assert files.refunds_owed == [] and files.refunds_paid == 1
        files.sweep()
        assert bank_client.balance(wallet)["USD"] == 100
        assert files.refunds_paid == 1 and files.refunds_failed == 1

    def test_link_to_the_bank_severed(self):
        faults = FaultPlan(seed=1)
        world = build(faults)
        bank, files = world[0], world[2]
        self._destroyed_unpaid(
            world,
            lambda: faults.sever(files.node.address, bank.node.address),
        )
        faults.heal()
        assert world[1].balance(world[4])["USD"] == 96

    def test_withdraw_only_payer_forfeits(self, world):
        _, bank_client, files, file_client, wallet, _, _ = world
        withdraw_only = bank_client.restrict(wallet, R_WITHDRAW)
        cap = file_client.call(
            FILE_CREATE, data=b"x" * 2048, extra_caps=(withdraw_only,)
        ).capability
        file_client.destroy(cap)
        assert bank_client.balance(wallet)["USD"] == 96  # no deposit right
        assert files.refunds_failed == 0
        assert files.refunds_owed == []
