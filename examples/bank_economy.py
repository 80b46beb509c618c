"""The bank server economy (§3.6): money, currencies, quotas, refunds.

"Thus to obtain permission to create a file, a client would present a
capability for one of his accounts to the bank server ... by having the
file server charge x dollars per kiloblock of disk space, quotas can be
implemented by limiting how many dollars each client has.  CPU time could
be charged in francs, phototypesetter pages in yen."

Run:  python examples/bank_economy.py
"""

from repro import BankClient, BankServer, FlatFileClient, Machine, SimNetwork
from repro.errors import InsufficientFunds, PermissionDenied
from repro.servers.bank import R_DEPOSIT, R_INSPECT, R_WITHDRAW
from repro.servers.charging import ChargingFlatFileServer
from repro.servers.flatfile import FILE_CREATE, FILE_WRITE


def main():
    net = SimNetwork()
    bank_machine = Machine(net, name="bank")
    storage = Machine(net, name="storage")
    alice_ws = Machine(net, name="alice", with_memory_server=False)

    # --- the bank, with franc and yen exchange ---------------------------
    bank = BankServer(
        bank_machine.nic,
        exchange_rates={("USD", "FRF"): (7, 1), ("FRF", "USD"): (1, 7)},
    ).start()
    central = bank.create_account({"USD": 1_000_000}, mint_right=True)
    print("central bank opened with a million dollars (mint right held)")

    # --- a charging file server: 1 dollar per 512-byte kiloblock ---------
    revenue = bank.create_account()
    files = ChargingFlatFileServer(
        storage.nic,
        bank_client=BankClient(storage.nic, bank.put_port),
        revenue_cap=revenue,
        price=1,
        charge_unit=512,
    ).start()

    # --- alice gets an allowance: that IS her disk quota ------------------
    alice_bank = BankClient(alice_ws.nic, bank.put_port,
                            expect_signature=bank.signature_image)
    wallet = alice_bank.open_account()
    alice_bank.transfer(central, wallet, "USD", 10)
    print("alice's allowance: %s (= 10 disk units of quota)"
          % alice_bank.balance(wallet))

    # A deposit-only capability would protect alice if she only received
    # money; the file server needs withdraw (to charge) and deposit (to
    # refund), but never mint:
    pay = alice_bank.restrict(wallet, R_WITHDRAW | R_DEPOSIT | R_INSPECT)
    try:
        alice_bank.mint(pay, "USD", 10**9)
    except PermissionDenied:
        print("the pay capability cannot mint money (rights bit absent)")

    # --- buy some storage -------------------------------------------------
    alice_files = FlatFileClient(alice_ws.nic, files.put_port,
                                 expect_signature=files.signature_image)
    doc = alice_files.call(FILE_CREATE, data=b"q" * 1500,
                           extra_caps=(pay,)).capability
    print("alice bought a 1500-byte file; wallet now %s, server revenue %s"
          % (alice_bank.balance(wallet), bank.table.data(revenue).balances))

    # --- the quota bites ---------------------------------------------------
    try:
        alice_files.call(FILE_WRITE, capability=doc, offset=0,
                         data=b"x" * (90 * 512), extra_caps=(pay,))
    except InsufficientFunds as exc:
        print("quota exceeded: %s" % exc)

    # --- disk blocks refund; typesetter pages would not --------------------
    alice_files.destroy(doc)
    print("after destroying the file the money came back: %s"
          % alice_bank.balance(wallet))

    # --- currencies: CPU in francs -----------------------------------------
    francs = alice_bank.convert(wallet, "USD", "FRF", 3)
    print("alice converts 3 USD -> %d FRF for CPU time: %s"
          % (francs, alice_bank.balance(wallet)))

    # conservation check (the bank can audit itself)
    print("dollars in circulation: %d == dollars ever minted minus converted: %d"
          % (bank.total_in_circulation("USD"), bank.minted["USD"]))
    print("OK")


if __name__ == "__main__":
    main()
