"""The intruder of Fig. 1: every attack the paper's threat model allows.

An intruder is an ordinary station: it owns a NIC (and therefore sits
behind an F-box it cannot bypass), it can tap the broadcast wire and
record every frame, and it can transmit frames with any header contents it
likes — except the source address, which the network stamps (§2.4).

The attacks implemented here are exactly the ones the paper discusses:

* ``attempt_get`` — GET(P) with a stolen put-port; the F-box makes this
  listen on F(P), so the victim's traffic never arrives.
* ``forge_reply`` — answer a sniffed request before the server does; this
  *is* delivered (the reply put-port is visible on the wire) and is only
  defeated by signature checking, which is why §2.2 introduces F(S).
* ``replay`` — retransmit a captured frame verbatim; the intruder's own
  F-box re-applies F to the reply/signature fields, corrupting them, but
  the destination and capability still land.
* ``steal_capability`` — rebuild a sniffed request around the intruder's
  own reply port.  Against bare F-boxes this works (capabilities are
  bearer tokens); the §2.4 key matrix defeats it because the stolen
  capability bytes only decrypt under the victim's (source, dest) key.
"""

from repro.core.ports import PrivatePort, as_port
from repro.crypto.randomsrc import RandomSource
from repro.net.nic import Nic


class Intruder:
    """A malicious station with a wiretap on the simulated LAN."""

    def __init__(self, network, rng=None):
        self.nic = Nic(network)
        self.network = network
        self.rng = rng or RandomSource()
        self.captured = []
        self._tapping = False

    @property
    def address(self):
        return self.nic.address

    # ------------------------------------------------------------------
    # passive attack: wiretapping
    # ------------------------------------------------------------------

    def start_capture(self):
        """Begin recording every frame on the wire (promiscuous mode)."""
        if not self._tapping:
            # Owned by this station: detaching the intruder's machine
            # removes the tap too (no state left behind for dead stations).
            self.network.add_tap(self._tap, owner=self.address)
            self._tapping = True

    def stop_capture(self):
        if self._tapping:
            self.network.remove_tap(self._tap)
            self._tapping = False

    def _tap(self, frame):
        self.captured.append(frame)

    def captured_requests(self):
        """Sniffed frames that look like client requests."""
        return [f for f in self.captured if not f.message.is_reply]

    # ------------------------------------------------------------------
    # active attacks
    # ------------------------------------------------------------------

    def attempt_get(self, put_port):
        """Try to impersonate a server by doing GET on its public put-port.

        Returns the wire port actually listened on — F(P), never P —
        which is the paper's core impersonation defence.
        """
        return self.nic.listen(put_port)

    def intercepted_count(self, put_port):
        """Frames that arrived on the (useless) port from :meth:`attempt_get`."""
        count = 0
        while self.nic.poll(put_port) is not None:
            count += 1
        return count

    def forge_reply(self, request_frame, data=b"", status=0, signature=None):
        """Send a fabricated reply to a sniffed request's reply port.

        ``signature`` is the intruder's guess at the server's signature
        secret S; without the true S the F-box will emit F(guess) != F(S)
        and a signature-checking client will discard the reply.
        """
        request = request_frame.message
        forged = request.reply_to(data=data, status=status)
        if signature is not None:
            forged = forged.copy(signature=signature)
        else:
            forged = forged.copy(
                signature=PrivatePort.generate(self.rng).public
            )
        return self.nic.put(forged)

    def replay(self, frame):
        """Retransmit a captured frame through the intruder's own NIC.

        The destination port and any capability bytes are preserved; the
        reply and signature fields pass through the intruder's F-box a
        second time and are therefore corrupted (double one-waying).
        """
        return self.nic.put(frame.message)

    def steal_capability(self, request_frame, reply_secret=None):
        """Re-issue a sniffed request with the intruder's own reply port.

        Returns ``(reply_private, sent)``; the caller polls
        ``self.nic.poll(reply_private)`` for the hijacked reply.  This is
        the bearer-token theft that motivates the §2.4 protections.
        """
        reply_private = reply_secret or PrivatePort.generate(self.rng)
        self.nic.listen(reply_private)
        # Message.reply must hold the secret so the F-box emits F(secret).
        hijacked = request_frame.message.copy(reply=as_port(reply_private))
        sent = self.nic.put(hijacked)
        return reply_private, sent

    def __repr__(self):
        return "Intruder(address=%d, captured=%d frames)" % (
            self.address,
            len(self.captured),
        )
