"""Link-level encryption, the last §2.4 alternative.

"Yet another possibility for protecting capabilities in the absence of
F-boxes is to use conventional link-level encryption on all the data
communication lines."

A :class:`LinkCryptNode` wraps a station: every outgoing message is packed
and encrypted under the per-line key for (this machine, destination
machine) and shipped inside an opaque carrier frame, so a wiretap sees
ciphertext only (the carrier's destination port is the receiving
machine's *link port* — the analogue of "which wire the bits are on",
which a line tapper can of course see).  The receiving node decrypts and
re-injects the inner message into its own station's normal admission
path.
"""

from repro.core.ports import PrivatePort
from repro.crypto.feistel import wide_cipher_for_key
from repro.crypto.randomsrc import RandomSource
from repro.errors import SecurityError
from repro.net.message import Message
from repro.net.network import Frame

#: Command code of carrier frames on an encrypted line.
LINK_ENCAP = 30


class LinkCryptNode:
    """A station whose point-to-point lines are conventionally encrypted.

    Parameters
    ----------
    nic:
        The underlying station; inner messages are delivered through its
        normal queues and handlers after decryption.
    rng:
        Used to choose this node's link port.
    """

    def __init__(self, nic, rng=None):
        self.nic = nic
        self.rng = rng or RandomSource()
        self._line_keys = {}
        #: Line carriers that would not decrypt, and the last reason.
        self.line_drops = 0
        self.last_error = None
        #: The secret this node's link endpoint listens on.
        self.link_port = PrivatePort.generate(self.rng)
        nic.serve(self.link_port, self._receive_carrier)
        #: Public address other ends of a line need: (machine, put-port).
        self.endpoint = (nic.address, self.link_port.public)

    def add_line(self, peer_machine, peer_link_port, key):
        """Configure one encrypted line to a peer machine.

        The line's cipher is resolved here, once: its per-round key
        states are absorbed at line setup, so per-frame encryption and
        decryption only copy hash states instead of rebuilding the key
        schedule (the cipher is stateless and shared via the per-key
        cache, so two nodes on the same key use one instance).
        """
        self._line_keys[peer_machine] = (
            peer_link_port,
            wide_cipher_for_key(bytes(key)),
        )

    def put(self, message, dst_machine):
        """Send a message down the encrypted line to ``dst_machine``.

        Unlike the F-box path there is no port-routed broadcast: lines
        are point to point, so the destination machine must be known.
        """
        try:
            peer_port, cipher = self._line_keys[dst_machine]
        except KeyError:
            raise SecurityError(
                "no encrypted line configured to machine %r" % (dst_machine,)
            ) from None
        # The usual egress transformation still applies (reply/signature
        # secrets never leave the machine); the line key then hides the
        # entire message from wiretaps.
        on_wire = self.nic.fbox.transform_egress(message)
        ciphertext = cipher.encrypt(on_wire.pack())
        carrier = Message(dest=peer_port, command=LINK_ENCAP, data=ciphertext)
        return self.nic.put(carrier, dst_machine=dst_machine)

    def _receive_carrier(self, frame):
        entry = self._line_keys.get(frame.src)
        if entry is None:
            return  # a carrier from a machine we share no line with
        _, cipher = entry
        try:
            inner = Message.unpack(cipher.decrypt(frame.message.data))
        except Exception as exc:
            # Wrong key or corrupted line traffic: drop, like hardware.
            self.line_drops += 1
            self.last_error = exc
            return
        # Re-inject through the normal admission path so listeners,
        # handlers, and RPC behave exactly as on a plaintext segment.
        self.nic.accept(Frame(src=frame.src, dst_machine=None, message=inner))

    def __repr__(self):
        return "LinkCryptNode(machine=%r, lines=%d)" % (
            self.nic.address,
            len(self._line_keys),
        )
