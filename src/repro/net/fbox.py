"""The F-box: the one-way transformation between processor and network.

"We assume that somehow or other all messages entering and leaving every
processor undergo a simple transformation that users cannot bypass."
(§2.2).  On egress the F-box leaves the destination port alone and applies
the public one-way function F to the reply and signature fields, so the
secrets G' and S never reach the wire.  On ingress it admits only messages
whose destination matches a port for which the processor has done a GET —
and a GET(X) listens on F(X), which is what defeats an intruder who tries
GET(P) with a public put-port.

The paper situates the F-box "on the VLSI chip that is used to interface
to the network" or "inside the wall socket"; here it is a small object the
simulated NIC is built around, with the same can't-bypass guarantee
because :class:`~repro.net.nic.Nic` offers no path to the wire around it.
"""

from repro.core.ports import NULL_PORT, PORT_CACHE_MAX, Port
from repro.crypto.oneway import default_oneway


class FBox:
    """One F-box, shared one-way function F across the whole network."""

    def __init__(self, oneway=None):
        self._f = oneway or default_oneway()
        # Cache misses go through the uncached compute when F offers one,
        # so each value->image mapping lives in exactly one cache (this
        # one).  Only a real OneWayFunction guarantees its output is
        # masked to the port width, so only its results may skip Port
        # validation; a plain callable F goes through the checked
        # constructor (None here selects that path in one_way).
        self._f_raw = getattr(self._f, "raw", None)
        # port -> Port(F(port)).  Sound to memoize: F is deterministic
        # over the 48-bit port space and Port objects are immutable.  A
        # transaction's reply secret is imaged once, in its station's
        # pool refill or its batch's listen_fresh, and egress finds it
        # here for the first copy and every retransmission.  Bounded by
        # PORT_CACHE_MAX and then dropped wholesale by rebinding to a
        # fresh dict born with the null seed — never clear(), so a
        # thread still holding the old dict keeps a complete one.
        self._images = {NULL_PORT: NULL_PORT}

    def one_way(self, port):
        """F applied to a single port value (F-box primitive)."""
        images = self._images
        image = images.get(port)
        if image is not None:
            return image
        if not port:  # the F-box passes null header fields through
            return NULL_PORT
        raw = self._f_raw
        if raw is not None:
            # _unchecked is sound here: OneWayFunction masks its output.
            image = Port._unchecked(raw(port))
        else:
            image = Port(self._f(port))
        if len(images) >= PORT_CACHE_MAX:
            self._images = images = {NULL_PORT: NULL_PORT}
        images[port] = image
        return image

    def transform_egress(self, message):
        """The outbound transformation (Fig. 1).

        Destination passes through untouched ("The F-box on the sender's
        side does not perform any transformation on the P field"); the
        reply and signature fields are replaced by their one-way images.
        The copy is a single trusted shallow clone — the input message was
        validated when built, and the two replacement fields are Ports.
        One code path does the actual transformation for both this and
        the owned variant, so the egress rule cannot fork between them.
        """
        return self.transform_egress_owned(message._evolve())

    def transform_egress_owned(self, message):
        """The same outbound transformation, applied in place.

        Only for messages the caller constructed privately and will never
        reuse (e.g. the copy ``trans`` just made): it skips the defensive
        copy but performs the identical, unconditional transformation —
        this is an ownership optimization, never an F-box bypass.
        """
        fields = message.__dict__
        images = self._images
        reply = fields["reply"]
        signature = fields["signature"]
        # `is None`, never `or`: the null port's image is the null port,
        # which is falsy — and most requests carry a null signature.
        image = images.get(reply)
        fields["reply"] = self.one_way(reply) if image is None else image
        image = images.get(signature)
        fields["signature"] = (
            self.one_way(signature) if image is None else image
        )
        return message

    def one_way_batch(self, ports):
        """F applied to a batch of ports in one pass.

        Identical results to calling :meth:`one_way` per port (same
        cache, same masking); only the per-call bookkeeping is
        amortized.  Used by batch GET registration, where every port is
        a fresh random value and therefore a cache miss.
        """
        images = self._images
        raw = self._f_raw
        if len(images) + len(ports) >= PORT_CACHE_MAX:
            self._images = images = {NULL_PORT: NULL_PORT}
        if raw is None:
            return [self.one_way(port) for port in ports]
        unchecked = Port._unchecked
        out = []
        for port in ports:
            image = images.get(port)
            if image is None:
                images[port] = image = unchecked(raw(port))
            out.append(image)
        return out

    def listen_port(self, get_port):
        """The wire port a GET(get_port) actually listens on: F(get_port).

        For a genuine server holding the secret G this is the public
        put-port P = F(G).  For an intruder who only knows P it is the
        useless port F(P).
        """
        return self.one_way(get_port)

    def __repr__(self):
        return "FBox(F=%r)" % (self._f,)
