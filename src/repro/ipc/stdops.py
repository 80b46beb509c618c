"""Standard operation codes and rights conventions shared by all servers.

Every object server in this reproduction understands the standard
operations below in addition to its own command set; they implement the
generic capability manipulations of §2.3 (fabricating sub-capabilities,
revocation by refreshing the random number, destruction).
"""

#: Ask the server to describe an object (no rights required).
STD_INFO = 1

#: "Send the capability back to the server along with a bit mask and a
#: request to fabricate a new capability with fewer rights" (§2.3).  The
#: keep-mask travels in the request's ``size`` field.
STD_RESTRICT = 2

#: Revocation (§2.3): replace the object's random number, invalidating
#: every outstanding capability, and return a fresh owner capability.
STD_REFRESH = 3

#: Destroy the object and recycle its number.
STD_DESTROY = 4

#: Validate a capability and bump the object's touch count (used by
#: garbage-collecting servers).
STD_TOUCH = 5

#: Kernel-level broadcast: "where is the machine serving this put-port?"
LOCATE = 10

#: Kernel-level unicast answer to :data:`LOCATE`.
HERE = 11

#: Replica control plane (server-to-server, signature-authenticated):
#: apply a revocation decided by a peer replica of the same logical
#: service.  Payload: object number, generation, then the tagged new
#: secret for a refresh — or nothing, for a destruction.
CTL_APPLY = 40

#: Liveness/introspection probe answered by any replica with a small
#: JSON stats blob (objects held, dedup counters, fan-out failures).
CTL_HEALTH = 42

#: First command number available to individual servers.
USER_BASE = 100

#: Rights-bit convention used by the servers in this repository: bit 7 is
#: the owner/admin bit protecting REFRESH and DESTROY.  (The paper only
#: requires that revocation "be protected with a bit in the RIGHTS field";
#: which bit is server policy.)
RIGHT_ADMIN = 0x80
